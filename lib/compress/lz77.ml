module Obs = Zipchannel_obs.Obs
module Bigstring = Zipchannel_buf.Bigstring
module Arena = Zipchannel_buf.Arena

let m_literals = Obs.Metrics.counter "kernel.lz77.literals"
let m_matches = Obs.Metrics.counter "kernel.lz77.matches"
let h_match_len = Obs.Metrics.histogram "kernel.lz77.match_len"

let min_match = 3
let max_match = 258
let window_size = 32768
let hash_bits = 15
let hash_mask = (1 lsl hash_bits) - 1

let update_hash h c = ((h lsl 5) lxor c) land hash_mask

let hash_of_triple c0 c1 c2 = update_hash (update_hash (update_hash 0 c0) c1) c2

(* A token is an unboxed int: a literal is its byte, a match
   [(length lsl 16) lor distance] — a distance of at most 32768 fits
   in 16 bits, and a length of at least 3 puts every match above 255.
   [Deflate]'s inflate parses a block into the same encoding. *)
type token = int

let[@inline] match_token ~length ~distance = (length lsl 16) lor distance
let[@inline] is_match t = t > 0xff
let[@inline] match_length t = t lsr 16
let[@inline] match_distance t = t land 0xffff

type strategy = Greedy | Lazy

let pp_token ppf t =
  if is_match t then
    Format.fprintf ppf "match len=%d dist=%d" (match_length t) (match_distance t)
  else Format.fprintf ppf "lit %C" (Char.chr t)

let hash_head_trace input =
  let n = Bytes.length input in
  if n < min_match then [||]
  else begin
    let byte i = Char.code (Bytes.get input i) in
    (* ins_h is seeded with the first two bytes, then each INSERT_STRING
       rolls in the byte two ahead of the insertion point. *)
    let h = ref (update_hash (update_hash 0 (byte 0)) (byte 1)) in
    Array.init (n - 2) (fun k ->
        h := update_hash !h (byte (k + 2));
        !h)
  end

(* The arena slots of one tokenizer run (DESIGN §12): the hash heads,
   zlib's 32 KiB [prev] ring, the token buffer, and the input staged
   off-heap for the word-sized probes. *)
let slot_head = 9
let slot_prev = 10
let slot_tokens = 11
let big_slot_input = 1

let window_mask = window_size - 1

(* Below this many bytes a run resets only the hash heads it uses. *)
let short_input = (hash_mask + 1) / 4

(* Telemetry over the finished tokens: a single extra pass, run only
   when metrics are on, so the disabled path is untouched. *)
let telemetry tokens n =
  if Obs.enabled () then begin
    let lits = ref 0 and matches = ref 0 in
    for i = 0 to n - 1 do
      let t = tokens.(i) in
      if is_match t then begin
        incr matches;
        Obs.Metrics.observe h_match_len (match_length t)
      end
      else incr lits
    done;
    Obs.Metrics.add m_literals !lits;
    Obs.Metrics.add m_matches !matches
  end

(* Word-at-a-time tokenizer.  The input is staged once into an off-heap
   bigstring; match extension is then a memcmp-style 64-bit
   [common_prefix], and a candidate is rejected with a two-byte probe
   ending at offset [best_len] (zlib's end-byte check: beating the
   current best requires those bytes to match, so skipping the scan when
   they differ cannot change which candidate wins).  Token output is
   identical to the byte-at-a-time reference in test/oracles.ml — same
   hash chains, same tie-breaks.

   [prev] is zlib's ring: position [p]'s chain link lives at
   [p land window_mask].  When [best_match pos] runs, only positions
   below [pos] have been inserted, so a slot the walk reads for a
   candidate [c] with [pos - c <= window_size] still holds [c]'s link
   ([c + window_size], which would overwrite it, is at least [pos]);
   the walk never reads past the window, so the chains are those of a
   [prev] indexed by absolute position.  Every slot it reads was
   written in this run, so only [head] is reset: whole for a long
   input, and for a short one only the heads its own positions hash
   to, which are all the heads the run reads or writes. *)
let tokenize_in arena ?(strategy = Greedy) ?(max_chain = 128) input =
  let n = Bytes.length input in
  let big = Arena.big arena ~slot:big_slot_input n in
  Bigstring.blit_of_bytes input ~src_off:0 big ~dst_off:0 ~len:n;
  (* Plain [Bytes] loads for the hash/insert path: cheaper than going
     through the bigstring's custom block, and the values are the same
     bytes either way.  [big] serves the word-at-a-time probes. *)
  let byte i = Char.code (Bytes.unsafe_get input i) in
  let head = Arena.ints arena ~slot:slot_head (hash_mask + 1) in
  if n >= short_input then Array.fill head 0 (hash_mask + 1) (-1)
  else if n >= min_match then begin
    let h = ref (update_hash (update_hash 0 (byte 0)) (byte 1)) in
    for p = 0 to n - min_match do
      h := update_hash !h (byte (p + 2));
      Array.unsafe_set head !h (-1)
    done
  end;
  let prev = Arena.ints arena ~slot:slot_prev window_size in
  (* Every token covers at least one input byte. *)
  let tokens = Arena.ints arena ~slot:slot_tokens n in
  let count = ref 0 in
  let emit t =
    Array.unsafe_set tokens !count t;
    incr count
  in
  (* Both strategies insert every position exactly once in strictly
     increasing order, so the triple hash rolls: seeded with the first
     two bytes, each insert folds in the byte two ahead (the same
     recurrence [hash_head_trace] documents), replacing the 3-byte
     rehash of the reference tokenizer. *)
  let ins_h =
    ref
      (if n >= min_match then update_hash (update_hash 0 (byte 0)) (byte 1)
       else 0)
  in
  let insert pos =
    if pos + min_match <= n then begin
      let h = update_hash !ins_h (byte (pos + 2)) in
      ins_h := h;
      Array.unsafe_set prev (pos land window_mask) (Array.unsafe_get head h);
      Array.unsafe_set head h pos
    end
  in
  (* The best match at [pos] as a token, -1 for none: the chain walk
     allocates nothing. *)
  let best_match pos =
    if pos + min_match > n then -1
    else begin
      let limit = min max_match (n - pos) in
      let h = hash_of_triple (byte pos) (byte (pos + 1)) (byte (pos + 2)) in
      let best_len = ref 0 and best_pos = ref (-1) in
      let first = byte pos in
      (* The 16-bit word a candidate must match at [pos + best_len - 1]
         to beat the current best (zlib's scan_end1/scan_end): any match
         longer than [best_len] agrees with [pos] on bytes 0..best_len,
         which includes both bytes of this word.  Refreshed whenever
         [best_len] moves; valid once [best_len >= 1] (before that a
         single byte probe at offset 0 plays the same role).  In-bounds:
         the loop guard keeps [best_len < limit], so
         [pos + best_len <= n - 1] and [cand + best_len < pos + best_len]. *)
      let want16 = ref 0 in
      let cand = ref (Array.unsafe_get head h) and chain = ref max_chain in
      (* Once [best_len = limit] no candidate can match strictly longer,
         so stopping early leaves the winner unchanged. *)
      while !cand >= 0 && !chain > 0 && !best_len < limit do
        if pos - !cand <= window_size then begin
          let bl = !best_len in
          let probe_hit =
            if bl = 0 then byte !cand = first
            else Bigstring.get16u big (!cand + bl - 1) = !want16
          in
          if probe_hit then begin
            let len = Bigstring.common_prefix big !cand pos ~limit in
            if len > bl then begin
              best_len := len;
              best_pos := !cand;
              if len < limit then want16 := Bigstring.get16u big (pos + len - 1)
            end
          end;
          cand := Array.unsafe_get prev (!cand land window_mask);
          decr chain
        end
        else cand := -1
      done;
      if !best_len >= min_match then
        match_token ~length:!best_len ~distance:(pos - !best_pos)
      else -1
    end
  in
  (match strategy with
  | Greedy ->
      let pos = ref 0 in
      while !pos < n do
        let m = best_match !pos in
        if m >= 0 then begin
          emit m;
          for p = !pos to !pos + match_length m - 1 do insert p done;
          pos := !pos + match_length m
        end
        else begin
          emit (byte !pos);
          insert !pos;
          incr pos
        end
      done
  | Lazy ->
      (* zlib's deflate_slow: hold a match found at pos-1 and abandon it
         for a single literal when pos matches strictly longer. *)
      let pos = ref 0 in
      let pending = ref (-1) (* best match at !pos - 1 *) in
      while !pos < n do
        let m = best_match !pos in
        insert !pos;
        if !pending < 0 then begin
          if m >= 0 then pending := m else emit (byte !pos);
          incr pos
        end
        else begin
          let plen = match_length !pending in
          if m >= 0 && match_length m > plen then begin
            emit (byte (!pos - 1));
            pending := m;
            incr pos
          end
          else begin
            emit !pending;
            let next = !pos - 1 + plen in
            for p = !pos + 1 to next - 1 do insert p done;
            pos := next;
            pending := -1
          end
        end
      done;
      if !pending >= 0 then emit !pending);
  telemetry tokens !count;
  (tokens, !count)

let tokenize_array ?strategy ?max_chain input =
  Arena.with_arena (fun arena ->
      let tokens, n = tokenize_in arena ?strategy ?max_chain input in
      Array.sub tokens 0 n)
