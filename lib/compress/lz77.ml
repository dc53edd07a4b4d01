module Obs = Zipchannel_obs.Obs
module Bigstring = Zipchannel_buf.Bigstring

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

type token = Literal of char | Match of { length : int; distance : int }

type strategy = Greedy | Lazy

let pp_token ppf = function
  | Literal c -> Format.fprintf ppf "lit %C" c
  | Match { length; distance } ->
      Format.fprintf ppf "match len=%d dist=%d" length distance

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

(* Growable token accumulator shared by both tokenizers: the output
   token sequence is a list, but the hot loop must not cons per token. *)
type emitter = { mutable buf : token array; mutable n : int }

let emitter () = { buf = Array.make 512 (Literal '\000'); n = 0 }

let emit e tok =
  let cap = Array.length e.buf in
  if e.n = cap then begin
    let bigger = Array.make (2 * cap) (Literal '\000') in
    Array.blit e.buf 0 bigger 0 cap;
    e.buf <- bigger
  end;
  Array.unsafe_set e.buf e.n tok;
  e.n <- e.n + 1

(* Telemetry over the finished token array: a single extra pass, run
   only when metrics are on, so the disabled path is untouched. *)
let telemetry e =
  if Obs.enabled () then begin
    let lits = ref 0 and matches = ref 0 in
    for i = 0 to e.n - 1 do
      match e.buf.(i) with
      | Literal _ -> incr lits
      | Match { length; _ } ->
          incr matches;
          Obs.Metrics.observe h_match_len length
    done;
    Obs.Metrics.add m_literals !lits;
    Obs.Metrics.add m_matches !matches
  end

let finish e =
  telemetry e;
  let buf = e.buf in
  let rec build i acc = if i < 0 then acc else build (i - 1) (buf.(i) :: acc) in
  build (e.n - 1) []

(* The retained byte-at-a-time reference tokenizer.  [tokenize_array] below
   must produce the identical token sequence for every input; the
   differential suite checks exactly that. *)
let tokenize_ref ?(strategy = Greedy) ?(max_chain = 128) input =
  let n = Bytes.length input in
  let byte i = Char.code (Bytes.unsafe_get input i) in
  let head = Array.make (hash_mask + 1) (-1) in
  let prev = Array.make (max 1 n) (-1) in
  let insert pos =
    if pos + min_match <= n then begin
      let h = hash_of_triple (byte pos) (byte (pos + 1)) (byte (pos + 2)) in
      Array.unsafe_set prev pos (Array.unsafe_get head h);
      Array.unsafe_set head h pos
    end
  in
  let match_length pos cand =
    let limit = min max_match (n - pos) in
    let len = ref 0 in
    while
      !len < limit
      && Char.code (Bytes.unsafe_get input (cand + !len))
         = Char.code (Bytes.unsafe_get input (pos + !len))
    do
      incr len
    done;
    !len
  in
  let best_match pos =
    if pos + min_match > n then None
    else begin
      let h = hash_of_triple (byte pos) (byte (pos + 1)) (byte (pos + 2)) in
      let best_len = ref 0 and best_pos = ref (-1) in
      let cand = ref (Array.unsafe_get head h) and chain = ref max_chain in
      while !cand >= 0 && !chain > 0 do
        if pos - !cand <= window_size then begin
          let len = match_length pos !cand in
          if len > !best_len then begin
            best_len := len;
            best_pos := !cand
          end;
          cand := Array.unsafe_get prev !cand;
          decr chain
        end
        else cand := -1
      done;
      if !best_len >= min_match then
        Some (!best_len, pos - !best_pos)
      else None
    end
  in
  let e = emitter () in
  (match strategy with
  | Greedy ->
      let pos = ref 0 in
      while !pos < n do
        match best_match !pos with
        | Some (length, distance) ->
            emit e (Match { length; distance });
            for p = !pos to !pos + length - 1 do insert p done;
            pos := !pos + length
        | None ->
            emit e (Literal (Bytes.get input !pos));
            insert !pos;
            incr pos
      done
  | Lazy ->
      (* zlib's deflate_slow: hold a match found at pos-1 and abandon it
         for a single literal when pos matches strictly longer. *)
      let pos = ref 0 in
      let pending = ref None (* best match at !pos - 1 *) in
      while !pos < n do
        let m = best_match !pos in
        insert !pos;
        (match !pending with
        | None -> (
            match m with
            | Some _ ->
                pending := m;
                incr pos
            | None ->
                emit e (Literal (Bytes.get input !pos));
                incr pos)
        | Some (plen, pdist) ->
            let better =
              match m with Some (len, _) -> len > plen | None -> false
            in
            if better then begin
              emit e (Literal (Bytes.get input (!pos - 1)));
              pending := m;
              incr pos
            end
            else begin
              emit e (Match { length = plen; distance = pdist });
              let next = !pos - 1 + plen in
              for p = !pos + 1 to next - 1 do insert p done;
              pos := next;
              pending := None
            end)
      done;
      (match !pending with
      | Some (plen, pdist) -> emit e (Match { length = plen; distance = pdist })
      | None -> ()));
  finish e

(* Word-at-a-time tokenizer.  The input is staged once into an off-heap
   bigstring; match extension is then a memcmp-style 64-bit
   [common_prefix], and a candidate is rejected with a two-byte probe
   ending at offset [best_len] (zlib's end-byte check: beating the
   current best requires those bytes to match, so skipping the scan when
   they differ cannot change which candidate wins).  Token output is
   identical to [tokenize_ref] — same hash chains, same tie-breaks. *)
let tokenize_emitter ?(strategy = Greedy) ?(max_chain = 128) input =
  let n = Bytes.length input in
  let big = Bigstring.of_bytes input in
  (* Plain [Bytes] loads for the hash/insert path: cheaper than going
     through the bigstring's custom block, and the values are the same
     bytes either way.  [big] serves the word-at-a-time probes. *)
  let byte i = Char.code (Bytes.unsafe_get input i) in
  let head = Array.make (hash_mask + 1) (-1) in
  let prev = Array.make (max 1 n) (-1) in
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
      Array.unsafe_set prev pos (Array.unsafe_get head h);
      Array.unsafe_set head h pos
    end
  in
  (* Packed as [len lsl 16 lor dist] (len <= 258, dist <= 32768 fits in
     16 bits), -1 for no match: the chain walk allocates nothing. *)
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
          cand := Array.unsafe_get prev !cand;
          decr chain
        end
        else cand := -1
      done;
      if !best_len >= min_match then (!best_len lsl 16) lor (pos - !best_pos)
      else -1
    end
  in
  let e = emitter () in
  (match strategy with
  | Greedy ->
      let pos = ref 0 in
      while !pos < n do
        let m = best_match !pos in
        if m >= 0 then begin
          let length = m lsr 16 and distance = m land 0xffff in
          emit e (Match { length; distance });
          for p = !pos to !pos + length - 1 do insert p done;
          pos := !pos + length
        end
        else begin
          emit e (Literal (Bytes.get input !pos));
          insert !pos;
          incr pos
        end
      done
  | Lazy ->
      let pos = ref 0 in
      let pending = ref (-1) (* packed best match at !pos - 1 *) in
      while !pos < n do
        let m = best_match !pos in
        insert !pos;
        if !pending < 0 then
          if m >= 0 then begin
            pending := m;
            incr pos
          end
          else begin
            emit e (Literal (Bytes.get input !pos));
            incr pos
          end
        else begin
          let plen = !pending lsr 16 and pdist = !pending land 0xffff in
          if m >= 0 && m lsr 16 > plen then begin
            emit e (Literal (Bytes.get input (!pos - 1)));
            pending := m;
            incr pos
          end
          else begin
            emit e (Match { length = plen; distance = pdist });
            let next = !pos - 1 + plen in
            for p = !pos + 1 to next - 1 do insert p done;
            pos := next;
            pending := -1
          end
        end
      done;
      if !pending >= 0 then
        emit e
          (Match { length = !pending lsr 16; distance = !pending land 0xffff }));
  telemetry e;
  e

let tokenize_array ?strategy ?max_chain input =
  let e = tokenize_emitter ?strategy ?max_chain input in
  Array.sub e.buf 0 e.n
