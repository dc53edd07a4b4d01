(* Reference implementations kept only as test oracles: the straightforward
   versions the optimized library code replaced.  The differential tests in
   test_oracles.ml and test_fastpath.ml pin the library to them, output for
   output. *)

(* [Huffman.lengths_of_freqs] as it was with a heap of boxed
   (weight, node id) tuples, a parent walk per symbol for the depths, and
   the overflow repair's re-deal always run. *)
module Huffman_ref = struct
  module Heap = struct
    type t = {
      mutable data : (int * int) array;
      mutable size : int;
    }

    let create capacity = { data = Array.make (max 1 capacity) (0, 0); size = 0 }

    let swap h i j =
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(j);
      h.data.(j) <- tmp

    let push h x =
      if h.size = Array.length h.data then begin
        let bigger = Array.make (2 * h.size) (0, 0) in
        Array.blit h.data 0 bigger 0 h.size;
        h.data <- bigger
      end;
      h.data.(h.size) <- x;
      h.size <- h.size + 1;
      let i = ref (h.size - 1) in
      while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
        swap h ((!i - 1) / 2) !i;
        i := (!i - 1) / 2
      done

    let pop h =
      if h.size = 0 then invalid_arg "Heap.pop: empty";
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then
          smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then
          smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done;
      top

    let size h = h.size
  end

  let lengths_of_freqs ?(max_length = 15) freqs =
    let n = Array.length freqs in
    let used = ref 0 in
    Array.iter (fun f -> if f > 0 then incr used) freqs;
    if !used > 1 lsl max_length then
      invalid_arg "Huffman.lengths_of_freqs: too many symbols for max_length";
    let lengths = Array.make n 0 in
    if !used = 0 then lengths
    else if !used = 1 then begin
      Array.iteri (fun s f -> if f > 0 then lengths.(s) <- 1) freqs;
      lengths
    end
    else begin
      let parent = Array.make (2 * n) (-1) in
      let heap = Heap.create n in
      Array.iteri (fun s f -> if f > 0 then Heap.push heap (f, s)) freqs;
      let next = ref n in
      while Heap.size heap > 1 do
        let w1, n1 = Heap.pop heap in
        let w2, n2 = Heap.pop heap in
        parent.(n1) <- !next;
        parent.(n2) <- !next;
        Heap.push heap (w1 + w2, !next);
        incr next
      done;
      for s = 0 to n - 1 do
        if freqs.(s) > 0 then begin
          let d = ref 0 and node = ref s in
          while parent.(!node) >= 0 do
            incr d;
            node := parent.(!node)
          done;
          lengths.(s) <- !d
        end
      done;
      let bl_count = Array.make (max_length + 1) 0 in
      Array.iter
        (fun l -> if l > 0 then
            let l = min l max_length in
            bl_count.(l) <- bl_count.(l) + 1)
        lengths;
      let kraft () =
        let acc = ref 0 in
        for l = 1 to max_length do
          acc := !acc + (bl_count.(l) lsl (max_length - l))
        done;
        !acc
      in
      let budget = 1 lsl max_length in
      while kraft () > budget do
        let l = ref (max_length - 1) in
        while bl_count.(!l) = 0 do decr l done;
        bl_count.(!l) <- bl_count.(!l) - 1;
        bl_count.(!l + 1) <- bl_count.(!l + 1) + 2;
        bl_count.(max_length) <- bl_count.(max_length) - 1
      done;
      let syms =
        Array.of_list
          (List.filter (fun s -> freqs.(s) > 0) (List.init n (fun i -> i)))
      in
      Array.sort
        (fun a b ->
          match compare lengths.(a) lengths.(b) with 0 -> compare a b | c -> c)
        syms;
      let idx = ref 0 in
      for l = 1 to max_length do
        for _ = 1 to bl_count.(l) do
          lengths.(syms.(!idx)) <- l;
          incr idx
        done
      done;
      lengths
    end

  (* [Huffman]'s canonical decoder as it was before the decode table:
     for each length the first code and the symbols assigned at that
     length, and one running comparison per bit read. *)
  type decoder = {
    max_len : int;
    first_code : int array; (* per length *)
    first_index : int array; (* per length, index into [symbols] *)
    counts : int array;
    symbols : int array; (* used symbols ordered by (length, symbol) *)
  }

  let decoder_of_lengths lengths =
    let max_len = Array.fold_left max 0 lengths in
    let counts = Array.make (max_len + 1) 0 in
    Array.iter (fun l -> if l > 0 then counts.(l) <- counts.(l) + 1) lengths;
    let order =
      List.filter
        (fun s -> lengths.(s) > 0)
        (List.init (Array.length lengths) (fun i -> i))
    in
    let order =
      List.sort
        (fun a b ->
          match compare lengths.(a) lengths.(b) with 0 -> compare a b | c -> c)
        order
    in
    let symbols = Array.of_list order in
    let first_code = Array.make (max_len + 2) 0 in
    let first_index = Array.make (max_len + 2) 0 in
    let code = ref 0 and index = ref 0 in
    for l = 1 to max_len do
      code := (!code + if l >= 2 then counts.(l - 1) else 0) lsl 1;
      first_code.(l) <- !code;
      first_index.(l) <- !index;
      index := !index + counts.(l)
    done;
    { max_len; first_code; first_index; counts; symbols }

  (* One symbol from a bit source delivering the code most significant
     bit first. *)
  let read_symbol_bits next_bit d =
    let code = ref 0 and len = ref 0 in
    let result = ref (-1) in
    while !result < 0 do
      if !len >= d.max_len then failwith "Huffman.read_symbol: invalid code";
      code := (!code lsl 1) lor (if next_bit () then 1 else 0);
      incr len;
      let l = !len in
      if d.counts.(l) > 0
         && !code - d.first_code.(l) < d.counts.(l)
         && !code >= d.first_code.(l)
      then result := d.symbols.(d.first_index.(l) + (!code - d.first_code.(l)))
    done;
    !result
end

(* [Mtf] as it was with the recency list in an int array, a linear scan
   per byte and an [Array.blit] shift. *)
module Mtf_ref = struct
  let initial_order () = Array.init 256 (fun i -> i)

  let move_to_front order pos =
    let v = order.(pos) in
    Array.blit order 0 order 1 pos;
    order.(0) <- v

  let encode input =
    let order = initial_order () in
    let len = Bytes.length input in
    let out = Array.make len 0 in
    for i = 0 to len - 1 do
      let c = Char.code (Bytes.get input i) in
      let pos = ref 0 in
      while order.(!pos) <> c do incr pos done;
      move_to_front order !pos;
      out.(i) <- !pos
    done;
    out

  (* Symbols must be in 0..255. *)
  let decode symbols =
    let order = initial_order () in
    let n = Array.length symbols in
    let out = Bytes.create n in
    for i = 0 to n - 1 do
      let pos = symbols.(i) in
      let c = order.(pos) in
      move_to_front order pos;
      Bytes.set out i (Char.chr c)
    done;
    out
end

(* [Rle1.encode] as it was: one run at a time through a [Buffer]. *)
module Rle1_ref = struct
  let encode input =
    let n = Bytes.length input in
    let out = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      let c = Bytes.get input !i in
      let run = ref 1 in
      while !i + !run < n && !run < 255 && Bytes.get input (!i + !run) = c do
        incr run
      done;
      if !run >= 4 then begin
        for _ = 1 to 4 do Buffer.add_char out c done;
        Buffer.add_char out (Char.chr (!run - 4))
      end
      else for _ = 1 to !run do Buffer.add_char out c done;
      i := !i + !run
    done;
    Buffer.to_bytes out
end

(* [Bwt.sort_rotations_work] as it was: prefix doubling with a
   tuple-keyed [Array.sort], the executable specification of both the
   permutation and the attack-visible work count. *)
module Bwt_ref = struct
  let sort_rotations_work block =
    let n = Bytes.length block in
    if n = 0 then ([||], 0)
    else begin
      let work = ref 0 in
      let rank = Array.init n (fun i -> Char.code (Bytes.get block i)) in
      let perm = Array.init n (fun i -> i) in
      let tmp = Array.make n 0 in
      let k = ref 1 in
      let distinct = ref false in
      while (not !distinct) && !k < n do
        let key i =
          incr work;
          (rank.(i), rank.((i + !k) mod n))
        in
        Array.sort (fun a b -> compare (key a) (key b)) perm;
        (* Re-rank: equal keys share a rank. *)
        tmp.(perm.(0)) <- 0;
        let all_distinct = ref true in
        for j = 1 to n - 1 do
          let prev = perm.(j - 1) and cur = perm.(j) in
          if key prev = key cur then begin
            tmp.(cur) <- tmp.(prev);
            all_distinct := false
          end
          else tmp.(cur) <- j
        done;
        Array.blit tmp 0 rank 0 n;
        distinct := !all_distinct;
        k := !k * 2
      done;
      (* Identical rotations (period divides n): order by start index for
         determinism. *)
      if not !distinct then
        Array.sort
          (fun a b ->
            incr work;
            match compare rank.(a) rank.(b) with 0 -> compare a b | c -> c)
          perm;
      (perm, !work)
    end
end

(* The bytes [Lz77] tokens spell, one token at a time: the round-trip
   reference for the tokenizer, which no codec decodes through.
   @raise Invalid_argument on a match reaching before the start of the
   output. *)
let detokenize tokens =
  let module Lz77 = Zipchannel_compress.Lz77 in
  let out = Buffer.create 256 in
  Array.iter
    (fun token ->
      if Lz77.is_match token then begin
        let start = Buffer.length out - Lz77.match_distance token in
        if start < 0 then invalid_arg "Lz77.detokenize: distance too large";
        (* Byte-by-byte copy so that overlapping matches self-extend. *)
        for k = 0 to Lz77.match_length token - 1 do
          Buffer.add_char out (Buffer.nth out (start + k))
        done
      end
      else Buffer.add_char out (Char.chr token))
    tokens;
  Buffer.to_bytes out

(* [Lz77.tokenize_array] as a byte-at-a-time executable specification:
   a fresh [prev] indexed by absolute position, the 3-byte hash
   recomputed at every insert, option-returning match search and a
   byte-by-byte match extender.  Same hash chains and tie-breaks, so the
   same tokens, in a list. *)
module Lz77_ref = struct
  open Zipchannel_compress.Lz77

  let tokenize ?(strategy = Greedy) ?(max_chain = 128) input =
    let n = Bytes.length input in
    let byte i = Char.code (Bytes.unsafe_get input i) in
    let head = Array.make (hash_mask + 1) (-1) in
    let prev = Array.make (max 1 n) (-1) in
    let insert pos =
      if pos + min_match <= n then begin
        let h = hash_of_triple (byte pos) (byte (pos + 1)) (byte (pos + 2)) in
        prev.(pos) <- head.(h);
        head.(h) <- pos
      end
    in
    let match_length pos cand =
      let limit = min max_match (n - pos) in
      let len = ref 0 in
      while !len < limit && Bytes.get input (cand + !len) = Bytes.get input (pos + !len) do
        incr len
      done;
      !len
    in
    let best_match pos =
      if pos + min_match > n then None
      else begin
        let h = hash_of_triple (byte pos) (byte (pos + 1)) (byte (pos + 2)) in
        let best_len = ref 0 and best_pos = ref (-1) in
        let cand = ref head.(h) and chain = ref max_chain in
        while !cand >= 0 && !chain > 0 do
          if pos - !cand <= window_size then begin
            let len = match_length pos !cand in
            if len > !best_len then begin
              best_len := len;
              best_pos := !cand
            end;
            cand := prev.(!cand);
            decr chain
          end
          else cand := -1
        done;
        if !best_len >= min_match then Some (!best_len, pos - !best_pos) else None
      end
    in
    let out = ref [] in
    let emit t = out := t :: !out in
    let literal pos = emit (Char.code (Bytes.get input pos)) in
    let emit_match (length, distance) = emit (match_token ~length ~distance) in
    (match strategy with
    | Greedy ->
        let pos = ref 0 in
        while !pos < n do
          match best_match !pos with
          | Some (length, distance) ->
              emit_match (length, distance);
              for p = !pos to !pos + length - 1 do insert p done;
              pos := !pos + length
          | None ->
              literal !pos;
              insert !pos;
              incr pos
        done
    | Lazy ->
        (* zlib's deflate_slow: hold a match found at pos-1 and abandon
           it for a single literal when pos matches strictly longer. *)
        let pos = ref 0 in
        let pending = ref None (* best match at !pos - 1 *) in
        while !pos < n do
          let m = best_match !pos in
          insert !pos;
          (match !pending with
          | None ->
              if m = None then literal !pos else pending := m;
              incr pos
          | Some (plen, pdist) ->
              let better = match m with Some (len, _) -> len > plen | None -> false in
              if better then begin
                literal (!pos - 1);
                pending := m;
                incr pos
              end
              else begin
                emit_match (plen, pdist);
                let next = !pos - 1 + plen in
                for p = !pos + 1 to next - 1 do insert p done;
                pos := next;
                pending := None
              end)
        done;
        Option.iter emit_match !pending);
    List.rev !out
end
