type code = { length : int; bits : int }

(* The tree is built with a binary min-heap of (weight, node id) pairs
   held in two parallel int arrays, so no pair is boxed.  The heap orders
   by weight alone, and the order in which equal weights pop — hence which
   of several optimal trees is built, and the code lengths every format
   serializes — follows from the exact sequence of sift comparisons.
   test/oracles.ml keeps a heap of boxed tuples with that sequence as the
   reference; moving a hole instead of swapping makes the same
   comparisons and ends in the same array. *)
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
    (* At most [used] entries are ever live: each merge pops two and
       pushes one. *)
    let weight = Array.make !used 0 and node = Array.make !used 0 in
    (* Entry (w, v) enters at slot [i] and rises past heavier parents. *)
    let sift_up i w v =
      let i = ref i in
      while !i > 0 && weight.((!i - 1) / 2) > w do
        let p = (!i - 1) / 2 in
        weight.(!i) <- weight.(p);
        node.(!i) <- node.(p);
        i := p
      done;
      weight.(!i) <- w;
      node.(!i) <- v
    in
    (* Entry (w, v) enters at the root of a heap of [size] and sinks below
       lighter children, the left one first on ties. *)
    let sift_down size w v =
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i and least = ref w in
        if l < size && weight.(l) < !least then begin
          smallest := l;
          least := weight.(l)
        end;
        if r < size && weight.(r) < !least then smallest := r;
        if !smallest = !i then continue := false
        else begin
          weight.(!i) <- weight.(!smallest);
          node.(!i) <- node.(!smallest);
          i := !smallest
        end
      done;
      weight.(!i) <- w;
      node.(!i) <- v
    in
    let size = ref 0 in
    for s = 0 to n - 1 do
      if freqs.(s) > 0 then begin
        sift_up !size freqs.(s) s;
        incr size
      end
    done;
    (* Internal tree nodes are numbered from [n]; [parent] links each node
       to its parent, which always has a larger number. *)
    let parent = Array.make (2 * n) (-1) in
    let next = ref n in
    while !size > 1 do
      let w1 = weight.(0) and n1 = node.(0) in
      decr size;
      sift_down !size weight.(!size) node.(!size);
      let w2 = weight.(0) and n2 = node.(0) in
      decr size;
      sift_down !size weight.(!size) node.(!size);
      parent.(n1) <- !next;
      parent.(n2) <- !next;
      sift_up !size (w1 + w2) !next;
      incr size;
      incr next
    done;
    (* Depths top-down: a node's parent is numbered above it, so walking
       the numbers downwards from the root meets every parent first. *)
    let depth = Array.make !next 0 in
    let deepest = ref 0 in
    for v = !next - 2 downto 0 do
      let p = parent.(v) in
      if p >= 0 then depth.(v) <- depth.(p) + 1
    done;
    for s = 0 to n - 1 do
      if freqs.(s) > 0 then begin
        lengths.(s) <- depth.(s);
        if depth.(s) > !deepest then deepest := depth.(s)
      end
    done;
    (* Within [max_length] the Kraft sum is already exact and the re-deal
       below would hand every symbol back its own length. *)
    if !deepest > max_length then begin
      (* Overflow repair (zlib-style): cap lengths at [max_length] and
         restore the Kraft equality by demoting codes from shorter
         levels. *)
      let bl_count = Array.make (max_length + 1) 0 in
      Array.iter
        (fun l -> if l > 0 then
            let l = min l max_length in
            bl_count.(l) <- bl_count.(l) + 1)
        lengths;
      let kraft = ref 0 in
      for l = 1 to max_length do
        kraft := !kraft + (bl_count.(l) lsl (max_length - l))
      done;
      (* Each step below lowers the Kraft sum (in units of
         2^-max_length) by exactly one: -2^(m-l) + 2 * 2^(m-l-1) - 1. *)
      for _ = 1 to !kraft - (1 lsl max_length) do
        (* Take one code from the deepest non-empty level above the floor
           and push it one level down, compensating at max_length. *)
        let l = ref (max_length - 1) in
        while bl_count.(!l) = 0 do decr l done;
        bl_count.(!l) <- bl_count.(!l) - 1;
        bl_count.(!l + 1) <- bl_count.(!l + 1) + 2;
        bl_count.(max_length) <- bl_count.(max_length) - 1
      done;
      (* Reassign lengths from the repaired histogram: sort used symbols
         by original length (ties by index) and deal lengths
         shortest-first. *)
      let syms = Array.make !used 0 in
      let k = ref 0 in
      for s = 0 to n - 1 do
        if freqs.(s) > 0 then begin
          syms.(!k) <- s;
          incr k
        end
      done;
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
      done
    end;
    lengths
  end

let canonical_codes lengths =
  let n = Array.length lengths in
  let max_len = Array.fold_left max 0 lengths in
  let codes = Array.make n { length = 0; bits = 0 } in
  if max_len = 0 then codes
  else begin
    let bl_count = Array.make (max_len + 1) 0 in
    Array.iter (fun l -> if l > 0 then bl_count.(l) <- bl_count.(l) + 1) lengths;
    let next_code = Array.make (max_len + 2) 0 in
    let code = ref 0 in
    for l = 1 to max_len do
      code := (!code + bl_count.(l - 1)) lsl 1;
      next_code.(l) <- !code
    done;
    (* Oversubscription check: after assigning all codes of length l the
       running code must fit in l bits. *)
    for s = 0 to n - 1 do
      let l = lengths.(s) in
      if l > 0 then begin
        let bits = next_code.(l) in
        if bits lsr l <> 0 then
          invalid_arg "Huffman.canonical_codes: oversubscribed lengths";
        codes.(s) <- { length = l; bits };
        next_code.(l) <- bits + 1
      end
    done;
    codes
  end

let write_lengths w lengths =
  Bitio.Writer.add_bits_msb w ~value:(Array.length lengths) ~count:16;
  Array.iter
    (fun l ->
      if l < 0 || l > 15 then invalid_arg "Huffman.write_lengths: length";
      Bitio.Writer.add_bits_msb w ~value:l ~count:4)
    lengths

(* Explicit in-order loop: [Array.init] does not guarantee the order it
   applies the closure in, and each application advances the bit reader. *)
let read_lengths r =
  let n = Bitio.Reader.read_bits_msb r 16 in
  let lengths = Array.make n 0 in
  for i = 0 to n - 1 do
    lengths.(i) <- Bitio.Reader.read_bits_msb r 4
  done;
  lengths

let write_symbol w codes sym =
  let c = codes.(sym) in
  if c.length = 0 then invalid_arg "Huffman.write_symbol: symbol has no code";
  Bitio.Writer.add_bits_msb w ~value:c.bits ~count:c.length

(* Canonical bit-serial decoder: for each length we know the first code and
   the symbols assigned at that length, so one running comparison per bit
   suffices. *)
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

let read_symbol r d = read_symbol_bits (fun () -> Bitio.Reader.read_bit r) d

let encode data =
  let freqs = Array.make 256 0 in
  Bytes.iter (fun c -> freqs.(Char.code c) <- freqs.(Char.code c) + 1) data;
  let lengths = lengths_of_freqs freqs in
  let codes = canonical_codes lengths in
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits_msb w ~value:(Bytes.length data lsr 16) ~count:16;
  Bitio.Writer.add_bits_msb w ~value:(Bytes.length data land 0xffff) ~count:16;
  write_lengths w lengths;
  Bytes.iter (fun c -> write_symbol w codes (Char.code c)) data;
  Bitio.Writer.to_bytes w

let decode_result data =
  let r = Bitio.Reader.create data in
  Codec_error.protect ~codec:"huffman"
    ~offset:(fun () -> Bitio.Reader.byte_position r)
  @@ fun () ->
  let hi = Bitio.Reader.read_bits_msb r 16 in
  let lo = Bitio.Reader.read_bits_msb r 16 in
  let n = (hi lsl 16) lor lo in
  let lengths = read_lengths r in
  if Array.length lengths <> 256 then failwith "Huffman.decode: bad header";
  (* Bomb guard: every symbol costs at least one bit, so the declared
     output length can never exceed the bits left after the tables.
     Checked before the output buffer is allocated. *)
  if n > Bitio.Reader.bits_remaining r then
    failwith "Huffman.decode: declared length exceeds what the input can encode";
  let d = decoder_of_lengths lengths in
  (* Explicit in-order loop: [Bytes.init] does not guarantee application
     order, and each symbol read advances the bit reader. *)
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set out i (Char.chr (read_symbol r d))
  done;
  out

let decode data = Codec_error.unwrap (decode_result data)
