type block_info = {
  index : int;
  length : int;
  path : Block_sort.path;
}

let default_block_size = 10_000

(* The largest post-RLE1 block length the format supports.  The header's
   u32 length field otherwise lets a few dozen adversarial bytes demand a
   4 GiB block; the cap keeps the decoder's per-block memory bounded.
   [compress] rejects larger [block_size] values so every stream the
   compressor can produce stays decodable. *)
let max_block_size = 1 lsl 24

let magic = "ZBZ2"

let block_marker = 0x31

let end_marker = 0x17

(* Multi-table Huffman coding of the RLE2 symbol stream, as in bzip2:
   the stream is cut into groups of 50 symbols; between 2 and 6 tables are
   trained by iterative reassignment (each group picks its cheapest
   table, tables are refit to their groups); the chosen table per group
   (the selector) is MTF'd and written in unary. *)
let group_size = 50

let n_groups_for n_symbols =
  if n_symbols < 200 then 2
  else if n_symbols < 600 then 3
  else if n_symbols < 1200 then 4
  else if n_symbols < 2400 then 5
  else 6

let refinement_iters = 4

let add_u32 w v =
  Bitio.Writer.add_bits_msb w ~value:(v lsr 16) ~count:16;
  Bitio.Writer.add_bits_msb w ~value:(v land 0xffff) ~count:16

let read_u32 r =
  let hi = Bitio.Reader.read_bits_msb r 16 in
  let lo = Bitio.Reader.read_bits_msb r 16 in
  (hi lsl 16) lor lo

(* [symbols] buffers may be arena slots whose physical length exceeds
   the encoded stream, so every helper below takes the logical symbol
   count [n_syms] explicitly. *)

let group_count ~n_syms = (n_syms + group_size - 1) / group_size

module Arena = Zipchannel_buf.Arena

(* Arena int slots of the block body, beside the stages' slots 0..8 (the
   slot table is in DESIGN.md §12).  Table [t]'s frequency, length and
   packed code of symbol [s] sit at [t * alphabet + s] of the first
   three. *)
let slot_freqs = 15
let slot_lengths = 16
let slot_codes = 17
let slot_lanes = 18
let slot_selectors = 19
let slot_scratch = 20

(* Train the tables: initial assignment is round-robin over contiguous
   chunks, then a few rounds of cheapest-table reassignment.  Returns
   the table count, the selectors (one per group) and the lengths,
   arena slots whose physical lengths may exceed what they hold. *)
let train_tables arena symbols ~n_syms =
  let alphabet = Rle2.alphabet_size in
  let n_groups = n_groups_for n_syms in
  let groups = group_count ~n_syms in
  let ints slot n = Arena.ints arena ~slot n in
  let selectors = ints slot_selectors groups in
  for g = 0 to groups - 1 do
    selectors.(g) <- g * n_groups / max 1 groups
  done;
  let freqs = ints slot_freqs (n_groups * alphabet) in
  let lengths = ints slot_lengths (n_groups * alphabet) in
  let scratch = ints slot_scratch (Huffman.scratch_size alphabet) in
  (* One flat length table for all tables, packed per symbol as in bzip2:
     table [t]'s length of [s] sits in bits [10t, 10t + 10) of
     [lanes.(s)], and bit [t] of [lanes.(alphabet + s)] is set when table
     [t] has no code for [s].  A group's cost under every table is then
     one sum over its symbols: at most 50 lengths of at most 15 bits
     each, under 1024, so no lane carries into the next, and 6 lanes fit
     in 60 bits. *)
  let lanes = ints slot_lanes (2 * alphabet) in
  (* Refit the tables whose bit is set in [changed]: a table whose set of
     groups did not change has the same frequencies, hence the same
     lengths, and keeps them. *)
  let refit changed =
    for t = 0 to n_groups - 1 do
      if changed land (1 lsl t) <> 0 then
        Array.fill freqs (t * alphabet) alphabet 0
    done;
    for g = 0 to groups - 1 do
      let t = selectors.(g) in
      if changed land (1 lsl t) <> 0 then begin
        let base = t * alphabet in
        for k = g * group_size to min n_syms ((g + 1) * group_size) - 1 do
          let i = base + symbols.(k) in
          freqs.(i) <- freqs.(i) + 1
        done
      end
    done;
    for t = 0 to n_groups - 1 do
      if changed land (1 lsl t) <> 0 then begin
        let base = t * alphabet in
        (* An unused table still needs a valid (dummy) code set. *)
        let used = ref false in
        for i = base to base + alphabet - 1 do
          if freqs.(i) <> 0 then used := true
        done;
        if not !used then freqs.(base + Rle2.eob) <- 1;
        Huffman.lengths_of_freqs_into freqs ~off:base ~len:alphabet ~scratch
          ~lengths
      end
    done;
    Array.fill lanes 0 (2 * alphabet) 0;
    for t = 0 to n_groups - 1 do
      for s = 0 to alphabet - 1 do
        let l = lengths.((t * alphabet) + s) in
        if l = 0 then lanes.(alphabet + s) <- lanes.(alphabet + s) lor (1 lsl t)
        else lanes.(s) <- lanes.(s) lor (l lsl (10 * t))
      done
    done
  in
  refit ((1 lsl n_groups) - 1);
  for _ = 2 to refinement_iters do
    (* Reassign each group to its cheapest table, the first one on ties.
       A table without a code for one of the group's symbols cannot take
       it.  The group's current table always can (it was fitted to the
       group), so some table is always eligible. *)
    let changed = ref 0 in
    for g = 0 to groups - 1 do
      let sum = ref 0 and miss = ref 0 in
      for k = g * group_size to min n_syms ((g + 1) * group_size) - 1 do
        let s = Array.unsafe_get symbols k in
        sum := !sum + Array.unsafe_get lanes s;
        miss := !miss lor Array.unsafe_get lanes (alphabet + s)
      done;
      let current = selectors.(g) in
      let best = ref current and best_cost = ref max_int in
      for t = 0 to n_groups - 1 do
        let cost = (!sum lsr (10 * t)) land 1023 in
        if !miss land (1 lsl t) = 0 && cost < !best_cost then begin
          best_cost := cost;
          best := t
        end
      done;
      if !best <> current then
        changed := !changed lor (1 lsl current) lor (1 lsl !best);
      selectors.(g) <- !best
    done;
    refit !changed
  done;
  (n_groups, selectors, lengths)

(* Selectors are MTF-coded over table indices and written in unary
   (k ones then a zero), exactly bzip2's scheme. *)
let write_selectors w ~n_groups selectors ~count =
  let order = Array.init n_groups (fun i -> i) in
  for g = 0 to count - 1 do
    let sel = selectors.(g) in
    let pos = ref 0 in
    while order.(!pos) <> sel do incr pos done;
    for _ = 1 to !pos do Bitio.Writer.add_bit w true done;
    Bitio.Writer.add_bit w false;
    let v = order.(!pos) in
    Array.blit order 0 order 1 !pos;
    order.(0) <- v
  done

(* Explicit in-order loop: both the MTF order array and the bit reader
   are mutated per selector, and [Array.init] does not guarantee the
   order it applies the closure in. *)
let read_selectors r ~n_groups ~count =
  let order = Array.init n_groups (fun i -> i) in
  let selectors = Array.make count 0 in
  for k = 0 to count - 1 do
    let pos = ref 0 in
    while Bitio.Reader.read_bit r do
      incr pos;
      if !pos >= n_groups then failwith "Bzip2.decompress: bad selector"
    done;
    let v = order.(!pos) in
    Array.blit order 0 order 1 !pos;
    order.(0) <- v;
    selectors.(k) <- v
  done;
  selectors

module Obs = Zipchannel_obs.Obs

let m_bytes_in = Obs.Metrics.counter "kernel.bzip2.bytes_in"
let m_bytes_out = Obs.Metrics.counter "kernel.bzip2.bytes_out"
let m_blocks = Obs.Metrics.counter "kernel.bzip2.blocks"
let h_block_bytes = Obs.Metrics.histogram "kernel.bzip2.block_bytes"

(* Everything after the BWT/MTF/RLE2 stages — table training and the
   serialised block body — shared by the arena pipeline and the
   reference path so the two can only diverge in the stages the
   differential tests pin.  Each selector group's symbols go out in one
   {!Huffman.write_symbols} run over the packed code table. *)
let write_block_body w ~arena ~primary ~len symbols ~n_syms =
  let alphabet = Rle2.alphabet_size in
  let n_groups, selectors, lengths = train_tables arena symbols ~n_syms in
  let groups = group_count ~n_syms in
  let codes = Arena.ints arena ~slot:slot_codes (n_groups * alphabet) in
  for t = 0 to n_groups - 1 do
    Huffman.packed_codes_into lengths ~off:(t * alphabet) ~len:alphabet codes
  done;
  Bitio.Writer.add_bits_msb w ~value:block_marker ~count:8;
  add_u32 w len;
  add_u32 w primary;
  Bitio.Writer.add_bits_msb w ~value:n_groups ~count:3;
  Bitio.Writer.add_bits_msb w ~value:groups ~count:15;
  write_selectors w ~n_groups selectors ~count:groups;
  for t = 0 to n_groups - 1 do
    Huffman.write_lengths w lengths ~off:(t * alphabet) ~len:alphabet
  done;
  for g = 0 to groups - 1 do
    let off = g * group_size in
    Huffman.write_symbols w codes
      ~base:(selectors.(g) * alphabet)
      symbols ~off
      ~len:(min group_size (n_syms - off))
  done

(* One post-RLE1 block, read in place from [data.(off .. off + len - 1)].
   All per-stage scratch lives in [arena], which the caller owns for the
   duration of the call; the chain RLE1 slice -> BWT -> MTF -> RLE2 runs
   with no intermediate [Bytes.sub] or copies.  [sort] orders the block's
   rotations and returns whatever it reports about doing so. *)
let compress_block w ~sort ~index ~arena data ~off ~len =
  Obs.with_span "bzip2.block"
    ~attrs:[ ("index", string_of_int index); ("bytes", string_of_int len) ]
  @@ fun () ->
  Obs.Metrics.incr m_blocks;
  Obs.Metrics.observe h_block_bytes len;
  let perm, report = sort ~arena data ~off ~len in
  let last, primary = Bwt.transform_with_sub ~arena ~perm data ~off ~len in
  let mtf = Mtf.encode_sub ~arena last ~off:0 ~len in
  let symbols, n_syms = Rle2.encode_sub ~arena mtf ~len in
  write_block_body w ~arena ~primary ~len symbols ~n_syms;
  report

let check_block_size block_size =
  if block_size < 16 then invalid_arg "Bzip2.compress: block_size too small";
  if block_size > max_block_size then
    invalid_arg "Bzip2.compress: block_size too large"

(* The stream around the blocks, and the per-block [sort] reports in
   block order. *)
let compress_blocks ~sort ~block_size ~jobs input =
  check_block_size block_size;
  Obs.with_span "bzip2.compress"
    ~attrs:[ ("bytes", string_of_int (Bytes.length input)) ]
  @@ fun () ->
  let data = Rle1.encode input in
  let n = Bytes.length data in
  let w = Bitio.Writer.create () in
  String.iter
    (fun c -> Bitio.Writer.add_bits_msb w ~value:(Char.code c) ~count:8)
    magic;
  (* Blocks are independent: each one is compressed into its own bit
     writer (possibly on another domain) and the bitstreams are spliced
     back in order.  Splicing is pure bit concatenation, so the output is
     byte-identical for every [jobs] value. *)
  let n_blocks = (n + block_size - 1) / block_size in
  let parts =
    Zipchannel_parallel.Pool.map_array ~jobs
      (fun index ->
        let off = index * block_size in
        let len = min block_size (n - off) in
        let bw = Bitio.Writer.create () in
        let report =
          Arena.with_arena (fun arena ->
              compress_block bw ~sort ~index ~arena data ~off ~len)
        in
        (bw, report))
      (Array.init n_blocks (fun i -> i))
  in
  Array.iter (fun (bw, _) -> Bitio.Writer.append w bw) parts;
  Bitio.Writer.add_bits_msb w ~value:end_marker ~count:8;
  let out = Bitio.Writer.to_bytes w in
  Obs.Metrics.add m_bytes_in (Bytes.length input);
  Obs.Metrics.add m_bytes_out (Bytes.length out);
  (out, Array.map snd parts)

(* Two sorters order a block's rotations.  [compress_with_info] runs the
   victim model, [Block_sort]'s budgeted mainSort -> fallbackSort with its
   exact work counts, because its control flow is what the attacks
   observe.  [compress] runs the comparison-free [Bwt.sort_rotations_sub].
   Both break ties between identical rotations by start index, so they
   return the same permutation and the two entry points the same bytes. *)
let compress_with_info ?(block_size = default_block_size)
    ?(budget_factor = Block_sort.default_budget_factor) ?(jobs = 1) input =
  let sort ~arena data ~off ~len =
    let perm, path =
      Block_sort.block_sort_sub ~arena ~budget_factor
        ~full_block:(len = block_size) data ~off ~len
    in
    (perm, (len, path))
  in
  let out, reports = compress_blocks ~sort ~block_size ~jobs input in
  ( out,
    List.mapi
      (fun index (length, path) -> { index; length; path })
      (Array.to_list reports) )

let compress ?(block_size = default_block_size) ?(jobs = 1) input =
  let sort ~arena data ~off ~len =
    Obs.with_span "bwt.sort" ~attrs:[ ("bytes", string_of_int len) ]
    @@ fun () -> (Bwt.sort_rotations_sub ~arena data ~off ~len, ())
  in
  fst (compress_blocks ~sort ~block_size ~jobs input)

(* Reference compression path: sequential, one whole-block [Bytes.sub]
   per block, fresh allocations in every stage via the public per-stage
   APIs, and the victim-model sorter.  Not used in production — retained
   so the differential tests can pin the arena/slice pipeline above, and
   the production sorter, to byte-identical output. *)
let compress_ref ?(block_size = default_block_size) input =
  check_block_size block_size;
  let data = Rle1.encode input in
  let n = Bytes.length data in
  let w = Bitio.Writer.create () in
  String.iter
    (fun c -> Bitio.Writer.add_bits_msb w ~value:(Char.code c) ~count:8)
    magic;
  let n_blocks = (n + block_size - 1) / block_size in
  for index = 0 to n_blocks - 1 do
    let pos = index * block_size in
    let block = Bytes.sub data pos (min block_size (n - pos)) in
    let full_block = Bytes.length block = block_size in
    let perm, _ = Block_sort.block_sort ~full_block block in
    let last, primary = Bwt.transform_with ~perm block in
    let symbols = Rle2.encode (Mtf.encode last) in
    Arena.with_arena (fun arena ->
        write_block_body w ~arena ~primary ~len:(Bytes.length block) symbols
          ~n_syms:(Array.length symbols))
  done;
  Bitio.Writer.add_bits_msb w ~value:end_marker ~count:8;
  Bitio.Writer.to_bytes w

let decompress_result data =
  let r = Bitio.Reader.create data in
  Codec_error.protect ~codec:"bzip2"
    ~offset:(fun () -> Bitio.Reader.byte_position r)
  @@ fun () ->
  String.iter
    (fun c ->
      if Bitio.Reader.read_bits_msb r 8 <> Char.code c then
        failwith "Bzip2.decompress: bad magic")
    magic;
  let out = Buffer.create (Bytes.length data * 2) in
  let rec blocks () =
    match Bitio.Reader.read_bits_msb r 8 with
    | m when m = end_marker -> ()
    | m when m = block_marker ->
        let len = read_u32 r in
        if len > max_block_size then
          failwith "Bzip2.decompress: block length exceeds maximum";
        let primary = read_u32 r in
        let n_groups = Bitio.Reader.read_bits_msb r 3 in
        if n_groups < 2 || n_groups > 6 then
          failwith "Bzip2.decompress: bad table count";
        let n_selectors = Bitio.Reader.read_bits_msb r 15 in
        let selectors = read_selectors r ~n_groups ~count:n_selectors in
        (* Explicit in-order loop: each table read advances the reader. *)
        let decoders =
          Array.make n_groups (Huffman.decoder_of_lengths [||])
        in
        for t = 0 to n_groups - 1 do
          let lengths = Huffman.read_lengths r in
          if Array.length lengths <> Rle2.alphabet_size then
            failwith "Bzip2.decompress: bad table";
          decoders.(t) <- Huffman.decoder_of_lengths lengths
        done;
        (* A well-formed block has at most [len + 2] symbols, and every
           symbol costs at least one bit; a run needs room for a whole
           group past them, and the buffer doubles if a malformed block
           goes on. *)
        let symbols =
          ref
            (Array.make
               (min (len + 2) (Bitio.Reader.bits_remaining r) + group_size)
               0)
        in
        (* One run of up to [group_size] symbols per selector, ending
           early at the end-of-block symbol. *)
        let count = ref 0 and group = ref 0 and finished = ref false in
        while not !finished do
          if !group >= n_selectors then
            failwith "Bzip2.decompress: selectors exhausted";
          let decoder = decoders.(selectors.(!group)) in
          incr group;
          if !count + group_size > Array.length !symbols then begin
            let grown = Array.make (2 * (!count + group_size)) 0 in
            Array.blit !symbols 0 grown 0 !count;
            symbols := grown
          end;
          count :=
            !count
            + Huffman.read_symbols r decoder !symbols ~at:!count
                ~count:group_size ~stop:Rle2.eob;
          if !symbols.(!count - 1) = Rle2.eob then finished := true
        done;
        (* The decoded block must come out exactly [len] bytes, so [len]
           also caps the zero-run expansion. *)
        let mtf = Rle2.decode ~max_output:len ~len:!count !symbols in
        let last = Mtf.decode mtf in
        if Bytes.length last <> len then
          failwith "Bzip2.decompress: length mismatch";
        Buffer.add_bytes out (Bwt.inverse last primary);
        blocks ()
    | _ -> failwith "Bzip2.decompress: bad block marker"
  in
  blocks ();
  Rle1.decode (Buffer.to_bytes out)

let decompress data = Codec_error.unwrap (decompress_result data)
