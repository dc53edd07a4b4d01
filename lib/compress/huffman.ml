type code = { length : int; bits : int }

(* The tree is built with a binary min-heap holding one packed int per
   slot, [(weight lsl shift) lor node], so an entry is one load and no
   pair is boxed.  The heap orders by weight alone, and the order in
   which equal weights pop — hence which of several optimal trees is
   built, and the code lengths every format serializes — follows from
   the exact sequence of sift comparisons.  test/oracles.ml keeps a heap
   of boxed tuples with that sequence as the reference; moving a hole
   instead of swapping makes the same comparisons and ends in the same
   array.  Every comparison shifts the node bits out first, so equal
   weights compare equal as they did in the tuples.

   The sifts are plain functions over the caller's scratch array: no
   closure holds the heap size, so it stays in a register.  Sifting down
   picks the lighter child with a sign mask, the left one on ties, and
   then compares it with the entry: the same outcome as comparing the
   left child and then the right one with the lightest so far, with no
   branch on the children.  A sentinel of the greatest weight at
   [heap.(size)] stands in for a missing right child. *)
let scratch_size n = (3 * n) + 1

(* Entry [e] enters at slot [i] and rises past heavier parents. *)
let sift_up heap ~shift i e =
  let w = e lsr shift in
  let i = ref i in
  while !i > 0 && Array.unsafe_get heap ((!i - 1) lsr 1) lsr shift > w do
    let p = (!i - 1) lsr 1 in
    Array.unsafe_set heap !i (Array.unsafe_get heap p);
    i := p
  done;
  Array.unsafe_set heap !i e

(* Entry [e] enters at the root of a heap of [size] and sinks below
   lighter children. *)
let sift_down heap ~shift size e =
  let w = e lsr shift in
  Array.unsafe_set heap size max_int;
  let i = ref 0 and l = ref 1 in
  while !l < size do
    let l' = !l in
    let wl = Array.unsafe_get heap l' lsr shift in
    let d = (Array.unsafe_get heap (l' + 1) lsr shift) - wl in
    let m = d asr 62 in
    if wl + (d land m) < w then begin
      let c = l' - m in
      Array.unsafe_set heap !i (Array.unsafe_get heap c);
      i := c;
      l := (2 * c) + 1
    end
    else l := size
  done;
  Array.unsafe_set heap !i e

let lengths_of_freqs_into ?(max_length = 15) freqs ~off ~len:n ~scratch
    ~lengths =
  if
    off < 0 || n < 0
    || off + n > Array.length freqs
    || off + n > Array.length lengths
  then invalid_arg "Huffman.lengths_of_freqs_into: range";
  if Array.length scratch < scratch_size n then
    invalid_arg "Huffman.lengths_of_freqs_into: scratch";
  let used = ref 0 and total = ref 0 in
  for s = off to off + n - 1 do
    let f = freqs.(s) in
    if f > 0 then begin
      incr used;
      total := !total + f
    end
  done;
  if !used > 1 lsl max_length then
    invalid_arg "Huffman.lengths_of_freqs: too many symbols for max_length";
  Array.fill lengths off n 0;
  if !used = 1 then begin
    for s = off to off + n - 1 do
      if freqs.(s) > 0 then lengths.(s) <- 1
    done
  end
  else if !used > 1 then begin
    (* Node ids stay below [2n]. *)
    let shift = ref 1 in
    while 1 lsl !shift < 2 * n do incr shift done;
    let shift = !shift in
    if !total >= 1 lsl (62 - shift) then
      invalid_arg "Huffman.lengths_of_freqs: frequencies too large";
    let node_mask = (1 lsl shift) - 1 in
    (* The heap is [scratch.(0 .. used)]: at most [used] entries are ever
       live (each merge pops two and pushes one), plus the sentinel.
       Node [v]'s parent is [scratch.(tree + v)]. *)
    let heap = scratch and tree = n + 1 in
    let size = ref 0 in
    for s = 0 to n - 1 do
      let f = freqs.(off + s) in
      if f > 0 then begin
        sift_up heap ~shift !size ((f lsl shift) lor s);
        incr size
      end
    done;
    (* Internal tree nodes are numbered from [n]; each node's parent has
       a larger number. *)
    Array.fill scratch tree (2 * n) (-1);
    let next = ref n in
    while !size > 1 do
      let e1 = heap.(0) in
      decr size;
      sift_down heap ~shift !size heap.(!size);
      let e2 = heap.(0) in
      decr size;
      sift_down heap ~shift !size heap.(!size);
      scratch.(tree + (e1 land node_mask)) <- !next;
      scratch.(tree + (e2 land node_mask)) <- !next;
      sift_up heap ~shift !size
        ((((e1 lsr shift) + (e2 lsr shift)) lsl shift) lor !next);
      incr size;
      incr next
    done;
    (* Depths top-down, in place of the parent links: a node's parent is
       numbered above it, so walking the numbers downwards meets every
       parent first, and the root (no parent) has depth 0. *)
    for v = !next - 1 downto 0 do
      let p = scratch.(tree + v) in
      scratch.(tree + v) <- (if p >= 0 then scratch.(tree + p) + 1 else 0)
    done;
    let deepest = ref 0 in
    for s = 0 to n - 1 do
      if freqs.(off + s) > 0 then begin
        let d = scratch.(tree + s) in
        lengths.(off + s) <- d;
        if d > !deepest then deepest := d
      end
    done;
    (* Within [max_length] the Kraft sum is already exact and the re-deal
       below would hand every symbol back its own length. *)
    if !deepest > max_length then begin
      (* Overflow repair (zlib-style): cap lengths at [max_length] and
         restore the Kraft equality by demoting codes from shorter
         levels. *)
      let bl_count = Array.make (max_length + 1) 0 in
      for s = off to off + n - 1 do
        let l = lengths.(s) in
        if l > 0 then begin
          let l = min l max_length in
          bl_count.(l) <- bl_count.(l) + 1
        end
      done;
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
      for s = off to off + n - 1 do
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
    end
  end

let lengths_of_freqs ?max_length freqs =
  let n = Array.length freqs in
  let lengths = Array.make n 0 in
  lengths_of_freqs_into ?max_length freqs ~off:0 ~len:n
    ~scratch:(Array.make (scratch_size n) 0)
    ~lengths;
  lengths

(* Canonical codes of [lengths.(off .. off + len - 1)], packed as
   [(bits lsl 4) lor length] into [codes.(off .. off + len - 1)], 0 for
   a symbol without a code. *)
let packed_codes_into lengths ~off ~len codes =
  if off < 0 || len < 0 || off + len > Array.length lengths
     || off + len > Array.length codes
  then invalid_arg "Huffman.packed_codes_into: range";
  let bl_count = Array.make 17 0 in
  for s = off to off + len - 1 do
    let l = lengths.(s) in
    if l > 15 then invalid_arg "Huffman.canonical_codes: length above 15";
    if l > 0 then bl_count.(l) <- bl_count.(l) + 1
  done;
  (* [bl_count.(l)] becomes the next code of length [l]. *)
  let code = ref 0 in
  for l = 1 to 16 do
    let count = bl_count.(l) in
    bl_count.(l) <- !code;
    code := (!code + count) lsl 1
  done;
  (* Oversubscription check: after assigning all codes of length l the
     running code must fit in l bits. *)
  for s = off to off + len - 1 do
    let l = lengths.(s) in
    if l > 0 then begin
      let bits = bl_count.(l) in
      if bits lsr l <> 0 then
        invalid_arg "Huffman.canonical_codes: oversubscribed lengths";
      codes.(s) <- (bits lsl 4) lor l;
      bl_count.(l) <- bits + 1
    end
    else codes.(s) <- 0
  done

let canonical_codes lengths =
  let n = Array.length lengths in
  let packed = Array.make n 0 in
  packed_codes_into lengths ~off:0 ~len:n packed;
  Array.map (fun c -> { length = c land 15; bits = c lsr 4 }) packed

let write_lengths ?(off = 0) ?len w lengths =
  let len = match len with Some n -> n | None -> Array.length lengths - off in
  if off < 0 || len < 0 || off + len > Array.length lengths then
    invalid_arg "Huffman.write_lengths: range";
  Bitio.Writer.add_bits_msb w ~value:len ~count:16;
  for s = off to off + len - 1 do
    let l = lengths.(s) in
    if l < 0 || l > 15 then invalid_arg "Huffman.write_lengths: length";
    Bitio.Writer.add_bits_msb w ~value:l ~count:4
  done

(* Explicit in-order loop: [Array.init] does not guarantee the order it
   applies the closure in, and each application advances the bit reader. *)
let read_lengths r =
  let n = Bitio.Reader.read_bits_msb r 16 in
  let lengths = Array.make n 0 in
  for i = 0 to n - 1 do
    lengths.(i) <- Bitio.Reader.read_bits_msb r 4
  done;
  lengths

let no_code = "Huffman.write_symbol: symbol has no code"

let write_symbol w codes sym =
  let c = codes.(sym) in
  if c.length = 0 then invalid_arg no_code;
  Bitio.Writer.add_bits_msb w ~value:c.bits ~count:c.length

module Bigstring = Zipchannel_buf.Bigstring

(* {!write_symbol} for [symbols.(off .. off + len - 1)], with the
   writer's bit buffer in local variables: no call per symbol.  [acc]'s
   low [nbits] bits are pending, first bit most significant; at 48 or
   more, the top 48 of them go out with one big-endian 8-byte store
   whose last 2 bytes the next store overwrites.  Each code has at most
   15 bits, so [nbits] stays below 63 and the output below [2 len + 1]
   bytes.  A symbol without a code stops the run after the symbols
   before it are written, as {!write_symbol} fails. *)
let write_symbols (w : Bitio.Writer.t) codes ~base symbols ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length symbols then
    invalid_arg "Huffman.write_symbols: range";
  Bitio.Writer.ensure w ((2 * len) + 8);
  let data = w.data in
  let acc = ref w.acc and nbits = ref w.nbits and pos = ref w.len in
  let k = ref off and stop = ref (off + len) in
  while !k < !stop do
    let c = codes.(base + Array.unsafe_get symbols !k) in
    let l = c land 15 in
    if l = 0 then stop := !k
    else begin
      acc := (!acc lsl l) lor (c lsr 4);
      nbits := !nbits + l;
      if !nbits >= 48 then begin
        nbits := !nbits - 48;
        Bigstring.set64u data !pos
          (Bigstring.bswap64
             (Int64.shift_left (Int64.of_int (!acc lsr !nbits)) 16));
        pos := !pos + 6
      end;
      incr k
    end
  done;
  while !nbits >= 8 do
    nbits := !nbits - 8;
    Bigstring.unsafe_set data !pos
      (Char.unsafe_chr ((!acc lsr !nbits) land 0xff));
    incr pos
  done;
  w.len <- !pos;
  w.nbits <- !nbits;
  w.acc <- !acc land ((1 lsl !nbits) - 1);
  if !k < off + len then invalid_arg no_code

(* Table-driven decoding in the style of zlib's inflate_fast.  A lookup
   peeks [max_len] bits, zero-padded past the end of the stream, and
   indexes a root table with the first [root] of them ([root] is
   [root_bits], or [max_len] when every code is shorter).  A code of up
   to [root] bits fills every root entry its bits prefix; a longer
   code's root prefix links to a second-level table indexed by the next
   [width] bits, where [width] is the longest such code's length minus
   [root].

   Entries are unboxed ints: 0 when no code starts with these bits,
   [(symbol lsl 5) lor length] for a code (length 1..15), and
   [(offset lsl 5) lor 16 lor width] for a link to the second-level
   table at [offset] in the same array. *)
let root_bits = 10

let max_code_length = 15

type decoder = {
  max_len : int;
  sub_bits : int; (* peeked bits below the root index: [max_len - root] *)
  table : int array;
}

(* Canonical codes as {!canonical_codes} assigns them, except that
   oversubscribed lengths are accepted: a code that does not fit in its
   length can never be read, and the others still form a prefix code,
   because each length's codes start past every shorter code's
   extension.  So the table holds exactly the symbols a bit-serial
   canonical decoder can reach, at the same bits.

   With [lsb], each level is indexed by its bits in stream order, first
   bit lowest, as zlib builds its inflate tables: RFC 1951's LSB-first
   peek then indexes it with no bit reversal per symbol.  An entry's
   index is its MSB-first index reversed, so a code's entries are the
   ones whose low bits are the code reversed. *)
let table_of_lengths ~lsb lengths =
  let n = Array.length lengths in
  let max_len = ref 0 in
  for s = 0 to n - 1 do
    if lengths.(s) > !max_len then max_len := lengths.(s)
  done;
  let max_len = !max_len in
  if max_len > max_code_length then
    invalid_arg "Huffman.decoder_of_lengths: length";
  let root = min root_bits max_len in
  let counts = Array.make (max_len + 1) 0 in
  for s = 0 to n - 1 do
    let l = lengths.(s) in
    if l > 0 then counts.(l) <- counts.(l) + 1
  done;
  let next_code = Array.make (max_len + 1) 0 in
  for l = 1 to max_len do
    next_code.(l) <- (next_code.(l - 1) + counts.(l - 1)) lsl 1
  done;
  (* -1 marks a symbol without a readable code.  [width] is the
     second-level width under each root index, 0 when it has none. *)
  let codes = Array.make n (-1) in
  let width = Bytes.make (1 lsl root) '\000' in
  let size = ref (1 lsl root) in
  for s = 0 to n - 1 do
    let l = lengths.(s) in
    if l > 0 then begin
      let c = next_code.(l) in
      next_code.(l) <- c + 1;
      if c lsr l = 0 then begin
        codes.(s) <- c;
        if l > root then begin
          let p = c lsr (l - root) and w = l - root in
          let old = Char.code (Bytes.get width p) in
          if w > old then begin
            size := !size + (1 lsl w) - (if old = 0 then 0 else 1 lsl old);
            Bytes.set width p (Char.chr w)
          end
        end
      end
    end
  done;
  let table = Array.make !size 0 in
  let index bits i = if lsb then Bitio.reverse i bits else i in
  let next = ref (1 lsl root) in
  for p = 0 to (1 lsl root) - 1 do
    let w = Char.code (Bytes.unsafe_get width p) in
    if w > 0 then begin
      table.(index root p) <- (!next lsl 5) lor 16 lor w;
      next := !next + (1 lsl w)
    end
  done;
  (* Every entry of the [bits]-bit level at [at] whose first [len] bits
     are [code]. *)
  let fill at ~bits ~code ~len leaf =
    if lsb then begin
      let rc = Bitio.reverse code len in
      for k = 0 to (1 lsl (bits - len)) - 1 do
        table.(at + rc + (k lsl len)) <- leaf
      done
    end
    else
      for i = code lsl (bits - len) to ((code + 1) lsl (bits - len)) - 1 do
        table.(at + i) <- leaf
      done
  in
  for s = 0 to n - 1 do
    let l = lengths.(s) and c = codes.(s) in
    if c >= 0 then begin
      let leaf = (s lsl 5) lor l in
      if l <= root then fill 0 ~bits:root ~code:c ~len:l leaf
      else begin
        let link = table.(index root (c lsr (l - root))) in
        fill (link lsr 5) ~bits:(link land 15)
          ~code:(c land ((1 lsl (l - root)) - 1))
          ~len:(l - root) leaf
      end
    end
  done;
  { max_len; sub_bits = max_len - root; table }

let decoder_of_lengths lengths = table_of_lengths ~lsb:false lengths

(* The entry for [bits], the next [max_len] stream bits, first bit most
   significant.  [bits] is below [2^max_len], so the root index is below
   [2^root] and a link's index stays inside its [2^width] entries. *)
let[@inline] entry d bits =
  let e = Array.unsafe_get d.table (bits lsr d.sub_bits) in
  if e land 16 = 0 then e
  else
    let w = e land 15 in
    Array.unsafe_get d.table
      ((e lsr 5) + ((bits lsr (d.sub_bits - w)) land ((1 lsl w) - 1)))

let invalid_code = "Huffman.read_symbol: invalid code"

(* The errors are those of a decoder that reads a code one bit at a
   time.  The zero padding of a peek past the end never decides a
   symbol: if the entry's code fits in the bits left, those bits alone
   select it, and if it does not, [skip] consumes what is left and
   raises [Out_of_bits], as running out mid-code did.  With no entry,
   no code starts with these bits: reading one bit at a time gave up
   after [max_len] bits, or ran out first. *)
let[@inline] read_symbol r d =
  let e = entry d (Bitio.Reader.peek r d.max_len) in
  let len = e land 15 in
  if len = 0 then begin
    Bitio.Reader.skip r d.max_len;
    failwith invalid_code
  end;
  Bitio.Reader.skip r len;
  e lsr 5

(* {!read_symbol} for up to [count] symbols, stored from [dst.(at)],
   with the bit buffer in local variables as zlib's inflate_fast keeps
   it: no call per symbol.  [hold]'s low [bits] bits are the next
   stream bits, first bit most significant; the bits above them are
   already consumed.  Below 15 bits, the longest code, the next 6 bytes
   of one big-endian 8-byte load inside the reader's slice top it up,
   so every lookup here reads real stream bits.  The last 8 bytes of
   the slice and a code the table lacks go to the tail: [read_symbol]
   per symbol, from the first undecoded one, whose errors and reader
   positions are the contract.  Stops after [stop]; returns the number
   of symbols stored. *)
let read_symbols (r : Bitio.Reader.t) d dst ~at ~count ~stop =
  let data = r.data and table = d.table in
  let root = d.max_len - d.sub_bits in
  let root_mask = (1 lsl root) - 1 in
  let last = (r.limit lsr 3) - 8 in
  let p0 = r.pos in
  let pos = ref (p0 lsr 3) and hold = ref 0 and bits = ref 0 in
  if p0 land 7 <> 0 then begin
    hold := Char.code (Bytes.unsafe_get data !pos);
    bits := 8 - (p0 land 7);
    incr pos
  end;
  (* [finish] drops to [i] to leave the loop. *)
  let i = ref at and finish = ref (at + count) in
  while !i < !finish do
    if !bits < max_code_length && !pos > last then finish := !i
    else begin
      if !bits < max_code_length then begin
        let w = Bigstring.bswap64 (Bigstring.bytes_get64u data !pos) in
        hold := (!hold lsl 48) lor Int64.to_int (Int64.shift_right_logical w 16);
        pos := !pos + 6;
        bits := !bits + 48
      end;
      let e = Array.unsafe_get table ((!hold lsr (!bits - root)) land root_mask) in
      let e =
        if e land 16 = 0 then e
        else
          let w = e land 15 in
          Array.unsafe_get table
            ((e lsr 5) + ((!hold lsr (!bits - root - w)) land ((1 lsl w) - 1)))
      in
      let len = e land 15 in
      if len = 0 then finish := !i
      else begin
        bits := !bits - len;
        let s = e lsr 5 in
        Array.unsafe_set dst !i s;
        incr i;
        if s = stop then finish := !i
      end
    end
  done;
  r.pos <- (8 * !pos) - !bits;
  if !i = at || dst.(!i - 1) <> stop then begin
    finish := at + count;
    while !i < !finish do
      let s = read_symbol r d in
      dst.(!i) <- s;
      incr i;
      if s = stop then finish := !i
    done
  end;
  !i - at

(* RFC 1951 sends a Huffman code most significant bit first in its
   LSB-first stream, so a writer takes each code bit-reversed. *)
let lsb_codes lengths =
  Array.map
    (fun { length; bits } -> (Bitio.reverse bits length lsl 4) lor length)
    (canonical_codes lengths)

type lsb_decoder = Lsb of decoder [@@unboxed]

let lsb_decoder_of_lengths lengths = Lsb (table_of_lengths ~lsb:true lengths)

let lsb_table (Lsb d) = d.table

let lsb_root_bits (Lsb d) = d.max_len - d.sub_bits

(* {!read_symbol}'s entries, so its errors too: the peek's zero padding
   past the end sits in its high bits, the bits a code has not reached. *)
let[@inline] read_symbol_lsb r (Lsb d) =
  let bits = Bitio.Lsb_reader.peek r d.max_len in
  let root = d.max_len - d.sub_bits in
  let e = Array.unsafe_get d.table (bits land ((1 lsl root) - 1)) in
  let e =
    if e land 16 = 0 then e
    else
      Array.unsafe_get d.table
        ((e lsr 5) + ((bits lsr root) land ((1 lsl (e land 15)) - 1)))
  in
  let len = e land 15 in
  if len = 0 then begin
    Bitio.Lsb_reader.skip r d.max_len;
    failwith invalid_code
  end;
  Bitio.Lsb_reader.skip r len;
  e lsr 5

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
  (* Symbols come in runs of up to 512 through an int scratch, small
     beside the output; the table has 256 symbols, so each is a byte. *)
  let out = Bytes.create n in
  let run = Array.make (min n 512) 0 in
  let i = ref 0 in
  while !i < n do
    let count = min 512 (n - !i) in
    ignore (read_symbols r d run ~at:0 ~count ~stop:(-1));
    for k = 0 to count - 1 do
      Bytes.unsafe_set out (!i + k) (Char.unsafe_chr (Array.unsafe_get run k))
    done;
    i := !i + count
  done;
  out

let decode data = Codec_error.unwrap (decode_result data)
