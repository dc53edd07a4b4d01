(* Bit I/O on the zero-copy substrate.  Writers emit into a growable
   bigstring (off-heap, no [Buffer] re-allocation churn) and splice
   aligned streams with a single word-at-a-time blit; readers stay
   zero-copy over the caller's [bytes] and gather up to eight bytes per
   call with one unaligned 64-bit load.  The produced byte streams and
   every observable reader state (values, [Out_of_bits] positions) are
   bit-identical to [Bitio_ref], the retained reference implementation
   the differential suite pins this module against. *)

module Bigstring = Zipchannel_buf.Bigstring

(* Each byte with its bits reversed. *)
let rev8 =
  String.init 256 (fun b ->
      let r = ref 0 in
      for k = 0 to 7 do
        if b land (1 lsl k) <> 0 then r := !r lor (1 lsl (7 - k))
      done;
      Char.chr !r)

let[@inline] rev_byte v = Char.code (String.unsafe_get rev8 (v land 0xff))

(* The low [n] (0..30) bits of [v], reversed, one table lookup per
   byte. *)
let reverse v n =
  if n <= 16 then ((rev_byte v lsl 8) lor rev_byte (v lsr 8)) lsr (16 - n)
  else
    ((rev_byte v lsl 24)
    lor (rev_byte (v lsr 8) lsl 16)
    lor (rev_byte (v lsr 16) lsl 8)
    lor rev_byte (v lsr 24))
    lsr (32 - n)

module Writer = struct
  type t = {
    mutable data : Bigstring.t;
    mutable len : int; (* whole bytes emitted *)
    mutable acc : int; (* pending bits, right-aligned, MSB emitted first *)
    mutable nbits : int; (* number of pending bits, 0..7 between calls *)
  }

  let create () = { data = Bigstring.create 256; len = 0; acc = 0; nbits = 0 }

  let ensure t extra =
    let need = t.len + extra in
    let cap = Bigstring.length t.data in
    if need > cap then begin
      let cap' = ref (max 256 (2 * cap)) in
      while !cap' < need do cap' := !cap' * 2 done;
      let d = Bigstring.create !cap' in
      Bigstring.blit t.data ~src_off:0 d ~dst_off:0 ~len:t.len;
      t.data <- d
    end

  (* Emit every whole byte held in [acc], leaving 0..7 pending bits.
     Callers add at most 30 bits, so at most 4 bytes spill per call. *)
  let flush_whole_bytes t =
    if t.nbits >= 8 then begin
      ensure t 8;
      while t.nbits >= 8 do
        Bigstring.unsafe_set t.data t.len
          (Char.unsafe_chr ((t.acc lsr (t.nbits - 8)) land 0xff));
        t.len <- t.len + 1;
        t.nbits <- t.nbits - 8
      done;
      t.acc <- t.acc land ((1 lsl t.nbits) - 1)
    end

  let add_bit t b =
    t.acc <- (t.acc lsl 1) lor (if b then 1 else 0);
    t.nbits <- t.nbits + 1;
    if t.nbits = 8 then begin
      ensure t 1;
      Bigstring.unsafe_set t.data t.len (Char.unsafe_chr t.acc);
      t.len <- t.len + 1;
      t.acc <- 0;
      t.nbits <- 0
    end

  let add_bits_msb t ~value ~count =
    if count < 0 || count > 30 then invalid_arg "Bitio.add_bits_msb: count";
    if value lsr count <> 0 then invalid_arg "Bitio.add_bits_msb: value too wide";
    t.acc <- (t.acc lsl count) lor value;
    t.nbits <- t.nbits + count;
    flush_whole_bytes t

  let add_bits_lsb t ~value ~count =
    if count < 0 || count > 30 then invalid_arg "Bitio.add_bits_lsb: count";
    if value lsr count <> 0 then invalid_arg "Bitio.add_bits_lsb: value too wide";
    (* Reverse the [count] bits, then append MSB-first. *)
    t.acc <- (t.acc lsl count) lor reverse value count;
    t.nbits <- t.nbits + count;
    flush_whole_bytes t

  let align_byte t =
    if t.nbits <> 0 then begin
      ensure t 1;
      Bigstring.unsafe_set t.data t.len
        (Char.unsafe_chr (t.acc lsl (8 - t.nbits)));
      t.len <- t.len + 1;
      t.acc <- 0;
      t.nbits <- 0
    end

  let bit_length t = (8 * t.len) + t.nbits

  let append t src =
    (* Append every bit of [src] (which stays usable) to [t].  With [t]
       byte-aligned this is one block blit.  Otherwise the [k] pending
       bits of [t] sit above the next 6 source bytes, read with one
       big-endian 8-byte load inside [src]'s bytes, and 6 bytes go out
       with one 8-byte store, whose last 2 bytes the next store
       overwrites; the last few source bytes go one at a time. *)
    if t.nbits = 0 then begin
      ensure t src.len;
      Bigstring.blit src.data ~src_off:0 t.data ~dst_off:t.len ~len:src.len;
      t.len <- t.len + src.len
    end
    else begin
      ensure t (src.len + 8);
      let k = t.nbits and dst = t.data in
      let acc = ref t.acc and pos = ref t.len and i = ref 0 in
      while !i + 8 <= src.len do
        let w = Bigstring.bswap64 (Bigstring.get64u src.data !i) in
        acc := (!acc lsl 48) lor Int64.to_int (Int64.shift_right_logical w 16);
        Bigstring.set64u dst !pos
          (Bigstring.bswap64 (Int64.shift_left (Int64.of_int (!acc lsr k)) 16));
        pos := !pos + 6;
        i := !i + 6
      done;
      t.acc <- !acc land ((1 lsl k) - 1);
      t.len <- !pos;
      for j = !i to src.len - 1 do
        add_bits_msb t
          ~value:(Char.code (Bigstring.unsafe_get src.data j))
          ~count:8
      done
    end;
    if src.nbits > 0 then add_bits_msb t ~value:src.acc ~count:src.nbits

  let to_bytes t =
    if t.nbits = 0 then Bigstring.to_bytes t.data ~off:0 ~len:t.len
    else begin
      let b = Bytes.create (t.len + 1) in
      Bigstring.blit_to_bytes t.data ~src_off:0 b ~dst_off:0 ~len:t.len;
      Bytes.set b t.len (Char.chr (t.acc lsl (8 - t.nbits)));
      b
    end
end

module Lsb_writer = struct
  type t = {
    mutable data : Bigstring.t;
    mutable len : int;
    mutable acc : int; (* pending bits, bit 0 = next stream position *)
    mutable nbits : int;
  }

  let create () = { data = Bigstring.create 256; len = 0; acc = 0; nbits = 0 }

  let ensure t extra =
    let need = t.len + extra in
    let cap = Bigstring.length t.data in
    if need > cap then begin
      let cap' = ref (max 256 (2 * cap)) in
      while !cap' < need do cap' := !cap' * 2 done;
      let d = Bigstring.create !cap' in
      Bigstring.blit t.data ~src_off:0 d ~dst_off:0 ~len:t.len;
      t.data <- d
    end

  let flush_bytes t =
    if t.nbits >= 8 then begin
      ensure t 8;
      while t.nbits >= 8 do
        Bigstring.unsafe_set t.data t.len (Char.unsafe_chr (t.acc land 0xff));
        t.len <- t.len + 1;
        t.acc <- t.acc lsr 8;
        t.nbits <- t.nbits - 8
      done
    end

  let add_bits t ~value ~count =
    if count < 0 || count > 24 then invalid_arg "Bitio.Lsb_writer.add_bits: count";
    if value lsr count <> 0 then
      invalid_arg "Bitio.Lsb_writer.add_bits: value too wide";
    t.acc <- t.acc lor (value lsl t.nbits);
    t.nbits <- t.nbits + count;
    flush_bytes t

  let align_byte t =
    if t.nbits > 0 then begin
      ensure t 1;
      Bigstring.unsafe_set t.data t.len (Char.unsafe_chr (t.acc land 0xff));
      t.len <- t.len + 1;
      t.acc <- 0;
      t.nbits <- 0
    end

  let to_bytes t =
    if t.nbits = 0 then Bigstring.to_bytes t.data ~off:0 ~len:t.len
    else begin
      let b = Bytes.create (t.len + 1) in
      Bigstring.blit_to_bytes t.data ~src_off:0 b ~dst_off:0 ~len:t.len;
      Bytes.set b t.len (Char.chr (t.acc land 0xff));
      b
    end
end

module Lsb_reader = struct
  (* Zero-copy over the caller's buffer: [limit] is the first bit past
     the readable slice, so [create ~start ~len] reads exactly the bits
     of [Bytes.sub data start len] without the copy. *)
  type t = { data : bytes; mutable pos : int; limit : int (* bits *) }

  exception Out_of_bits

  let create ?(start = 0) ?len data =
    if start < 0 then invalid_arg "Bitio.Lsb_reader.create: start";
    let n = Bytes.length data in
    let len =
      match len with
      | None -> max 0 (n - start)
      | Some l ->
          if l < 0 || start + l > n then
            invalid_arg "Bitio.Lsb_reader.create: len";
          l
    in
    { data; pos = 8 * start; limit = 8 * (start + len) }

  let read_bit t =
    if t.pos >= t.limit then raise Out_of_bits;
    let byte = Char.code (Bytes.unsafe_get t.data (t.pos lsr 3)) in
    let bit = (byte lsr (t.pos land 7)) land 1 in
    t.pos <- t.pos + 1;
    bit = 1

  let[@inline never] gather_tail t count =
    let byte0 = t.pos lsr 3 and bit = t.pos land 7 in
    let nbytes = (bit + count + 7) lsr 3 in
    let w = ref 0 in
    for k = nbytes - 1 downto 0 do
      w := (!w lsl 8) lor Char.code (Bytes.unsafe_get t.data (byte0 + k))
    done;
    (!w lsr bit) land ((1 lsl count) - 1)

  (* The [count] (0..24) bits at [pos], which the caller has checked lie
     inside [limit]. *)
  let[@inline] gather t count =
    let byte0 = t.pos lsr 3 in
    if byte0 + 8 <= Bytes.length t.data then
      (* One unaligned little-endian load covers the 0..31 bits needed;
         bits past the slice are shifted or masked away. *)
      Int64.to_int
        (Int64.shift_right_logical
           (Bigstring.bytes_get64u t.data byte0)
           (t.pos land 7))
      land ((1 lsl count) - 1)
    else gather_tail t count

  let read_bits t count =
    if count < 0 || count > 24 then invalid_arg "Bitio.Lsb_reader.read_bits";
    if count = 0 then 0
    else begin
      if t.pos + count > t.limit then begin
        (* The per-bit reference consumed every remaining bit before
           noticing the shortfall; preserve that observable position. *)
        t.pos <- t.limit;
        raise Out_of_bits
      end;
      let v = gather t count in
      t.pos <- t.pos + count;
      v
    end

  (* Later stream bits are the value's higher bits, so the bits past
     [limit] that a short peek lacks are already the zero padding. *)
  let[@inline never] peek_short t =
    let avail = t.limit - t.pos in
    if avail <= 0 then 0 else gather_tail t avail

  let[@inline] peek t count =
    if count < 0 || count > 15 then invalid_arg "Bitio.Lsb_reader.peek";
    if t.limit - t.pos >= count then gather t count else peek_short t

  let[@inline] skip t count =
    if count < 0 then invalid_arg "Bitio.Lsb_reader.skip";
    if t.pos + count > t.limit then begin
      t.pos <- t.limit;
      raise Out_of_bits
    end;
    t.pos <- t.pos + count

  let align_byte t = if t.pos land 7 <> 0 then t.pos <- (t.pos lor 7) + 1

  let byte_position t = t.pos lsr 3

  let bits_remaining t = max 0 (t.limit - t.pos)
end

module Reader = struct
  type t = { data : bytes; mutable pos : int; limit : int (* bits *) }

  exception Out_of_bits

  let create ?(start = 0) ?len data =
    if start < 0 then invalid_arg "Bitio.Reader.create: start";
    let n = Bytes.length data in
    let len =
      match len with
      | None -> max 0 (n - start)
      | Some l ->
          if l < 0 || start + l > n then invalid_arg "Bitio.Reader.create: len";
          l
    in
    { data; pos = 8 * start; limit = 8 * (start + len) }

  let read_bit t =
    if t.pos >= t.limit then raise Out_of_bits;
    let byte = Char.code (Bytes.unsafe_get t.data (t.pos lsr 3)) in
    let bit = (byte lsr (7 - (t.pos land 7))) land 1 in
    t.pos <- t.pos + 1;
    bit = 1

  let[@inline never] gather_tail t count =
    let byte0 = t.pos lsr 3 and bit = t.pos land 7 in
    let nbytes = (bit + count + 7) lsr 3 in
    let w = ref 0 in
    for k = 0 to nbytes - 1 do
      w := (!w lsl 8) lor Char.code (Bytes.unsafe_get t.data (byte0 + k))
    done;
    (!w lsr ((8 * nbytes) - bit - count)) land ((1 lsl count) - 1)

  (* The [count] (0..30) bits at [pos], which the caller has checked lie
     inside [limit]. *)
  let[@inline] gather t count =
    let byte0 = t.pos lsr 3 in
    if byte0 + 8 <= Bytes.length t.data then
      (* One unaligned load, byte-swapped so the first byte in memory
         is most significant, mirroring the MSB-first stream order. *)
      let w = Bigstring.bswap64 (Bigstring.bytes_get64u t.data byte0) in
      Int64.to_int (Int64.shift_right_logical w (64 - (t.pos land 7) - count))
      land ((1 lsl count) - 1)
    else gather_tail t count

  let read_bits_msb t count =
    if count < 0 || count > 30 then invalid_arg "Bitio.read_bits_msb: count";
    if count = 0 then 0
    else begin
      if t.pos + count > t.limit then begin
        t.pos <- t.limit;
        raise Out_of_bits
      end;
      let v = gather t count in
      t.pos <- t.pos + count;
      v
    end

  (* A short peek gathers the bits that are left and shifts them up,
     leaving the zero padding below. *)
  let[@inline never] peek_short t count =
    let avail = t.limit - t.pos in
    if avail <= 0 then 0 else gather_tail t avail lsl (count - avail)

  let[@inline] peek t count =
    if count < 0 || count > 15 then invalid_arg "Bitio.Reader.peek";
    if t.limit - t.pos >= count then gather t count else peek_short t count

  let[@inline] skip t count =
    if count < 0 then invalid_arg "Bitio.Reader.skip";
    if t.pos + count > t.limit then begin
      t.pos <- t.limit;
      raise Out_of_bits
    end;
    t.pos <- t.pos + count

  let read_bits_lsb t count =
    if count < 0 || count > 30 then invalid_arg "Bitio.read_bits_lsb: count";
    (* Stream order is the same as [read_bits_msb]; only the assembly order
       of the result differs, so gather then bit-reverse. *)
    reverse (read_bits_msb t count) count

  let align_byte t = if t.pos land 7 <> 0 then t.pos <- (t.pos lor 7) + 1

  let bits_remaining t = max 0 (t.limit - t.pos)

  let byte_position t = t.pos lsr 3
end
