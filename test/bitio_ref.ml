(* Reference bit I/O over [Buffer.t]/[bytes], retained verbatim when
   [Bitio] moved onto the bigstring substrate.  The differential suite
   cross-checks every [Bitio] operation against this module: same bytes
   out of the writers, same values and [Out_of_bits] positions out of
   the readers.  Not used by any production codec. *)

module Writer = struct
  type t = {
    buf : Buffer.t;
    mutable acc : int; (* pending bits, right-aligned, MSB emitted first *)
    mutable nbits : int; (* number of pending bits, 0..7 between calls *)
  }

  let create () = { buf = Buffer.create 256; acc = 0; nbits = 0 }

  (* Emit every whole byte held in [acc], leaving 0..7 pending bits. *)
  let flush_whole_bytes t =
    while t.nbits >= 8 do
      Buffer.add_char t.buf
        (Char.unsafe_chr ((t.acc lsr (t.nbits - 8)) land 0xff));
      t.nbits <- t.nbits - 8
    done;
    t.acc <- t.acc land ((1 lsl t.nbits) - 1)

  let add_bit t b =
    t.acc <- (t.acc lsl 1) lor (if b then 1 else 0);
    t.nbits <- t.nbits + 1;
    if t.nbits = 8 then begin
      Buffer.add_char t.buf (Char.unsafe_chr t.acc);
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
    let rev = ref 0 in
    let v = ref value in
    for _ = 1 to count do
      rev := (!rev lsl 1) lor (!v land 1);
      v := !v lsr 1
    done;
    t.acc <- (t.acc lsl count) lor !rev;
    t.nbits <- t.nbits + count;
    flush_whole_bytes t

  let align_byte t =
    if t.nbits <> 0 then begin
      Buffer.add_char t.buf (Char.unsafe_chr (t.acc lsl (8 - t.nbits)));
      t.acc <- 0;
      t.nbits <- 0
    end

  let bit_length t = (8 * Buffer.length t.buf) + t.nbits

  let append t src =
    (* Append every bit of [src] (which stays usable) to [t].  With [t]
       byte-aligned this is a plain buffer copy; otherwise each source
       byte is spliced in O(1). *)
    if t.nbits = 0 then Buffer.add_buffer t.buf src.buf
    else
      String.iter
        (fun c -> add_bits_msb t ~value:(Char.code c) ~count:8)
        (Buffer.contents src.buf);
    if src.nbits > 0 then add_bits_msb t ~value:src.acc ~count:src.nbits

  let to_bytes t =
    if t.nbits = 0 then Buffer.to_bytes t.buf
    else begin
      let b = Buffer.create (Buffer.length t.buf + 1) in
      Buffer.add_buffer b t.buf;
      Buffer.add_char b (Char.chr (t.acc lsl (8 - t.nbits)));
      Buffer.to_bytes b
    end
end

module Lsb_writer = struct
  type t = {
    buf : Buffer.t;
    mutable acc : int; (* pending bits, bit 0 = next stream position *)
    mutable nbits : int;
  }

  let create () = { buf = Buffer.create 256; acc = 0; nbits = 0 }

  let flush_bytes t =
    while t.nbits >= 8 do
      Buffer.add_char t.buf (Char.unsafe_chr (t.acc land 0xff));
      t.acc <- t.acc lsr 8;
      t.nbits <- t.nbits - 8
    done

  let add_bits t ~value ~count =
    if count < 0 || count > 24 then invalid_arg "Bitio.Lsb_writer.add_bits: count";
    if value lsr count <> 0 then
      invalid_arg "Bitio.Lsb_writer.add_bits: value too wide";
    t.acc <- t.acc lor (value lsl t.nbits);
    t.nbits <- t.nbits + count;
    flush_bytes t

  let align_byte t =
    if t.nbits > 0 then begin
      Buffer.add_char t.buf (Char.unsafe_chr (t.acc land 0xff));
      t.acc <- 0;
      t.nbits <- 0
    end

  let to_bytes t =
    if t.nbits = 0 then Buffer.to_bytes t.buf
    else begin
      let b = Buffer.create (Buffer.length t.buf + 1) in
      Buffer.add_buffer b t.buf;
      Buffer.add_char b (Char.chr (t.acc land 0xff));
      Buffer.to_bytes b
    end
end

module Lsb_reader = struct
  type t = { data : bytes; mutable pos : int }

  exception Out_of_bits

  let create ?(start = 0) data = { data; pos = 8 * start }

  let total_bits t = 8 * Bytes.length t.data

  let read_bit t =
    if t.pos >= total_bits t then raise Out_of_bits;
    let byte = Char.code (Bytes.unsafe_get t.data (t.pos lsr 3)) in
    let bit = (byte lsr (t.pos land 7)) land 1 in
    t.pos <- t.pos + 1;
    bit = 1

  let read_bits t count =
    if count < 0 || count > 24 then invalid_arg "Bitio.Lsb_reader.read_bits";
    if count = 0 then 0
    else begin
      let total = total_bits t in
      if t.pos + count > total then begin
        (* The per-bit reference consumed every remaining bit before
           noticing the shortfall; preserve that observable position. *)
        t.pos <- total;
        raise Out_of_bits
      end;
      let byte0 = t.pos lsr 3 and bit = t.pos land 7 in
      let nbytes = (bit + count + 7) lsr 3 in
      let w = ref 0 in
      for k = nbytes - 1 downto 0 do
        w := (!w lsl 8) lor Char.code (Bytes.unsafe_get t.data (byte0 + k))
      done;
      t.pos <- t.pos + count;
      (!w lsr bit) land ((1 lsl count) - 1)
    end

  let align_byte t = if t.pos land 7 <> 0 then t.pos <- (t.pos lor 7) + 1

  let byte_position t = t.pos lsr 3

  let bits_remaining t = max 0 (total_bits t - t.pos)
end

module Reader = struct
  type t = { data : bytes; mutable pos : int (* absolute bit position *) }

  exception Out_of_bits

  let create ?(start = 0) data = { data; pos = 8 * start }

  let total_bits t = 8 * Bytes.length t.data

  let read_bit t =
    if t.pos >= total_bits t then raise Out_of_bits;
    let byte = Char.code (Bytes.unsafe_get t.data (t.pos lsr 3)) in
    let bit = (byte lsr (7 - (t.pos land 7))) land 1 in
    t.pos <- t.pos + 1;
    bit = 1

  let read_bits_msb t count =
    if count < 0 || count > 30 then invalid_arg "Bitio.read_bits_msb: count";
    if count = 0 then 0
    else begin
      let total = total_bits t in
      if t.pos + count > total then begin
        t.pos <- total;
        raise Out_of_bits
      end;
      let byte0 = t.pos lsr 3 and bit = t.pos land 7 in
      let nbytes = (bit + count + 7) lsr 3 in
      let w = ref 0 in
      for k = 0 to nbytes - 1 do
        w := (!w lsl 8) lor Char.code (Bytes.unsafe_get t.data (byte0 + k))
      done;
      t.pos <- t.pos + count;
      (!w lsr ((8 * nbytes) - bit - count)) land ((1 lsl count) - 1)
    end

  let read_bits_lsb t count =
    if count < 0 || count > 30 then invalid_arg "Bitio.read_bits_lsb: count";
    (* Stream order is the same as [read_bits_msb]; only the assembly order
       of the result differs, so gather then bit-reverse. *)
    let msb = read_bits_msb t count in
    let v = ref 0 and m = ref msb in
    for _ = 1 to count do
      v := (!v lsl 1) lor (!m land 1);
      m := !m lsr 1
    done;
    !v

  let align_byte t = if t.pos land 7 <> 0 then t.pos <- (t.pos lor 7) + 1

  let bits_remaining t = max 0 (total_bits t - t.pos)

  let byte_position t = t.pos lsr 3
end
