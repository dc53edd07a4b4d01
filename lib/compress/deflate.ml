(* Decode error reasons keep the [Rfc1951.] prefix of the module the
   RFC 1951 codec once lived in: a {!Codec_error.t} reason is stable
   across releases. *)

(* RFC 1951 Section 3.2.5 tables. *)
let length_bases =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51; 59;
     67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let length_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4; 4;
     5; 5; 5; 5; 0 |]

let distance_bases =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385;
     513; 769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385;
     24577 |]

let distance_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10;
     10; 11; 11; 12; 12; 13; 13 |]

let end_of_block = 256

let litlen_alphabet = 286

let dist_alphabet = 30

(* The symbol of every match length, 0 below 3: each length symbol
   covers [2^extra] lengths from its base, and 258, which 284 could also
   reach, is 285's. *)
let length_syms =
  let t = Array.make 259 0 in
  Array.iteri
    (fun i base ->
      for len = base to min 258 (base + (1 lsl length_extra.(i)) - 1) do
        t.(len) <- 257 + i
      done)
    length_bases;
  t

(* zlib's two-level distance table: distances 1..256 index the low half
   directly, larger ones via [(dist - 1) lsr 7] — every RFC 1951 range
   past 256 is 128-aligned, so one entry per bucket pins the symbol. *)
let dist_syms =
  let t = Array.make 512 0 in
  Array.iteri
    (fun i base ->
      for dist = base to base + (1 lsl distance_extra.(i)) - 1 do
        if dist <= 256 then t.(dist - 1) <- i
        else t.(256 + ((dist - 1) lsr 7)) <- i
      done)
    distance_bases;
  t

(* The symbols of a length in 3..258 and a distance in 1..32768. *)
let[@inline] length_sym len = length_syms.(len)

let[@inline] distance_sym dist =
  if dist <= 256 then dist_syms.(dist - 1) else dist_syms.(256 + ((dist - 1) lsr 7))

let length_code len =
  if len < 3 || len > 258 then invalid_arg "Deflate.length_code";
  let sym = length_sym len in
  (sym, length_extra.(sym - 257), len - length_bases.(sym - 257))

let distance_code dist =
  if dist < 1 || dist > 32768 then invalid_arg "Deflate.distance_code";
  let sym = distance_sym dist in
  (sym, distance_extra.(sym), dist - distance_bases.(sym))

type block_kind = Stored | Fixed | Dynamic

(* Fixed-Huffman code lengths, RFC 1951 Section 3.2.6. *)
let fixed_litlen_lengths =
  Array.init 288 (fun s ->
      if s <= 143 then 8 else if s <= 255 then 9 else if s <= 279 then 7 else 8)

let fixed_dist_lengths = Array.make 30 5

(* Order in which code-length-code lengths appear in a dynamic header. *)
let cl_order =
  [| 16; 17; 18; 0; 8; 7; 9; 6; 10; 5; 11; 4; 12; 3; 13; 2; 14; 1; 15 |]

(* ------------------------------------------------------------------ *)
(* Encoder *)

let[@inline] put w codes sym =
  let c = codes.(sym) in
  Bitio.Lsb_writer.add_bits w ~value:(c lsr 4) ~count:(c land 15)

(* Tokens are {!Lz77.token}s: a literal is its byte, a match
   [(length lsl 16) lor distance].  The per-token loops below read that
   encoding with inline shifts and masks, not through [Lz77]'s
   accessors, which a build without cross-module inlining (dune's dev
   profile compiles with -opaque) would call once per token. *)

(* The first [n] of [tokens] and the end-of-block code. *)
let write_tokens w litlen dist tokens n =
  for i = 0 to n - 1 do
    let t = Array.unsafe_get tokens i in
    if t > 0xff then begin
      let length = t lsr 16 and distance = t land 0xffff in
      let lsym = length_sym length and dsym = distance_sym distance in
      put w litlen lsym;
      Bitio.Lsb_writer.add_bits w
        ~value:(length - length_bases.(lsym - 257))
        ~count:length_extra.(lsym - 257);
      put w dist dsym;
      Bitio.Lsb_writer.add_bits w
        ~value:(distance - distance_bases.(dsym))
        ~count:distance_extra.(dsym)
    end
    else put w litlen t
  done;
  put w litlen end_of_block

(* Run-length encode the concatenated code-length arrays with the repeat
   symbols 16 (copy previous 3-6), 17 (zeros 3-10), 18 (zeros 11-138). *)
let encode_code_lengths lengths =
  let n = Array.length lengths in
  let out = ref [] in
  let emit sym bits v = out := (sym, bits, v) :: !out in
  let i = ref 0 in
  while !i < n do
    let v = lengths.(!i) in
    let run = ref 0 in
    while !i + !run < n && lengths.(!i + !run) = v do incr run done;
    if v = 0 then begin
      let remaining = ref !run in
      while !remaining > 0 do
        if !remaining >= 11 then begin
          let take = min 138 !remaining in
          emit 18 7 (take - 11);
          remaining := !remaining - take
        end
        else if !remaining >= 3 then begin
          let take = min 10 !remaining in
          emit 17 3 (take - 3);
          remaining := !remaining - take
        end
        else begin
          emit 0 0 0;
          decr remaining
        end
      done
    end
    else begin
      (* First occurrence literal, rest via 16-repeats. *)
      emit v 0 0;
      let remaining = ref (!run - 1) in
      while !remaining > 0 do
        if !remaining >= 3 then begin
          let take = min 6 !remaining in
          emit 16 2 (take - 3);
          remaining := !remaining - take
        end
        else begin
          emit v 0 0;
          decr remaining
        end
      done
    end;
    i := !i + !run
  done;
  List.rev !out

let trimmed_length lengths ~min_keep =
  let last = ref (Array.length lengths - 1) in
  while !last >= min_keep && lengths.(!last) = 0 do decr last done;
  !last + 1

let write_dynamic_header w litlen_lengths dist_lengths =
  let hlit = max 257 (trimmed_length litlen_lengths ~min_keep:256) in
  let hdist = max 1 (trimmed_length dist_lengths ~min_keep:0) in
  let all = Array.append (Array.sub litlen_lengths 0 hlit) (Array.sub dist_lengths 0 hdist) in
  let cl_syms = encode_code_lengths all in
  let cl_freqs = Array.make 19 0 in
  List.iter (fun (s, _, _) -> cl_freqs.(s) <- cl_freqs.(s) + 1) cl_syms;
  let cl_lengths = Huffman.lengths_of_freqs ~max_length:7 cl_freqs in
  let cl_codes = Huffman.lsb_codes cl_lengths in
  let hclen =
    let last = ref 18 in
    while !last >= 4 && cl_lengths.(cl_order.(!last)) = 0 do decr last done;
    !last + 1
  in
  Bitio.Lsb_writer.add_bits w ~value:(hlit - 257) ~count:5;
  Bitio.Lsb_writer.add_bits w ~value:(hdist - 1) ~count:5;
  Bitio.Lsb_writer.add_bits w ~value:(hclen - 4) ~count:4;
  for k = 0 to hclen - 1 do
    Bitio.Lsb_writer.add_bits w ~value:cl_lengths.(cl_order.(k)) ~count:3
  done;
  List.iter
    (fun (sym, bits, v) ->
      put w cl_codes sym;
      Bitio.Lsb_writer.add_bits w ~value:v ~count:bits)
    cl_syms

(* Stored blocks of up to 65535 bytes; the last one carries BFINAL. *)
let write_stored w input =
  let n = Bytes.length input in
  let emit_block ~final off len =
    Bitio.Lsb_writer.add_bits w ~value:(if final then 1 else 0) ~count:1;
    Bitio.Lsb_writer.add_bits w ~value:0 ~count:2;
    Bitio.Lsb_writer.align_byte w;
    Bitio.Lsb_writer.add_bits w ~value:len ~count:16;
    Bitio.Lsb_writer.add_bits w ~value:(len lxor 0xffff) ~count:16;
    for k = off to off + len - 1 do
      Bitio.Lsb_writer.add_bits w ~value:(Char.code (Bytes.get input k)) ~count:8
    done
  in
  if n = 0 then emit_block ~final:true 0 0
  else begin
    let pos = ref 0 in
    while !pos < n do
      let len = min 0xffff (n - !pos) in
      emit_block ~final:(!pos + len >= n) !pos len;
      pos := !pos + len
    done
  end

let write_dynamic w tokens n =
  let litlen_freqs = Array.make litlen_alphabet 0 in
  let dist_freqs = Array.make dist_alphabet 0 in
  let bump a i = a.(i) <- a.(i) + 1 in
  for i = 0 to n - 1 do
    let t = Array.unsafe_get tokens i in
    if t > 0xff then begin
      bump litlen_freqs (length_sym (t lsr 16));
      bump dist_freqs (distance_sym (t land 0xffff))
    end
    else bump litlen_freqs t
  done;
  bump litlen_freqs end_of_block;
  let litlen_lengths = Huffman.lengths_of_freqs litlen_freqs in
  let dist_lengths = Huffman.lengths_of_freqs dist_freqs in
  Bitio.Lsb_writer.add_bits w ~value:1 ~count:1;
  Bitio.Lsb_writer.add_bits w ~value:2 ~count:2;
  write_dynamic_header w litlen_lengths dist_lengths;
  write_tokens w (Huffman.lsb_codes litlen_lengths) (Huffman.lsb_codes dist_lengths)
    tokens n

let fixed_litlen_codes = Huffman.lsb_codes fixed_litlen_lengths

let fixed_dist_codes = Huffman.lsb_codes fixed_dist_lengths

module Obs = Zipchannel_obs.Obs

let m_bytes_in = Obs.Metrics.counter "kernel.deflate.bytes_in"
let m_bytes_out = Obs.Metrics.counter "kernel.deflate.bytes_out"

let compress ?(kind = Dynamic) ?strategy ?max_chain input =
  Obs.with_span "deflate.compress"
    ~attrs:[ ("bytes", string_of_int (Bytes.length input)) ]
  @@ fun () ->
  let w = Bitio.Lsb_writer.create () in
  (match kind with
  | Stored -> write_stored w input
  | Fixed | Dynamic ->
      (* The tokens stay in the domain's arena: a steady-state run
         allocates little beyond its output. *)
      Zipchannel_buf.Arena.with_arena @@ fun arena ->
      let tokens, n = Lz77.tokenize_in arena ?strategy ?max_chain input in
      if kind = Fixed then begin
        Bitio.Lsb_writer.add_bits w ~value:1 ~count:1;
        Bitio.Lsb_writer.add_bits w ~value:1 ~count:2;
        write_tokens w fixed_litlen_codes fixed_dist_codes tokens n
      end
      else write_dynamic w tokens n);
  let out = Bitio.Lsb_writer.to_bytes w in
  Obs.Metrics.add m_bytes_in (Bytes.length input);
  Obs.Metrics.add m_bytes_out (Bytes.length out);
  out

(* ------------------------------------------------------------------ *)
(* Decoder *)

(* The fixed-Huffman decoders, built once for every fixed block. *)
let fixed_litlen = Huffman.lsb_decoder_of_lengths fixed_litlen_lengths

let fixed_dist = Huffman.lsb_decoder_of_lengths fixed_dist_lengths

(* A dynamic block's litlen decoder and its distance decoder, [None]
   when the block codes no distance. *)
let read_dynamic_tables r =
  let read_bits n = Bitio.Lsb_reader.read_bits r n in
  let hlit = read_bits 5 + 257 in
  let hdist = read_bits 5 + 1 in
  let hclen = read_bits 4 + 4 in
  if hlit > 286 || hdist > 30 then failwith "Rfc1951.inflate: bad counts";
  let cl_lengths = Array.make 19 0 in
  for k = 0 to hclen - 1 do
    cl_lengths.(cl_order.(k)) <- read_bits 3
  done;
  let cl = Huffman.lsb_decoder_of_lengths cl_lengths in
  let lengths = Array.make (hlit + hdist) 0 in
  let pos = ref 0 in
  while !pos < hlit + hdist do
    match Huffman.read_symbol_lsb r cl with
    | s when s <= 15 ->
        lengths.(!pos) <- s;
        incr pos
    | 16 ->
        if !pos = 0 then failwith "Rfc1951.inflate: repeat with no previous";
        let prev = lengths.(!pos - 1) in
        let n = 3 + read_bits 2 in
        if !pos + n > hlit + hdist then failwith "Rfc1951.inflate: repeat overflow";
        Array.fill lengths !pos n prev;
        pos := !pos + n
    | 17 ->
        let n = 3 + read_bits 3 in
        if !pos + n > hlit + hdist then failwith "Rfc1951.inflate: repeat overflow";
        pos := !pos + n
    | 18 ->
        let n = 11 + read_bits 7 in
        if !pos + n > hlit + hdist then failwith "Rfc1951.inflate: repeat overflow";
        pos := !pos + n
    | _ -> failwith "Rfc1951.inflate: bad code-length symbol"
  done;
  let dist = Array.sub lengths hlit hdist in
  ( Huffman.lsb_decoder_of_lengths (Array.sub lengths 0 hlit),
    if Array.exists (fun l -> l > 0) dist then
      Some (Huffman.lsb_decoder_of_lengths dist)
    else None )

(* The next token of a compressed block as an {!Lz77.token} (a literal
   byte or a packed match), or [-1] at the end of the block. *)
let[@inline] read_token r litlen dist =
  let sym = Huffman.read_symbol_lsb r litlen in
  if sym < 256 then sym
  else if sym = end_of_block then -1
  else begin
    (* A fixed block's table also codes 286 and 287, which are no
       length; the reason is the one inflate has always given. *)
    if sym > 285 then invalid_arg "Deflate.base_of_length_code";
    let length =
      length_bases.(sym - 257)
      + Bitio.Lsb_reader.read_bits r length_extra.(sym - 257)
    in
    let dist =
      match dist with
      | Some d -> d
      | None -> failwith "Rfc1951.inflate: match in distance-less block"
    in
    let dsym = Huffman.read_symbol_lsb r dist in
    let distance =
      distance_bases.(dsym) + Bitio.Lsb_reader.read_bits r distance_extra.(dsym)
    in
    (length lsl 16) lor distance
  end

let too_far () = failwith "Rfc1951.inflate: distance too far back"

(* Walk the blocks that [r] reads up to the final one: [stored at len]
   takes a stored block's [len] bytes at byte [at] of the reader's
   buffer, [huffman litlen dist] reads a compressed block's tokens. *)
let read_blocks r ~stored ~huffman =
  let final = ref false in
  while not !final do
    final := Bitio.Lsb_reader.read_bits r 1 = 1;
    match Bitio.Lsb_reader.read_bits r 2 with
    | 0 ->
        Bitio.Lsb_reader.align_byte r;
        let len = Bitio.Lsb_reader.read_bits r 16 in
        let nlen = Bitio.Lsb_reader.read_bits r 16 in
        if len lxor 0xffff <> nlen then
          failwith "Rfc1951.inflate: stored length check";
        (* The reader is aligned, so the block is the [len] whole bytes
           at [at]; [skip] fails as a byte-by-byte read would. *)
        let at = Bitio.Lsb_reader.byte_position r in
        Bitio.Lsb_reader.skip r (8 * len);
        stored at len
    | 1 -> huffman fixed_litlen (Some fixed_dist)
    | 2 ->
        let litlen, dist = read_dynamic_tables r in
        huffman litlen dist
    | _ -> failwith "Rfc1951.inflate: reserved block type"
  done

let decode_tokens_result data =
  let r = Bitio.Lsb_reader.create data in
  Codec_error.protect ~codec:"deflate"
    ~offset:(fun () -> Bitio.Lsb_reader.byte_position r)
  @@ fun () ->
  let tokens = ref [] and produced = ref 0 in
  let push t = tokens := t :: !tokens in
  read_blocks r
    ~stored:(fun at len ->
      for k = at to at + len - 1 do
        push (Char.code (Bytes.get data k))
      done;
      produced := !produced + len)
    ~huffman:(fun litlen dist ->
      let t = ref (read_token r litlen dist) in
      while !t >= 0 do
        let tok = !t in
        if tok > 0xff then begin
          if tok land 0xffff > !produced then too_far ();
          produced := !produced + (tok lsr 16)
        end
        else incr produced;
        push tok;
        t := read_token r litlen dist
      done);
  List.rev !tokens

let decode_tokens data = Codec_error.unwrap (decode_tokens_result data)

(* Decoded output: the first [len] bytes of [buf], which doubles when
   it fills. *)
type output = { mutable buf : bytes; mutable len : int }

let[@inline never] reserve out extra =
  if out.len + extra > Bytes.length out.buf then begin
    let buf = Bytes.create (max (out.len + extra) (2 * Bytes.length out.buf)) in
    Bytes.blit out.buf 0 buf 0 out.len;
    out.buf <- buf
  end

(* Append the [length] bytes that start [distance] (in [1 .. out.len])
   bytes back. *)
let add_match out ~distance ~length =
  reserve out length;
  let buf = out.buf and start = out.len - distance in
  (* Byte by byte when the match overlaps its own output, so that it
     repeats the bytes it has just written. *)
  if distance >= length then Bytes.blit buf start buf out.len length
  else
    for k = 0 to length - 1 do
      Bytes.unsafe_set buf (out.len + k) (Bytes.unsafe_get buf (start + k))
    done;
  out.len <- out.len + length

module Bigstring = Zipchannel_buf.Bigstring

(* zlib's inflate_fast: a compressed block's tokens appended to [out]
   with the bit buffer in local variables and the tables indexed
   directly, so no call per token.  [hold]'s low [bits] bits are the
   next stream bits, first bit lowest; above them sit the stream bits
   that follow, or zeros.  Below 48 bits, the longest token (a 15-bit
   length code, 5 extra bits, a 15-bit distance code and 13 extra
   bits), one 8-byte load inside the reader's slice tops [hold] up to
   56..63 bits, so every token here is decoded from real stream bits.

   The loop hands control back, with [r] at the first undecoded token,
   within 8 bytes of the end of the slice and before any token that
   is an error: a code the table lacks, length symbol 286 or 287, a
   match in a block without distance codes, distance symbol 30 or 31,
   or a distance past the output.  [inflate_block]'s tail then decodes
   that token with [read_token], which raises the error with its exact
   reader position.  Returns [true] at the end of the block. *)
let inflate_fast (r : Bitio.Lsb_reader.t) out litlen dist =
  let data = r.data and last = (r.limit lsr 3) - 8 in
  let lt = Huffman.lsb_table litlen and lroot = Huffman.lsb_root_bits litlen in
  let lmask = (1 lsl lroot) - 1 in
  let dt, droot =
    match dist with
    | Some d -> (Huffman.lsb_table d, Huffman.lsb_root_bits d)
    | None -> ([||], -1)
  in
  let dmask = (1 lsl max 0 droot) - 1 in
  let p0 = r.pos in
  let pos = ref (p0 lsr 3) and hold = ref 0 and bits = ref 0 in
  if p0 land 7 <> 0 then begin
    hold := Char.code (Bytes.unsafe_get data !pos) lsr (p0 land 7);
    bits := 8 - (p0 land 7);
    incr pos
  end;
  let len = ref out.len and go = ref true and ended = ref false in
  while !go do
    if !bits < 48 && !pos > last then go := false
    else begin
      if !bits < 48 then begin
        (* The whole bytes that fit: [bits + 8 * k] is [bits lor 56]. *)
        hold :=
          !hold lor (Int64.to_int (Bigstring.bytes_get64u data !pos) lsl !bits);
        pos := !pos + ((63 - !bits) lsr 3);
        bits := !bits lor 56
      end;
      let h = !hold in
      let e = Array.unsafe_get lt (h land lmask) in
      let e =
        if e land 16 = 0 then e
        else
          Array.unsafe_get lt
            ((e lsr 5) + ((h lsr lroot) land ((1 lsl (e land 15)) - 1)))
      in
      let n = e land 15 and sym = e lsr 5 in
      if n = 0 then go := false
      else if sym < 256 then begin
        hold := h lsr n;
        bits := !bits - n;
        if !len = Bytes.length out.buf then begin
          out.len <- !len;
          reserve out 1
        end;
        Bytes.unsafe_set out.buf !len (Char.unsafe_chr sym);
        incr len
      end
      else if sym = end_of_block then begin
        hold := h lsr n;
        bits := !bits - n;
        ended := true;
        go := false
      end
      else if sym > 285 || droot < 0 then go := false
      else begin
        let h = h lsr n and x = Array.unsafe_get length_extra (sym - 257) in
        let length = Array.unsafe_get length_bases (sym - 257) + (h land ((1 lsl x) - 1)) in
        let h = h lsr x in
        let de = Array.unsafe_get dt (h land dmask) in
        let de =
          if de land 16 = 0 then de
          else
            Array.unsafe_get dt
              ((de lsr 5) + ((h lsr droot) land ((1 lsl (de land 15)) - 1)))
        in
        let dn = de land 15 and dsym = de lsr 5 in
        if dn = 0 || dsym >= dist_alphabet then go := false
        else begin
          let h = h lsr dn and xd = Array.unsafe_get distance_extra dsym in
          let distance =
            Array.unsafe_get distance_bases dsym + (h land ((1 lsl xd) - 1))
          in
          if distance > !len then go := false
          else begin
            hold := h lsr xd;
            bits := !bits - (n + x + dn + xd);
            (* 8 bytes at a time when the distance allows it (the source
               word then lies wholly in written output), so the copy
               may write up to 7 bytes past the match. *)
            if !len + length + 8 > Bytes.length out.buf then begin
              out.len <- !len;
              reserve out (length + 8)
            end;
            let buf = out.buf and dst = !len in
            let src = dst - distance in
            if distance >= 8 then begin
              let k = ref 0 in
              while !k < length do
                Bigstring.bytes_set64u buf (dst + !k)
                  (Bigstring.bytes_get64u buf (src + !k));
                k := !k + 8
              done
            end
            else
              for k = 0 to length - 1 do
                Bytes.unsafe_set buf (dst + k) (Bytes.unsafe_get buf (src + k))
              done;
            len := dst + length
          end
        end
      end
    end
  done;
  r.pos <- (8 * !pos) - !bits;
  out.len <- !len;
  !ended

(* A compressed block's bytes, appended to [out]: [inflate_fast], then
   the token-at-a-time tail for what it hands back. *)
let inflate_block r out litlen dist =
  if not (inflate_fast r out litlen dist) then begin
    let t = ref (read_token r litlen dist) in
    while !t >= 0 do
      let tok = !t in
      if tok > 0xff then begin
        let distance = tok land 0xffff in
        if distance > out.len then too_far ();
        add_match out ~distance ~length:(tok lsr 16)
      end
      else begin
        if out.len = Bytes.length out.buf then reserve out 1;
        Bytes.unsafe_set out.buf out.len (Char.unsafe_chr tok);
        out.len <- out.len + 1
      end;
      t := read_token r litlen dist
    done
  end

let decompress_sub_result data ~off ~len =
  let r = Bitio.Lsb_reader.create ~start:off ~len data in
  Codec_error.protect ~codec:"deflate"
    ~offset:(fun () -> Bitio.Lsb_reader.byte_position r)
  @@ fun () ->
  let out = { buf = Bytes.create (max 64 (2 * len)); len = 0 } in
  read_blocks r
    ~stored:(fun at len ->
      reserve out len;
      Bytes.blit data at out.buf out.len len;
      out.len <- out.len + len)
    ~huffman:(inflate_block r out);
  if out.len = Bytes.length out.buf then out.buf else Bytes.sub out.buf 0 out.len

let decompress_result data =
  decompress_sub_result data ~off:0 ~len:(Bytes.length data)

let decompress data = Codec_error.unwrap (decompress_result data)

(* ------------------------------------------------------------------ *)
(* RFC 1950 (zlib) wrapper *)

module Zlib = struct
  (* CMF 0x78 is deflate with a 32 KiB window; FLG 0x01 makes the
     header a multiple of 31 and asks for no preset dictionary. *)
  let header = "\x78\x01"

  let compress ?kind data =
    (* [compress] is still the raw stream's here. *)
    let body = compress ?kind data in
    let n = Bytes.length body in
    let out = Bytes.create (n + 6) in
    Bytes.blit_string header 0 out 0 2;
    Bytes.blit body 0 out 2 n;
    Bytes.set_int32_be out (n + 2)
      (Int32.of_int (Checksum.Adler32.digest data));
    out

  let decompress_result data =
    let err ?offset reason = Codec_error.error ~codec:"zlib" ?offset reason in
    let n = Bytes.length data in
    if n < 6 then err ~offset:0 "Rfc1951.Zlib: too short"
    else begin
      let cmf = Char.code (Bytes.get data 0) in
      let flg = Char.code (Bytes.get data 1) in
      if cmf land 0x0f <> 8 then err ~offset:0 "Rfc1951.Zlib: not deflate"
      else if ((cmf * 256) + flg) mod 31 <> 0 then
        err ~offset:1 "Rfc1951.Zlib: bad header check"
      else if flg land 0x20 <> 0 then
        err ~offset:1 "Rfc1951.Zlib: preset dictionary unsupported"
      else if cmf lsr 4 > 7 then
        err ~offset:0 "Rfc1951.Zlib: window size above 32 KiB"
      else
        match decompress_sub_result data ~off:2 ~len:(n - 6) with
        | Error e -> Error { e with Codec_error.codec = "zlib" }
        | Ok plain ->
            let adler = Int32.to_int (Bytes.get_int32_be data (n - 4)) land 0xffffffff in
            if Checksum.Adler32.digest plain <> adler then
              err ~offset:(n - 4) "Rfc1951.Zlib: adler32 mismatch"
            else Ok plain
    end

  let decompress data = Codec_error.unwrap (decompress_result data)
end

(* ------------------------------------------------------------------ *)
(* RFC 1952 (gzip) wrapper *)

module Gzip = struct
  let fhcrc = 0x02
  let fextra = 0x04
  let fname = 0x08
  let fcomment = 0x10
  let reserved = 0xe0

  let compress ?kind ?name data =
    let body = compress ?kind data in
    let buf = Buffer.create (Bytes.length body + 24) in
    Buffer.add_string buf "\x1f\x8b\x08";
    Buffer.add_char buf
      (Char.chr (match name with Some _ -> fname | None -> 0));
    Buffer.add_string buf "\000\000\000\000" (* MTIME *);
    Buffer.add_char buf '\000' (* XFL *);
    Buffer.add_char buf '\255' (* OS: unknown *);
    (match name with
    | Some n ->
        if String.contains n '\000' then invalid_arg "Gzip.compress: name";
        Buffer.add_string buf n;
        Buffer.add_char buf '\000'
    | None -> ());
    Buffer.add_bytes buf body;
    Buffer.add_int32_le buf (Int32.of_int (Checksum.Crc32.digest data));
    Buffer.add_int32_le buf (Int32.of_int (Bytes.length data));
    Buffer.to_bytes buf

  let le32 data off = Int32.to_int (Bytes.get_int32_le data off) land 0xffffffff

  (* The offset of the deflate body and the FNAME field.
     @raise Codec_error.Codec_error on a bad header. *)
  let parse_header data =
    let fail ?(offset = 0) reason =
      Codec_error.fail ~codec:"gzip" ~offset reason
    in
    let n = Bytes.length data in
    if n < 18 then fail "Rfc1951.Gzip: too short";
    if Char.code (Bytes.get data 0) <> 0x1f || Char.code (Bytes.get data 1) <> 0x8b
    then fail "Rfc1951.Gzip: bad magic";
    if Char.code (Bytes.get data 2) <> 8 then fail "Rfc1951.Gzip: not deflate";
    let flg = Char.code (Bytes.get data 3) in
    let pos = ref 10 in
    if flg land fextra <> 0 then begin
      if !pos + 2 > n then fail "Rfc1951.Gzip: truncated FEXTRA";
      pos := !pos + 2 + Bytes.get_uint16_le data !pos
    end;
    let name = ref None in
    if flg land fname <> 0 then begin
      let start = !pos in
      while !pos < n && Bytes.get data !pos <> '\000' do incr pos done;
      if !pos >= n then fail "Rfc1951.Gzip: truncated FNAME";
      name := Some (Bytes.sub_string data start (!pos - start));
      incr pos
    end;
    if flg land fcomment <> 0 then begin
      while !pos < n && Bytes.get data !pos <> '\000' do incr pos done;
      if !pos >= n then fail "Rfc1951.Gzip: truncated FCOMMENT";
      incr pos
    end;
    if flg land fhcrc <> 0 then pos := !pos + 2;
    if !pos + 8 > n then fail "Rfc1951.Gzip: truncated";
    if flg land reserved <> 0 then
      fail ~offset:3 "Rfc1951.Gzip: reserved flag bits set";
    (!pos, !name)

  let decompress_result data =
    let err ?offset reason = Codec_error.error ~codec:"gzip" ?offset reason in
    match parse_header data with
    | exception Codec_error.Codec_error e -> Error e
    | body_off, _ -> (
        let n = Bytes.length data in
        match decompress_sub_result data ~off:body_off ~len:(n - body_off - 8) with
        | Error e -> Error { e with Codec_error.codec = "gzip" }
        | Ok plain ->
            if Checksum.Crc32.digest plain <> le32 data (n - 8) then
              err ~offset:(n - 8) "Rfc1951.Gzip: crc mismatch"
            else if Bytes.length plain land 0xffffffff <> le32 data (n - 4) then
              err ~offset:(n - 4) "Rfc1951.Gzip: size mismatch"
            else Ok plain)

  let decompress data = Codec_error.unwrap (decompress_result data)

  let original_name data =
    match parse_header data with
    | _, name -> name
    | exception Codec_error.Codec_error e -> failwith e.reason
end
