type block_kind = Stored | Fixed | Dynamic

let end_of_block = 256

(* Fixed-Huffman code lengths, RFC 1951 Section 3.2.6. *)
let fixed_litlen_lengths =
  Array.init 288 (fun s ->
      if s <= 143 then 8 else if s <= 255 then 9 else if s <= 279 then 7 else 8)

let fixed_dist_lengths = Array.make 30 5

(* The fixed-Huffman decoders, built once for every fixed block. *)
let fixed_litlen = Huffman.decoder_of_lengths fixed_litlen_lengths

let fixed_dist = Huffman.decoder_of_lengths fixed_dist_lengths

(* Order in which code-length-code lengths appear in a dynamic header. *)
let cl_order =
  [| 16; 17; 18; 0; 8; 7; 9; 6; 10; 5; 11; 4; 12; 3; 13; 2; 14; 1; 15 |]

(* ------------------------------------------------------------------ *)
(* Encoder *)

let write_tokens w litlen_codes dist_codes tokens =
  let put_code codes sym =
    let c : Huffman.code = codes.(sym) in
    if c.Huffman.length = 0 then failwith "Rfc1951: symbol without code";
    Bitio.Lsb_writer.add_huffman w ~code:c.Huffman.bits ~length:c.Huffman.length
  in
  List.iter
    (fun token ->
      match token with
      | Lz77.Literal c -> put_code litlen_codes (Char.code c)
      | Lz77.Match { length; distance } ->
          let lsym, lbits, lval = Deflate.length_code length in
          put_code litlen_codes lsym;
          if lbits > 0 then Bitio.Lsb_writer.add_bits w ~value:lval ~count:lbits;
          let dsym, dbits, dval = Deflate.distance_code distance in
          put_code dist_codes dsym;
          if dbits > 0 then Bitio.Lsb_writer.add_bits w ~value:dval ~count:dbits)
    tokens;
  put_code litlen_codes end_of_block

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
  let cl_codes = Huffman.canonical_codes cl_lengths in
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
      let c = cl_codes.(sym) in
      Bitio.Lsb_writer.add_huffman w ~code:c.Huffman.bits ~length:c.Huffman.length;
      if bits > 0 then Bitio.Lsb_writer.add_bits w ~value:v ~count:bits)
    cl_syms

let deflate ?(kind = Dynamic) ?strategy ?max_chain input =
  let w = Bitio.Lsb_writer.create () in
  (match kind with
  | Stored ->
      (* Emit 65535-byte stored blocks; the last one carries BFINAL. *)
      let n = Bytes.length input in
      let pos = ref 0 in
      let emit_block ~final off len =
        Bitio.Lsb_writer.add_bits w ~value:(if final then 1 else 0) ~count:1;
        Bitio.Lsb_writer.add_bits w ~value:0 ~count:2;
        Bitio.Lsb_writer.align_byte w;
        Bitio.Lsb_writer.add_bits w ~value:len ~count:16;
        Bitio.Lsb_writer.add_bits w ~value:(len lxor 0xffff) ~count:16;
        for k = 0 to len - 1 do
          Bitio.Lsb_writer.add_bits w
            ~value:(Char.code (Bytes.get input (off + k)))
            ~count:8
        done
      in
      if n = 0 then emit_block ~final:true 0 0
      else
        while !pos < n do
          let len = min 0xffff (n - !pos) in
          emit_block ~final:(!pos + len >= n) !pos len;
          pos := !pos + len
        done
  | Fixed ->
      let tokens = Lz77.tokenize ?strategy ?max_chain input in
      Bitio.Lsb_writer.add_bits w ~value:1 ~count:1;
      Bitio.Lsb_writer.add_bits w ~value:1 ~count:2;
      write_tokens w
        (Huffman.canonical_codes fixed_litlen_lengths)
        (Huffman.canonical_codes fixed_dist_lengths)
        tokens
  | Dynamic ->
      let tokens = Lz77.tokenize ?strategy ?max_chain input in
      let litlen_freqs = Array.make 286 0 in
      let dist_freqs = Array.make 30 0 in
      List.iter
        (fun token ->
          match token with
          | Lz77.Literal c ->
              litlen_freqs.(Char.code c) <- litlen_freqs.(Char.code c) + 1
          | Lz77.Match { length; distance } ->
              let lsym, _, _ = Deflate.length_code length in
              let dsym, _, _ = Deflate.distance_code distance in
              litlen_freqs.(lsym) <- litlen_freqs.(lsym) + 1;
              dist_freqs.(dsym) <- dist_freqs.(dsym) + 1)
        tokens;
      litlen_freqs.(end_of_block) <- litlen_freqs.(end_of_block) + 1;
      let litlen_lengths = Huffman.lengths_of_freqs ~max_length:15 litlen_freqs in
      let dist_lengths = Huffman.lengths_of_freqs ~max_length:15 dist_freqs in
      Bitio.Lsb_writer.add_bits w ~value:1 ~count:1;
      Bitio.Lsb_writer.add_bits w ~value:2 ~count:2;
      write_dynamic_header w litlen_lengths dist_lengths;
      write_tokens w
        (Huffman.canonical_codes litlen_lengths)
        (Huffman.canonical_codes dist_lengths)
        tokens);
  Bitio.Lsb_writer.to_bytes w

(* ------------------------------------------------------------------ *)
(* Decoder *)

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
  let cl = Huffman.decoder_of_lengths cl_lengths in
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
        for _ = 1 to n do
          lengths.(!pos) <- prev;
          incr pos
        done
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
  (Array.sub lengths 0 hlit, Array.sub lengths hlit hdist)

let inflate_block r out litlen dist =
  let finished = ref false in
  while not !finished do
    let sym = Huffman.read_symbol_lsb r litlen in
    if sym < 256 then Deflate.add_byte out (Char.unsafe_chr sym)
    else if sym = end_of_block then finished := true
    else begin
      let lbase, lbits = Deflate.base_of_length_code sym in
      let length = lbase + Bitio.Lsb_reader.read_bits r lbits in
      let dist_decoder =
        match dist with
        | Some d -> d
        | None -> failwith "Rfc1951.inflate: match in distance-less block"
      in
      let dsym = Huffman.read_symbol_lsb r dist_decoder in
      let dbase, dbits = Deflate.base_of_distance_code dsym in
      let distance = dbase + Bitio.Lsb_reader.read_bits r dbits in
      if distance > out.Deflate.len then
        failwith "Rfc1951.inflate: distance too far back";
      Deflate.add_match out ~distance ~length
    end
  done

let inflate_result data =
  let r = Bitio.Lsb_reader.create data in
  Codec_error.protect ~codec:"rfc1951"
    ~offset:(fun () -> Bitio.Lsb_reader.byte_position r)
  @@ fun () ->
  let out = Deflate.output (Bytes.length data * 3) in
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
        (* The reader is aligned, so the block is [len] whole bytes of
           [data]; [skip] fails as a byte-by-byte read would. *)
        let at = Bitio.Lsb_reader.byte_position r in
        Bitio.Lsb_reader.skip r (8 * len);
        for k = at to at + len - 1 do
          Deflate.add_byte out (Bytes.unsafe_get data k)
        done
    | 1 -> inflate_block r out fixed_litlen (Some fixed_dist)
    | 2 ->
        let litlen_lengths, dist_lengths = read_dynamic_tables r in
        let dist =
          if Array.exists (fun l -> l > 0) dist_lengths then
            Some (Huffman.decoder_of_lengths dist_lengths)
          else None
        in
        inflate_block r out (Huffman.decoder_of_lengths litlen_lengths) dist
    | _ -> failwith "Rfc1951.inflate: reserved block type"
  done;
  Deflate.contents out

let inflate data = Codec_error.unwrap (inflate_result data)

(* ------------------------------------------------------------------ *)
(* RFC 1950 (zlib) wrapper *)

module Zlib = struct
  let compress ?kind data =
    let body = deflate ?kind data in
    let buf = Buffer.create (Bytes.length body + 6) in
    (* CMF: deflate, 32K window; FLG chosen so (CMF*256 + FLG) mod 31 = 0. *)
    let cmf = 0x78 in
    let flg =
      let base = cmf * 256 in
      let rem = base mod 31 in
      if rem = 0 then 0 else 31 - rem
    in
    Buffer.add_char buf (Char.chr cmf);
    Buffer.add_char buf (Char.chr flg);
    Buffer.add_bytes buf body;
    let adler = Checksum.Adler32.digest data in
    for k = 3 downto 0 do
      Buffer.add_char buf (Char.chr ((adler lsr (8 * k)) land 0xff))
    done;
    Buffer.to_bytes buf

  let decompress_result data =
    let err ?offset reason = Codec_error.error ~codec:"zlib" ?offset reason in
    if Bytes.length data < 6 then err ~offset:0 "Rfc1951.Zlib: too short"
    else begin
      let cmf = Char.code (Bytes.get data 0) in
      let flg = Char.code (Bytes.get data 1) in
      if cmf land 0x0f <> 8 then err ~offset:0 "Rfc1951.Zlib: not deflate"
      else if ((cmf * 256) + flg) mod 31 <> 0 then
        err ~offset:1 "Rfc1951.Zlib: bad header check"
      else if flg land 0x20 <> 0 then
        err ~offset:1 "Rfc1951.Zlib: preset dictionary unsupported"
      else begin
        let body = Bytes.sub data 2 (Bytes.length data - 6) in
        match inflate_result body with
        | Error e ->
            Error
              {
                e with
                Codec_error.codec = "zlib";
                offset = (if e.Codec_error.offset < 0 then -1 else e.Codec_error.offset + 2);
              }
        | Ok plain ->
            let adler = ref 0 in
            for k = 0 to 3 do
              adler :=
                (!adler lsl 8)
                lor Char.code (Bytes.get data (Bytes.length data - 4 + k))
            done;
            if Checksum.Adler32.digest plain <> !adler then
              err ~offset:(Bytes.length data - 4) "Rfc1951.Zlib: adler32 mismatch"
            else Ok plain
      end
    end

  let decompress data = Codec_error.unwrap (decompress_result data)
end

(* ------------------------------------------------------------------ *)
(* RFC 1952 (gzip) wrapper *)

module Gzip = struct
  let ftext = 0x01
  let fhcrc = 0x02
  let fextra = 0x04
  let fname = 0x08
  let fcomment = 0x10

  let compress ?kind ?name data =
    let body = deflate ?kind data in
    let buf = Buffer.create (Bytes.length body + 24) in
    Buffer.add_char buf '\x1f';
    Buffer.add_char buf '\x8b';
    Buffer.add_char buf '\x08';
    Buffer.add_char buf
      (Char.chr (match name with Some _ -> fname | None -> 0));
    for _ = 1 to 4 do Buffer.add_char buf '\000' done (* MTIME *);
    Buffer.add_char buf '\000' (* XFL *);
    Buffer.add_char buf '\255' (* OS: unknown *);
    (match name with
    | Some n ->
        if String.contains n '\000' then invalid_arg "Gzip.compress: name";
        Buffer.add_string buf n;
        Buffer.add_char buf '\000'
    | None -> ());
    Buffer.add_bytes buf body;
    let crc = Checksum.Crc32.digest data in
    for k = 0 to 3 do
      Buffer.add_char buf (Char.chr ((crc lsr (8 * k)) land 0xff))
    done;
    let isize = Bytes.length data land 0xffffffff in
    for k = 0 to 3 do
      Buffer.add_char buf (Char.chr ((isize lsr (8 * k)) land 0xff))
    done;
    Buffer.to_bytes buf

  (* Returns (flags, offset of the deflate body, optional FNAME). *)
  let parse_header data =
    let n = Bytes.length data in
    if n < 18 then failwith "Rfc1951.Gzip: too short";
    if Char.code (Bytes.get data 0) <> 0x1f || Char.code (Bytes.get data 1) <> 0x8b
    then failwith "Rfc1951.Gzip: bad magic";
    if Char.code (Bytes.get data 2) <> 8 then failwith "Rfc1951.Gzip: not deflate";
    let flg = Char.code (Bytes.get data 3) in
    let pos = ref 10 in
    if flg land fextra <> 0 then begin
      if !pos + 2 > n then failwith "Rfc1951.Gzip: truncated FEXTRA";
      let xlen =
        Char.code (Bytes.get data !pos)
        lor (Char.code (Bytes.get data (!pos + 1)) lsl 8)
      in
      pos := !pos + 2 + xlen
    end;
    let name = ref None in
    if flg land fname <> 0 then begin
      let start = !pos in
      while !pos < n && Bytes.get data !pos <> '\000' do incr pos done;
      if !pos >= n then failwith "Rfc1951.Gzip: truncated FNAME";
      name := Some (Bytes.sub_string data start (!pos - start));
      incr pos
    end;
    if flg land fcomment <> 0 then begin
      while !pos < n && Bytes.get data !pos <> '\000' do incr pos done;
      if !pos >= n then failwith "Rfc1951.Gzip: truncated FCOMMENT";
      incr pos
    end;
    if flg land fhcrc <> 0 then pos := !pos + 2;
    ignore ftext;
    if !pos + 8 > n then failwith "Rfc1951.Gzip: truncated";
    (flg, !pos, !name)

  let decompress_result data =
    let err ?offset reason = Codec_error.error ~codec:"gzip" ?offset reason in
    match parse_header data with
    | exception Failure reason -> err ~offset:0 reason
    | _, body_off, _ -> (
        let n = Bytes.length data in
        let body = Bytes.sub data body_off (n - body_off - 8) in
        match inflate_result body with
        | Error e ->
            Error
              {
                e with
                Codec_error.codec = "gzip";
                offset =
                  (if e.Codec_error.offset < 0 then -1
                   else e.Codec_error.offset + body_off);
              }
        | Ok plain ->
            let le32 off =
              Char.code (Bytes.get data off)
              lor (Char.code (Bytes.get data (off + 1)) lsl 8)
              lor (Char.code (Bytes.get data (off + 2)) lsl 16)
              lor (Char.code (Bytes.get data (off + 3)) lsl 24)
            in
            if Checksum.Crc32.digest plain <> le32 (n - 8) then
              err ~offset:(n - 8) "Rfc1951.Gzip: crc mismatch"
            else if Bytes.length plain land 0xffffffff <> le32 (n - 4) then
              err ~offset:(n - 4) "Rfc1951.Gzip: size mismatch"
            else Ok plain)

  let decompress data = Codec_error.unwrap (decompress_result data)

  let original_name data =
    let _, _, name = parse_header data in
    name
end
