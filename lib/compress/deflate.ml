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

let find_code bases extra v name =
  let n = Array.length bases in
  let rec search idx =
    if idx < 0 then invalid_arg name
    else if bases.(idx) <= v then idx
    else search (idx - 1)
  in
  let idx = search (n - 1) in
  let bits = extra.(idx) in
  let off = v - bases.(idx) in
  if off lsr bits <> 0 then invalid_arg name;
  (idx, bits, off)

(* Per-length symbol table, replacing the linear [find_code] scan on the
   encoder hot path.  Built once from [find_code] itself, so the mapping
   is the scan's by construction. *)
let length_syms =
  Array.init 259 (fun len ->
      if len < 3 then 0
      else if len = 258 then 285
      else begin
        let idx, _, _ =
          find_code length_bases length_extra len "Deflate.length_code"
        in
        257 + idx
      end)

let length_code len =
  if len < 3 || len > 258 then invalid_arg "Deflate.length_code";
  let sym = Array.unsafe_get length_syms len in
  if sym = 285 then (285, 0, 0)
  else begin
    let bits = Array.unsafe_get length_extra (sym - 257) in
    (sym, bits, len - Array.unsafe_get length_bases (sym - 257))
  end

(* zlib's two-level distance table: distances 1..256 index the low half
   directly, larger ones via [(dist - 1) lsr 7] — every RFC 1951 range
   past 256 is 128-aligned, so one probe per bucket pins the symbol. *)
let dist_syms =
  Array.init 512 (fun i ->
      let dist = if i < 256 then i + 1 else ((i - 256) lsl 7) + 1 in
      let idx, _, _ =
        find_code distance_bases distance_extra dist "Deflate.distance_code"
      in
      idx)

let distance_code dist =
  if dist < 1 || dist > 32768 then invalid_arg "Deflate.distance_code";
  let sym =
    if dist <= 256 then Array.unsafe_get dist_syms (dist - 1)
    else Array.unsafe_get dist_syms (256 + ((dist - 1) lsr 7))
  in
  let bits = Array.unsafe_get distance_extra sym in
  (sym, bits, dist - Array.unsafe_get distance_bases sym)

let base_of_length_code sym =
  if sym < 257 || sym > 285 then invalid_arg "Deflate.base_of_length_code";
  (length_bases.(sym - 257), length_extra.(sym - 257))

let base_of_distance_code sym =
  if sym < 0 || sym >= dist_alphabet then
    invalid_arg "Deflate.base_of_distance_code";
  (distance_bases.(sym), distance_extra.(sym))

let encode_token_array tokens =
  let litlen_freqs = Array.make litlen_alphabet 0 in
  let dist_freqs = Array.make dist_alphabet 0 in
  let bump a i = a.(i) <- a.(i) + 1 in
  Array.iter
    (fun token ->
      match token with
      | Lz77.Literal c -> bump litlen_freqs (Char.code c)
      | Lz77.Match { length; distance } ->
          let lsym, _, _ = length_code length in
          let dsym, _, _ = distance_code distance in
          bump litlen_freqs lsym;
          bump dist_freqs dsym)
    tokens;
  bump litlen_freqs end_of_block;
  let litlen_lengths = Huffman.lengths_of_freqs litlen_freqs in
  let dist_lengths = Huffman.lengths_of_freqs dist_freqs in
  let litlen_codes = Huffman.canonical_codes litlen_lengths in
  let dist_codes = Huffman.canonical_codes dist_lengths in
  let w = Bitio.Writer.create () in
  Huffman.write_lengths w litlen_lengths;
  Huffman.write_lengths w dist_lengths;
  Array.iter
    (fun token ->
      match token with
      | Lz77.Literal c -> Huffman.write_symbol w litlen_codes (Char.code c)
      | Lz77.Match { length; distance } ->
          let lsym, lbits, lval = length_code length in
          let dsym, dbits, dval = distance_code distance in
          Huffman.write_symbol w litlen_codes lsym;
          if lbits > 0 then Bitio.Writer.add_bits_msb w ~value:lval ~count:lbits;
          Huffman.write_symbol w dist_codes dsym;
          if dbits > 0 then Bitio.Writer.add_bits_msb w ~value:dval ~count:dbits)
    tokens;
  Huffman.write_symbol w litlen_codes end_of_block;
  Bitio.Writer.to_bytes w

let encode_tokens tokens = encode_token_array (Array.of_list tokens)

(* The two tables in a stream's header. *)
let read_tables r =
  let litlen_lengths = Huffman.read_lengths r in
  let dist_lengths = Huffman.read_lengths r in
  if Array.length litlen_lengths <> litlen_alphabet
     || Array.length dist_lengths <> dist_alphabet
  then failwith "Deflate.decode_tokens: bad header";
  let litlen = Huffman.decoder_of_lengths litlen_lengths in
  let dist =
    if Array.exists (fun l -> l > 0) dist_lengths then
      Some (Huffman.decoder_of_lengths dist_lengths)
    else None
  in
  (litlen, dist)

(* The next token, unboxed: a literal byte, [-1] at the end of the
   block, or a match as [(length lsl 16) lor distance], which is at
   least [3 lsl 16] (distances stay below [2^16]). *)
let read_token r litlen dist =
  let sym = Huffman.read_symbol r litlen in
  if sym < 256 then sym
  else if sym = end_of_block then -1
  else begin
    (* [litlen] has [litlen_alphabet] symbols, so [sym] is 257..285. *)
    let length =
      length_bases.(sym - 257) + Bitio.Reader.read_bits_msb r length_extra.(sym - 257)
    in
    let decoder =
      match dist with
      | Some d -> d
      | None -> failwith "Deflate.decode_tokens: match without distances"
    in
    let dsym = Huffman.read_symbol r decoder in
    let distance =
      distance_bases.(dsym) + Bitio.Reader.read_bits_msb r distance_extra.(dsym)
    in
    (length lsl 16) lor distance
  end

let decode_tokens_sub_result data ~off ~len =
  let r = Bitio.Reader.create ~start:off ~len data in
  Codec_error.protect ~codec:"deflate"
    ~offset:(fun () -> Bitio.Reader.byte_position r)
  @@ fun () ->
  let litlen, dist = read_tables r in
  let tokens = ref [] in
  let rec loop () =
    let t = read_token r litlen dist in
    if t >= 0 then begin
      tokens :=
        (if t < 256 then Lz77.Literal (Char.chr t)
         else Lz77.Match { length = t lsr 16; distance = t land 0xffff })
        :: !tokens;
      loop ()
    end
  in
  loop ();
  List.rev !tokens

let decode_tokens_result data =
  decode_tokens_sub_result data ~off:0 ~len:(Bytes.length data)

let decode_tokens data = Codec_error.unwrap (decode_tokens_result data)

module Obs = Zipchannel_obs.Obs

let m_bytes_in = Obs.Metrics.counter "kernel.deflate.bytes_in"
let m_bytes_out = Obs.Metrics.counter "kernel.deflate.bytes_out"

let compress ?strategy ?max_chain input =
  Obs.with_span "deflate.compress"
    ~attrs:[ ("bytes", string_of_int (Bytes.length input)) ]
  @@ fun () ->
  let out = encode_token_array (Lz77.tokenize_array ?strategy ?max_chain input) in
  Obs.Metrics.add m_bytes_in (Bytes.length input);
  Obs.Metrics.add m_bytes_out (Bytes.length out);
  out

type output = { mutable buf : bytes; mutable len : int }

let output capacity = { buf = Bytes.create (max 64 capacity); len = 0 }

let[@inline never] reserve out extra =
  if out.len + extra > Bytes.length out.buf then begin
    let buf = Bytes.create (max (out.len + extra) (2 * Bytes.length out.buf)) in
    Bytes.blit out.buf 0 buf 0 out.len;
    out.buf <- buf
  end

let[@inline] add_byte out c =
  if out.len = Bytes.length out.buf then reserve out 1;
  Bytes.unsafe_set out.buf out.len c;
  out.len <- out.len + 1

let add_match out ~distance ~length =
  if distance < 1 || distance > out.len then invalid_arg "Deflate.add_match";
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

let contents out =
  if out.len = Bytes.length out.buf then out.buf else Bytes.sub out.buf 0 out.len

(* An out-of-window distance is corrupt input, but the rest of the
   stream is still parsed, so that a parse error anywhere in it is
   reported first, as {!decode_tokens_result} reports it. *)
let decompress_sub_result data ~off ~len =
  let r = Bitio.Reader.create ~start:off ~len data in
  Codec_error.protect ~codec:"deflate"
    ~offset:(fun () -> Bitio.Reader.byte_position r)
  @@ fun () ->
  let litlen, dist = read_tables r in
  let out = output (2 * len) in
  let too_far = ref false in
  let t = ref (read_token r litlen dist) in
  while !t >= 0 do
    let tok = !t in
    if tok < 256 then add_byte out (Char.unsafe_chr tok)
    else begin
      let distance = tok land 0xffff in
      if distance > out.len then too_far := true
      else add_match out ~distance ~length:(tok lsr 16)
    end;
    t := read_token r litlen dist
  done;
  if !too_far then
    Codec_error.fail ~codec:"deflate" "Lz77.detokenize: distance too large";
  contents out

let decompress_result data =
  decompress_sub_result data ~off:0 ~len:(Bytes.length data)

let decompress data = Codec_error.unwrap (decompress_result data)
