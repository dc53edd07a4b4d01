(* Regenerates the committed reproducer fixtures under fixtures/fuzz/.

   Each fixture is a minimized input for one decoder bug fixed during
   the structured-error hardening: before the fix it escaped as
   [Out_of_bits] (or allocated gigabytes); after it, the safe decoder
   returns a structured [Error].  Inputs are minimized with
   [Fuzz.Minimize] against "still rejected with the same reason", so
   the files stay as small as the bug allows.

     dune exec test/gen_fuzz_fixtures.exe -- test/fixtures/fuzz

   The [fuzz fixtures stay fixed] test in test_fuzz.ml replays every
   file in that directory. *)

module Compress = Zipchannel_compress
module Fuzz = Zipchannel_fuzz

let reason_contains needle = function
  | Error (e : Compress.Codec_error.t) ->
      let h = e.reason and n = needle in
      let rec at i =
        if i + String.length n > String.length h then false
        else if String.sub h i (String.length n) = n then true
        else at (i + 1)
      in
      at 0
  | Ok _ -> false

let minimized (codec : Fuzz.Codecs.t) ~reason input =
  let interesting c = reason_contains reason (codec.decode c) in
  if not (interesting input) then
    failwith
      (Printf.sprintf "%s reproducer no longer hits %S" codec.name reason);
  Fuzz.Minimize.minimize ~interesting input

(* Truncation reproducers pin the mid-stream escape (the original bug:
   [Out_of_bits] thrown from inside the decode loop), not the degenerate
   empty input — so the predicate also requires the decoder to have
   consumed bytes before running dry. *)
let truncated (codec : Fuzz.Codecs.t) ~reason plain =
  let packed = codec.compress plain in
  let input = Bytes.sub packed 0 (Bytes.length packed - 1) in
  let interesting c =
    match codec.decode c with
    | Error e as r -> reason_contains reason r && e.offset > 0
    | Ok _ -> false
  in
  if not (interesting input) then
    failwith
      (Printf.sprintf "%s truncation reproducer no longer hits %S" codec.name
         reason);
  Fuzz.Minimize.minimize ~interesting input

let reproducers () =
  let find name = Option.get (Fuzz.Codecs.find name) in
  let plain = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  [
    (* Out_of_bits escapes on truncated input, per decoder. *)
    (find "lzw", truncated (find "lzw") ~reason:"truncated" plain);
    (find "huffman", truncated (find "huffman") ~reason:"truncated" plain);
    (find "bzip2", truncated (find "bzip2") ~reason:"truncated" plain);
    (find "deflate", truncated (find "deflate") ~reason:"truncated" plain);
    (find "lz4", truncated (find "lz4") ~reason:"truncated" plain);
    (find "snappy", truncated (find "snappy") ~reason:"truncated" plain);
    (* Forged-length decompression bombs. *)
    ( find "lzw",
      minimized (find "lzw") ~reason:"exceeds what the input can encode"
        (Bytes.of_string "\xff\xff\xff\x7f") );
    ( find "huffman",
      minimized (find "huffman") ~reason:"exceeds what the input can encode"
        (let b = Compress.Huffman.encode (Bytes.of_string "hello hello") in
         Bytes.set b 0 '\x7f';
         Bytes.set b 1 '\xff';
         Bytes.set b 2 '\xff';
         Bytes.set b 3 '\xff';
         b) );
    ( find "lz4",
      minimized (find "lz4") ~reason:"exceeds what the input can encode"
        (* 4-byte LE header declaring a 2 GiB block over an empty payload. *)
        (Bytes.of_string "\xff\xff\xff\x7f") );
    ( find "snappy",
      minimized (find "snappy") ~reason:"exceeds what the input can encode"
        (* varint declaring 4 GiB of plaintext over an empty payload. *)
        (Bytes.of_string "\xff\xff\xff\xff\x0f") );
    ( find "bzip2",
      minimized (find "bzip2") ~reason:"block length exceeds maximum"
        (let w = Compress.Bitio.Writer.create () in
         String.iter
           (fun c ->
             Compress.Bitio.Writer.add_bits_msb w ~value:(Char.code c) ~count:8)
           "ZBZ2";
         Compress.Bitio.Writer.add_bits_msb w ~value:0x31 ~count:8;
         Compress.Bitio.Writer.add_bits_msb w ~value:0x7fff ~count:16;
         Compress.Bitio.Writer.add_bits_msb w ~value:0xffff ~count:16;
         Compress.Bitio.Writer.to_bytes w) );
    (* Frame container: truncated stream, forged magic, corrupted
       payload behind an intact per-frame CRC. *)
    (find "frame", truncated (find "frame") ~reason:"truncated" plain);
    ( find "frame",
      minimized (find "frame") ~reason:"bad magic"
        (let b = (find "frame").compress plain in
         Bytes.set b 0 'X';
         b) );
    ( find "frame",
      minimized (find "frame") ~reason:"payload checksum mismatch"
        (let b = (find "frame").compress plain in
         let p = Compress.Frame.header_len + Compress.Frame.frame_header_len in
         Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 0xff));
         b) );
    (* Forged directory entry count. *)
    ( find "archive",
      minimized (find "archive") ~reason:"implausible entry count"
        (let packed =
           Compress.Container.Archive.pack
             [
               {
                 Compress.Container.Archive.name = "a";
                 data = Bytes.of_string "hi";
               };
             ]
         in
         let n = Bytes.length packed in
         Bytes.set packed (n - 8) '\xff';
         Bytes.set packed (n - 7) '\xff';
         Bytes.set packed (n - 6) '\xff';
         Bytes.set packed (n - 5) '\x7f';
         packed) );
  ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fixtures/fuzz" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun ((codec : Fuzz.Codecs.t), input) ->
      let verdict, _ = Fuzz.Oracle.check codec ~budget_ms:0. input in
      (match verdict with
      | Fuzz.Oracle.Rejected _ -> ()
      | v ->
          failwith
            (Printf.sprintf "%s reproducer verdict: %s" codec.name
               (Fuzz.Oracle.verdict_label v)));
      let file =
        Printf.sprintf "%s-rejected-%s.bin" codec.name
          (Fuzz.Report.fnv1a input)
      in
      let path = Filename.concat dir file in
      let oc = open_out_bin path in
      output_bytes oc input;
      close_out oc;
      Printf.printf "%s (%d bytes)\n" path (Bytes.length input))
    (reproducers ())
