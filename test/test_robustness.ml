(* Decoder robustness: every decompressor must reject arbitrary garbage
   with its documented exception — never crash, hang, or succeed with
   out-of-spec output.  Also mutation tests: valid streams with one
   flipped byte must decode to the original, fail cleanly, or (for
   formats without integrity checks) decode to *something* without
   crashing.

   Since the structured-error hardening, [Out_of_bits] escaping a public
   decode API is itself a bug: the accepted exceptions here are exactly
   the documented ones ([Failure], [Invalid_argument],
   [Container.Corrupt]) and nothing else. *)

open Zipchannel_util
open Zipchannel_compress

let prng () = Prng.create ~seed:0x0B057 ()

let never_crashes name f =
  QCheck.Test.make ~name ~count:300
    QCheck.(string_of_size QCheck.Gen.(0 -- 400))
    (fun s ->
      match f (Bytes.of_string s) with
      | (_ : bytes) -> true
      | exception Failure _ -> true
      | exception Invalid_argument _ -> true
      | exception Container.Corrupt _ -> true)

let qcheck_bzip2_garbage = never_crashes "bzip2 decompress survives garbage" Bzip2.decompress

let qcheck_lzw_garbage = never_crashes "lzw decompress survives garbage" Lzw.decompress

let qcheck_huffman_garbage = never_crashes "huffman decode survives garbage" Huffman.decode

let qcheck_deflate_garbage = never_crashes "deflate decompress survives garbage" Deflate.decompress

(* Garbage behind a final dynamic-Huffman block header (bits 1, 10), so
   that every case reaches the code-length code and table reads. *)
let qcheck_inflate_garbage =
  never_crashes "rfc1951 inflate survives garbage" (fun b ->
      if Bytes.length b > 0 then
        Bytes.set b 0 (Char.chr ((Char.code (Bytes.get b 0) land 0xf8) lor 0b101));
      Deflate.decompress b)

let qcheck_zlib_garbage = never_crashes "zlib decompress survives garbage" Deflate.Zlib.decompress

let qcheck_gzip_garbage = never_crashes "gzip decompress survives garbage" Deflate.Gzip.decompress

let qcheck_stream_garbage = never_crashes "stream unpack survives garbage" Container.Stream.unpack

let qcheck_archive_garbage = never_crashes "archive unpack survives garbage"
    (fun b -> Bytes.concat Bytes.empty (List.map (fun e -> e.Container.Archive.data) (Container.Archive.unpack b)))

let qcheck_rle1_garbage = never_crashes "rle1 decode survives garbage" Rle1.decode

(* Mutation testing: flip one byte of a valid stream. *)
let mutate t data =
  if Bytes.length data = 0 then data
  else begin
    let b = Bytes.copy data in
    let pos = Prng.int t (Bytes.length b) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Prng.int t 255)));
    b
  end

let mutation_survives name compress decompress =
  let t = prng () in
  fun () ->
    for _ = 1 to 60 do
      let plain = Prng.bytes t (16 + Prng.int t 500) in
      let packed = mutate t (compress plain) in
      match decompress packed with
      | (_ : bytes) -> ()
      | exception Failure _ -> ()
      | exception Invalid_argument _ -> ()
      | exception Container.Corrupt _ -> ()
      | exception e ->
          Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)
    done

let checked_formats_reject_mutations () =
  (* Formats with checksums must never silently return wrong data. *)
  let t = prng () in
  let run name compress decompress =
    for _ = 1 to 60 do
      let plain = Prng.bytes t (16 + Prng.int t 400) in
      let packed = compress plain in
      let damaged = mutate t packed in
      if not (Bytes.equal damaged packed) then
        match decompress damaged with
        | out ->
            if not (Bytes.equal out plain) then
              Alcotest.failf "%s: silent corruption" name
        | exception _ -> ()
    done
  in
  run "gzip" (fun b -> Deflate.Gzip.compress b) Deflate.Gzip.decompress;
  run "zlib" (fun b -> Deflate.Zlib.compress b) Deflate.Zlib.decompress;
  run "stream" Container.Stream.pack Container.Stream.unpack

let suite =
  ( "robustness",
    [
      QCheck_alcotest.to_alcotest qcheck_bzip2_garbage;
      QCheck_alcotest.to_alcotest qcheck_lzw_garbage;
      QCheck_alcotest.to_alcotest qcheck_huffman_garbage;
      QCheck_alcotest.to_alcotest qcheck_deflate_garbage;
      QCheck_alcotest.to_alcotest qcheck_inflate_garbage;
      QCheck_alcotest.to_alcotest qcheck_zlib_garbage;
      QCheck_alcotest.to_alcotest qcheck_gzip_garbage;
      QCheck_alcotest.to_alcotest qcheck_stream_garbage;
      QCheck_alcotest.to_alcotest qcheck_archive_garbage;
      QCheck_alcotest.to_alcotest qcheck_rle1_garbage;
      Alcotest.test_case "bzip2 mutations" `Quick
        (mutation_survives "bzip2" (fun b -> Bzip2.compress b) Bzip2.decompress);
      Alcotest.test_case "lzw mutations" `Quick
        (mutation_survives "lzw" Lzw.compress Lzw.decompress);
      Alcotest.test_case "inflate mutations" `Quick
        (mutation_survives "deflate" (fun b -> Deflate.compress b) Deflate.decompress);
      Alcotest.test_case "checked formats reject mutations" `Quick
        checked_formats_reject_mutations;
    ] )
