open Zipchannel_util
open Zipchannel_compress

let prng () = Prng.create ~seed:0x1951 ()

let bytes_testable =
  Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%d bytes" (Bytes.length b))
    Bytes.equal

let roundtrip ?kind name input =
  Alcotest.check bytes_testable name input
    (Deflate.decompress (Deflate.compress ?kind input))

let test_roundtrip_dynamic () =
  let t = prng () in
  roundtrip "empty" Bytes.empty;
  roundtrip "single" (Bytes.of_string "q");
  roundtrip "text"
    (Bytes.of_string (Lipsum.repetitive_file t ~level:4 ~size:8000));
  roundtrip "random" (Prng.bytes t 6000);
  roundtrip "runs" (Bytes.make 5000 '\000')

let test_roundtrip_fixed () =
  let t = prng () in
  roundtrip ~kind:Deflate.Fixed "fixed text"
    (Bytes.of_string (Lipsum.paragraph t));
  roundtrip ~kind:Deflate.Fixed "fixed empty" Bytes.empty;
  roundtrip ~kind:Deflate.Fixed "fixed random" (Prng.bytes t 3000)

let test_roundtrip_stored () =
  let t = prng () in
  roundtrip ~kind:Deflate.Stored "stored" (Prng.bytes t 1000);
  roundtrip ~kind:Deflate.Stored "stored empty" Bytes.empty;
  (* Multiple stored blocks: above the 65535 per-block limit. *)
  roundtrip ~kind:Deflate.Stored "stored 100k" (Prng.bytes t 100_000)

let test_compresses_text () =
  let t = prng () in
  let text = Bytes.of_string (Lipsum.repetitive_file t ~level:3 ~size:20_000) in
  let enc = Deflate.compress text in
  Alcotest.(check bool) "dynamic block compresses" true
    (Bytes.length enc < Bytes.length text / 3)

let test_malformed_rejected () =
  let expect_failure name data =
    match Deflate.decompress data with
    | _ -> Alcotest.failf "%s: should have failed" name
    | exception Failure _ -> ()
  in
  expect_failure "empty stream" Bytes.empty;
  expect_failure "reserved block type" (Bytes.of_string "\x07");
  expect_failure "truncated stored" (Bytes.of_string "\x01\x0a\x00")

let test_stored_length_check () =
  (* Corrupt NLEN of a stored block. *)
  let enc = Deflate.compress ~kind:Deflate.Stored (Bytes.of_string "data") in
  let bad = Bytes.copy enc in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 0xff));
  match Deflate.decompress bad with
  | _ -> Alcotest.fail "should reject bad NLEN"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Interop fixtures produced by Python's zlib/gzip (see test/fixtures). *)

let fixture name ext =
  let path = Printf.sprintf "fixtures/%s.%s" name ext in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let fixture_names = [ "empty"; "single"; "text"; "random2k"; "runs" ]

let test_inflate_zlib_streams () =
  List.iter
    (fun name ->
      Alcotest.check bytes_testable ("inflate " ^ name) (fixture name "plain")
        (Deflate.decompress (fixture name "deflate")))
    fixture_names

let test_unzlib_streams () =
  List.iter
    (fun name ->
      Alcotest.check bytes_testable ("unzlib " ^ name) (fixture name "plain")
        (Deflate.Zlib.decompress (fixture name "zlib")))
    fixture_names

let test_gunzip_streams () =
  List.iter
    (fun name ->
      Alcotest.check bytes_testable ("gunzip " ^ name) (fixture name "plain")
        (Deflate.Gzip.decompress (fixture name "gz")))
    fixture_names

(* ------------------------------------------------------------------ *)
(* Wrappers *)

let test_zlib_wrapper () =
  let t = prng () in
  let data = Prng.bytes t 4000 in
  Alcotest.check bytes_testable "roundtrip" data
    (Deflate.Zlib.decompress (Deflate.Zlib.compress data));
  let enc = Deflate.Zlib.compress data in
  Alcotest.(check int) "CMF is 0x78" 0x78 (Char.code (Bytes.get enc 0));
  Alcotest.(check int) "header check" 0
    (((Char.code (Bytes.get enc 0) * 256) + Char.code (Bytes.get enc 1)) mod 31)

(* [decode bad] is a [codec] error at byte [offset]. *)
let rejected_at name decode ~codec ~offset bad =
  match decode bad with
  | Ok _ -> Alcotest.failf "%s: decoded" name
  | Error (e : Codec_error.t) ->
      Alcotest.(check (pair string int)) name (codec, offset)
        (e.codec, e.offset)

let test_zlib_wrapper_corruption () =
  let enc = Deflate.Zlib.compress (Bytes.of_string "payload payload") in
  let bad = Bytes.copy enc in
  let last = Bytes.length bad - 1 in
  Bytes.set bad last (Char.chr (Char.code (Bytes.get bad last) lxor 1));
  (match Deflate.Zlib.decompress bad with
  | _ -> Alcotest.fail "adler mismatch should fail"
  | exception Failure _ -> ());
  (* CINFO 8 (a 64 KiB window) is above RFC 1950's limit of 7, even
     behind a correct FCHECK. *)
  let wide = Bytes.copy enc in
  Bytes.set wide 0 '\x88';
  Bytes.set wide 1 (Char.chr ((31 - (0x88 * 256 mod 31)) mod 31));
  rejected_at "CINFO 8" Deflate.Zlib.decompress_result ~codec:"zlib" ~offset:0
    wide

let test_gzip_wrapper () =
  let t = prng () in
  let data = Prng.bytes t 4000 in
  let enc = Deflate.Gzip.compress ~name:"secret.bin" data in
  Alcotest.check bytes_testable "roundtrip" data (Deflate.Gzip.decompress enc);
  Alcotest.(check (option string)) "fname field" (Some "secret.bin")
    (Deflate.Gzip.original_name enc);
  let anon = Deflate.Gzip.compress data in
  Alcotest.(check (option string)) "no fname" None
    (Deflate.Gzip.original_name anon)

let test_gzip_wrapper_corruption () =
  let enc = Deflate.Gzip.compress (Bytes.of_string "payload payload") in
  let bad = Bytes.copy enc in
  let pos = Bytes.length bad - 6 in
  Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 1));
  (match Deflate.Gzip.decompress bad with
  | _ -> Alcotest.fail "crc/size mismatch should fail"
  | exception Failure _ -> ());
  (* RFC 1952 reserves FLG bits 5-7: a member that sets one is an error. *)
  List.iter
    (fun bit ->
      let flagged = Bytes.copy enc in
      Bytes.set flagged 3 (Char.chr (Char.code (Bytes.get enc 3) lor bit));
      rejected_at
        (Printf.sprintf "FLG 0x%02x" bit)
        Deflate.Gzip.decompress_result ~codec:"gzip" ~offset:3 flagged)
    [ 0x20; 0x40; 0x80 ]

(* Three-letter strings: long and overlapping matches, and dynamic
   headers full of repeat codes, which uniform bytes rarely produce. *)
let qcheck_rfc1951 =
  QCheck.Test.make ~name:"rfc1951 dynamic roundtrip" ~count:120
    QCheck.(string_gen_of_size Gen.(0 -- 3000) (Gen.oneofl [ 'a'; 'b'; 'c' ]))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Deflate.decompress (Deflate.compress b)))

let qcheck_rfc1951_fixed =
  QCheck.Test.make ~name:"rfc1951 fixed roundtrip" ~count:80
    QCheck.(string_of_size QCheck.Gen.(0 -- 2000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Deflate.decompress (Deflate.compress ~kind:Deflate.Fixed b)))

let qcheck_gzip =
  QCheck.Test.make ~name:"gzip wrapper roundtrip" ~count:60
    QCheck.(string_of_size QCheck.Gen.(0 -- 2000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Deflate.Gzip.decompress (Deflate.Gzip.compress b)))

(* Garbage behind a final fixed-Huffman block header (bits 1, 01), so
   that every case reaches the fixed tables' token loop. *)
let qcheck_inflate_robust =
  QCheck.Test.make ~name:"inflate never crashes on garbage" ~count:300
    QCheck.(string_of_size QCheck.Gen.(1 -- 300))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.set b 0 (Char.chr ((Char.code (Bytes.get b 0) land 0xf8) lor 0b011));
      match Deflate.decompress b with
      | _ -> true
      | exception Failure _ -> true)

(* [decode_tokens] reads back the tokens [compress] coded, in dynamic
   and fixed blocks, and on any input agrees with [decompress]: the
   bytes its tokens spell, or the same error. *)
let qcheck_decode_tokens =
  QCheck.Test.make ~name:"decode_tokens agrees with compress and decompress"
    ~count:100
    QCheck.(
      pair
        (string_gen_of_size Gen.(0 -- 2000) (Gen.oneofl [ 'a'; 'b'; 'c' ]))
        (string_of_size Gen.(1 -- 200)))
    (fun (s, g) ->
      let b = Bytes.of_string s in
      let tokens = Array.to_list (Lz77.tokenize_array b) in
      let garbage = Bytes.of_string g in
      Bytes.set garbage 0
        (Char.chr ((Char.code (Bytes.get garbage 0) land 0xf8) lor 0b101));
      List.for_all
        (fun kind -> Deflate.decode_tokens (Deflate.compress ~kind b) = tokens)
        [ Deflate.Dynamic; Deflate.Fixed ]
      &&
      match
        (Deflate.decode_tokens_result garbage, Deflate.decompress_result garbage)
      with
      | Ok t, Ok out -> Bytes.equal (Oracles.detokenize (Array.of_list t)) out
      | Error e, Error e' -> e = e'
      | _ -> false)

(* The register-buffer inflate loop against [decode_tokens], which
   decodes every token with [read_token], the loop's own tail: on
   valid, truncated and bit-flipped streams long enough for the loop to
   run, the same bytes or the same error (codec, offset and reason). *)
let qcheck_inflate_loop =
  QCheck.Test.make ~name:"inflate loop = token-at-a-time inflate" ~count:300
    QCheck.(
      triple
        (string_gen_of_size Gen.(0 -- 3000) (Gen.oneofl [ 'a'; 'b'; 'c'; 'd'; ' ' ]))
        (oneofl [ Deflate.Dynamic; Deflate.Fixed; Deflate.Stored ])
        (pair (int_bound 2) (pair (int_bound 1_000_000) (int_bound 1_000_000))))
    (fun (s, kind, (mutation, (at, bit))) ->
      let packed = Deflate.compress ~kind (Bytes.of_string s) in
      let n = Bytes.length packed in
      let input =
        match mutation with
        | 0 -> packed
        | 1 -> Bytes.sub packed 0 (at mod n)
        | _ ->
            let b = Bytes.copy packed and k = bit mod (8 * n) in
            Bytes.set b (k / 8)
              (Char.chr (Char.code (Bytes.get b (k / 8)) lxor (1 lsl (k mod 8))));
            b
      in
      match (Deflate.decode_tokens_result input, Deflate.decompress_result input) with
      | Ok t, Ok out -> Bytes.equal (Oracles.detokenize (Array.of_list t)) out
      | Error e, Error e' -> e = e'
      | _ -> false)

let suite =
  ( "rfc1951",
    [
      Alcotest.test_case "dynamic roundtrips" `Quick test_roundtrip_dynamic;
      Alcotest.test_case "fixed roundtrips" `Quick test_roundtrip_fixed;
      Alcotest.test_case "stored roundtrips" `Quick test_roundtrip_stored;
      Alcotest.test_case "compresses text" `Quick test_compresses_text;
      Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
      Alcotest.test_case "stored length check" `Quick test_stored_length_check;
      Alcotest.test_case "inflate python streams" `Quick test_inflate_zlib_streams;
      Alcotest.test_case "unzlib python streams" `Quick test_unzlib_streams;
      Alcotest.test_case "gunzip python streams" `Quick test_gunzip_streams;
      Alcotest.test_case "zlib wrapper" `Quick test_zlib_wrapper;
      Alcotest.test_case "zlib corruption" `Quick test_zlib_wrapper_corruption;
      Alcotest.test_case "gzip wrapper" `Quick test_gzip_wrapper;
      Alcotest.test_case "gzip corruption" `Quick test_gzip_wrapper_corruption;
      QCheck_alcotest.to_alcotest qcheck_rfc1951;
      QCheck_alcotest.to_alcotest qcheck_rfc1951_fixed;
      QCheck_alcotest.to_alcotest qcheck_gzip;
      QCheck_alcotest.to_alcotest qcheck_inflate_robust;
      QCheck_alcotest.to_alcotest qcheck_decode_tokens;
      QCheck_alcotest.to_alcotest qcheck_inflate_loop;
    ] )
