(* The fuzzing harness and the decoder-hardening work it proves:

   - campaign determinism (same seed, any --jobs -> same report)
   - the harness finds nothing on the hardened decoders (smoke)
   - corpus / mutation / minimizer units
   - truncated-input regressions for every codec
   - decompression-bomb guards: forged length fields are rejected fast
     and cheap (< 1 MB allocated)
   - the Huffman golden stream (pins the serialization so the explicit
     decode loop can never silently depend on evaluation order again)
   - qcheck properties per codec riding the same mutation engine
   - committed reproducer fixtures under fixtures/fuzz/ keep failing
     into [Error]
   - grep-enforced: no public compress API documents an [Out_of_bits]
     escape *)

open Zipchannel_util
module Compress = Zipchannel_compress
module Fuzz = Zipchannel_fuzz

let contains = Str_search.contains

(* ------------------------------------------------------------------ *)
(* Campaign determinism and smoke *)

let campaign_deterministic_across_jobs () =
  let run jobs =
    Fuzz.Report.render (Fuzz.Runner.run ~seed:42 ~runs:300 ~jobs ())
  in
  Alcotest.(check string) "jobs 1 = jobs 3" (run 1) (run 3)

let campaign_deterministic_across_repeats () =
  let run () =
    Fuzz.Report.render (Fuzz.Runner.run ~seed:9 ~runs:200 ~jobs:2 ())
  in
  Alcotest.(check string) "repeat" (run ()) (run ())

let campaign_finds_nothing () =
  let report = Fuzz.Runner.run ~seed:3 ~runs:600 ~jobs:2 () in
  (match Fuzz.Report.failures report with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "unexpected failure: %s"
        (Fuzz.Report.fixture_name f));
  (* the runner floors runs to a per-codec share *)
  let n_codecs = List.length Fuzz.Codecs.all in
  Alcotest.(check int) "all cases ran"
    (600 / n_codecs * n_codecs)
    report.Fuzz.Report.total_runs

let seeds_differ () =
  let render seed =
    Fuzz.Report.render (Fuzz.Runner.run ~seed ~runs:100 ~jobs:1 ())
  in
  (* Different seeds must drive different campaigns; the reports agree
     only if every verdict tally happens to coincide, which the
     accepted/rejected splits make astronomically unlikely. *)
  Alcotest.(check bool) "seed changes the campaign" false
    (render 1 = render 2)

(* ------------------------------------------------------------------ *)
(* Units: corpus, mutate, minimize, report *)

let corpus_pool_deterministic () =
  let lzw = Option.get (Fuzz.Codecs.find "lzw") in
  let p1 = Fuzz.Corpus.pool lzw ~seed:7 ~size:16 in
  let p2 = Fuzz.Corpus.pool lzw ~seed:7 ~size:16 in
  Alcotest.(check bool) "same seed, same pool" true (p1 = p2);
  Alcotest.(check bytes) "index 0 is the empty plaintext"
    (Compress.Lzw.compress Bytes.empty) p1.(0)

let mutate_changes_input () =
  let rng = Prng.create ~seed:11 () in
  let corpus = [| Bytes.of_string "corpus entry" |] in
  let base = Bytes.of_string "a valid stream" in
  for _ = 1 to 100 do
    let m = Fuzz.Mutate.mutate rng ~corpus base in
    if Bytes.equal m base then Alcotest.fail "mutate returned its input"
  done

let mutate_deterministic () =
  let corpus = [| Bytes.of_string "corpus" |] in
  let base = Bytes.of_string "another stream" in
  let burst seed =
    let rng = Prng.create ~seed () in
    List.init 20 (fun _ -> Fuzz.Mutate.mutate rng ~corpus base)
  in
  Alcotest.(check bool) "same rng, same mutants" true (burst 5 = burst 5)

let minimizer_shrinks_to_core () =
  let b = Bytes.make 64 'x' in
  Bytes.set b 37 '\xaa';
  let interesting c = Bytes.exists (fun ch -> ch = '\xaa') c in
  let m = Fuzz.Minimize.minimize ~interesting b in
  Alcotest.(check int) "one byte survives" 1 (Bytes.length m);
  Alcotest.(check char) "the interesting one" '\xaa' (Bytes.get m 0)

let minimizer_rejects_boring_input () =
  match
    Fuzz.Minimize.minimize ~interesting:(fun _ -> false) (Bytes.create 4)
  with
  | (_ : bytes) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let minimizer_result_stays_interesting () =
  (* Predicate: decodes to an Error mentioning "truncated". *)
  let lzw = Option.get (Fuzz.Codecs.find "lzw") in
  let packed = Compress.Lzw.compress (Bytes.of_string "abcabcabcabc") in
  let truncated = Bytes.sub packed 0 (Bytes.length packed - 2) in
  let interesting c =
    match lzw.Fuzz.Codecs.decode c with
    | Error e -> contains e.Compress.Codec_error.reason "truncated"
    | Ok _ -> false
  in
  if interesting truncated then begin
    let m = Fuzz.Minimize.minimize ~interesting truncated in
    Alcotest.(check bool) "still interesting" true (interesting m);
    Alcotest.(check bool) "no larger" true
      (Bytes.length m <= Bytes.length truncated)
  end

let fixture_names_are_stable () =
  Alcotest.(check string) "fnv1a of empty" "cbf29ce484222325"
    (Fuzz.Report.fnv1a Bytes.empty);
  let f =
    {
      Fuzz.Report.codec = "lzw";
      case = 3;
      verdict = Fuzz.Oracle.Crash { exn = "boom" };
      input = Bytes.empty;
      original_len = 10;
    }
  in
  Alcotest.(check string) "name" "lzw-crash-cbf29ce484222325.bin"
    (Fuzz.Report.fixture_name f)

let write_fixtures_roundtrip () =
  let input = Bytes.of_string "\x00\x01reproducer" in
  let report =
    {
      Fuzz.Report.seed = 1;
      total_runs = 1;
      stats =
        [
          {
            Fuzz.Report.name = "lzw";
            runs = 1;
            accepted = 0;
            rejected = 0;
            failures =
              [
                {
                  Fuzz.Report.codec = "lzw";
                  case = 0;
                  verdict = Fuzz.Oracle.Crash { exn = "boom" };
                  input;
                  original_len = 99;
                };
              ];
          };
        ];
    }
  in
  let dir = Filename.concat "." "_fuzz_fixture_out" in
  match Fuzz.Runner.write_fixtures ~dir report with
  | [ path ] ->
      let ic = open_in_bin path in
      let back = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      Alcotest.(check string) "bytes round trip" (Bytes.to_string input) back
  | paths -> Alcotest.failf "expected one fixture, got %d" (List.length paths)

(* ------------------------------------------------------------------ *)
(* Truncated-input regressions: every prefix of a valid stream must hit
   a structured error (or decode, for prefix-closed formats like rle1),
   never an escaped exception. *)

let truncation_regressions () =
  let plain = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  List.iter
    (fun (codec : Fuzz.Codecs.t) ->
      let packed = codec.compress plain in
      for len = 0 to Bytes.length packed - 1 do
        let cut = Bytes.sub packed 0 len in
        let verdict, _ = Fuzz.Oracle.check codec ~budget_ms:0. cut in
        if Fuzz.Oracle.is_failure verdict then
          Alcotest.failf "%s: prefix %d/%d bytes: %s" codec.name len
            (Bytes.length packed)
            (Fuzz.Oracle.verdict_label verdict)
      done)
    Fuzz.Codecs.all

let truncation_reports_codec_and_offset () =
  let packed = Compress.Lzw.compress (Bytes.of_string "abcabcabc") in
  match
    Compress.Lzw.decompress_result (Bytes.sub packed 0 (Bytes.length packed - 1))
  with
  | Ok _ -> Alcotest.fail "truncated lzw stream decoded"
  | Error e ->
      Alcotest.(check string) "codec" "lzw" e.Compress.Codec_error.codec;
      Alcotest.(check bool) "offset inside input" true
        (e.Compress.Codec_error.offset >= 0
        && e.Compress.Codec_error.offset <= Bytes.length packed)

(* ------------------------------------------------------------------ *)
(* Decompression bombs: forged length fields must be rejected before
   allocation, not after.  Each reproducer is a few bytes claiming a
   ~2^31-byte output; the decoder must error fast with < 1 MB
   allocated. *)

let check_cheap name what f =
  let before = Gc.allocated_bytes () in
  f ();
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 1_048_576. then
    Alcotest.failf "%s: %s only after allocating %.0f bytes" name what
      allocated

let cheap_reject name decode input =
  check_cheap name "rejected" (fun () ->
      match decode input with
      | Ok (_ : bytes) -> Alcotest.failf "%s: bomb decoded" name
      | Error (_ : Compress.Codec_error.t) -> ())

let read_from data =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (Bytes.length data - !pos) in
    Bytes.blit data !pos buf off n;
    pos := !pos + n;
    n

let frame_clen_bomb () =
  (* "ZCF1" | deflate | one data-frame header declaring the largest
     payload the format admits (2^27 - 1 bytes) | 16 payload bytes, then
     end of input.  Every frame decoder — the daemon's streaming one at
     any jobs and the whole-buffer one the fuzzer drives — must call it
     truncated without staging the declared payload. *)
  let module Frame = Compress.Frame in
  let bomb = Bytes.make 37 '\x5a' in
  Bytes.blit_string "ZCF1\000\000\000\000" 0 bomb 0 Frame.header_len;
  Bytes.set bomb 4 (Char.chr (Frame.codec_id Frame.Deflate));
  Bytes.set bomb 8 '\x01';
  Bytes.set_int32_le bomb 9 (Int32.of_int Frame.max_frame_size);
  Bytes.set_int32_le bomb 13 (Int32.of_int (Frame.max_frame_clen - 1));
  Bytes.set_int32_le bomb 17 0l;
  let stream jobs input =
    let out = Buffer.create 64 in
    Frame.decompress_stream ~jobs ~read:(read_from input)
      ~write:(fun b ~off ~len -> Buffer.add_subbytes out b off len)
      ()
    |> Result.map (fun () -> Buffer.to_bytes out)
  in
  (* Each case runs once before it is measured: the first domain spawn
     after other domains have run bumps the caller's allocation counters
     by up to ~1.3 MB, a no-op [Domain.spawn] included, and only once. *)
  List.iter
    (fun (name, decode) ->
      (match decode bomb with
      | Error e ->
          Alcotest.(check bool) (name ^ " calls it truncated") true
            (contains e.Compress.Codec_error.reason "truncated")
      | Ok _ -> Alcotest.failf "%s: bomb decoded" name);
      cheap_reject name decode bomb)
    [
      ("frame decompress_stream jobs 1", stream 1);
      ("frame decompress_stream jobs 2", stream 2);
      ("frame decompress_result", Frame.decompress_result);
    ]

let frame_size_bound () =
  (* [zc serve] takes [frame_size] from the client's request header, up
     to the format's 64 MiB ceiling: a 1-byte request must not pay for
     the frame it never fills. *)
  let module Frame = Compress.Frame in
  List.iter
    (fun jobs ->
      let compress () =
        Frame.compress_stream ~frame_size:Frame.max_frame_size ~jobs
          ~codec:Frame.Deflate
          ~read:(read_from (Bytes.of_string "x"))
          ~write:(fun _ ~off:_ ~len:_ -> ())
          ()
      in
      (* unmeasured first run, as in [frame_clen_bomb] *)
      compress ();
      check_cheap
        (Printf.sprintf "frame compress_stream jobs %d" jobs)
        "compressed 1 byte" compress)
    [ 1; 2 ]

let lzw_bomb () =
  (* 16-bit LSB low half then high half: declares 0x7fffffff bytes from
     an empty payload. *)
  let bomb = Bytes.of_string "\xff\xff\xff\x7f" in
  cheap_reject "lzw" Compress.Lzw.decompress_result bomb;
  match Compress.Lzw.decompress_result bomb with
  | Error e ->
      Alcotest.(check bool) "mentions the guard" true
        (contains e.Compress.Codec_error.reason "exceeds what the input can encode")
  | Ok _ -> assert false

let huffman_bomb () =
  (* Valid stream for "hello hello" with the leading 32-bit MSB length
     overwritten to 0x7fffffff: tables parse, then the declared length
     must fail the bits-remaining check. *)
  let b = Compress.Huffman.encode (Bytes.of_string "hello hello") in
  Bytes.set b 0 '\x7f';
  Bytes.set b 1 '\xff';
  Bytes.set b 2 '\xff';
  Bytes.set b 3 '\xff';
  cheap_reject "huffman" Compress.Huffman.decode_result b

let bzip2_bomb () =
  (* magic | block marker | u32 block length way past the format cap. *)
  let w = Compress.Bitio.Writer.create () in
  String.iter
    (fun c -> Compress.Bitio.Writer.add_bits_msb w ~value:(Char.code c) ~count:8)
    "ZBZ2";
  Compress.Bitio.Writer.add_bits_msb w ~value:0x31 ~count:8;
  Compress.Bitio.Writer.add_bits_msb w ~value:0x7fff ~count:16;
  Compress.Bitio.Writer.add_bits_msb w ~value:0xffff ~count:16;
  let bomb = Compress.Bitio.Writer.to_bytes w in
  cheap_reject "bzip2" Compress.Bzip2.decompress_result bomb;
  match Compress.Bzip2.decompress_result bomb with
  | Error e ->
      Alcotest.(check bool) "mentions the cap" true
        (contains e.Compress.Codec_error.reason "block length exceeds maximum")
  | Ok _ -> assert false

let lz4_bomb () =
  (* 4-byte LE header declaring 0x7fffffff plaintext bytes over an empty
     payload: the LZ4 worst-case bound (255 per input byte) cannot cover
     it, so the guard fires before the output buffer exists. *)
  let bomb = Bytes.of_string "\xff\xff\xff\x7f" in
  cheap_reject "lz4" Compress.Lz4.decompress_result bomb;
  match Compress.Lz4.decompress_result bomb with
  | Error e ->
      Alcotest.(check bool) "mentions the guard" true
        (contains e.Compress.Codec_error.reason "exceeds what the input can encode")
  | Ok _ -> assert false

let snappy_bomb () =
  (* 5-byte varint declaring ~4 GiB of plaintext over an empty payload;
     the run-length bound (22 per input byte) rejects it up front. *)
  let bomb = Bytes.of_string "\xff\xff\xff\xff\x0f" in
  cheap_reject "snappy" Compress.Snappy.decompress_result bomb;
  match Compress.Snappy.decompress_result bomb with
  | Error e ->
      Alcotest.(check bool) "mentions the guard" true
        (contains e.Compress.Codec_error.reason "exceeds what the input can encode")
  | Ok _ -> assert false

let snappy_varint_overflow () =
  (* Six continuation bytes push the varint shift past 32 bits; the
     decoder must call the length malformed, not wrap it. *)
  let bomb = Bytes.of_string "\xff\xff\xff\xff\xff\x01" in
  match Compress.Snappy.decompress_result bomb with
  | Ok _ -> Alcotest.fail "overflowing varint decoded"
  | Error e ->
      Alcotest.(check bool) "mentions the varint" true
        (contains e.Compress.Codec_error.reason "malformed length varint")

let rle2_run_bomb () =
  (* ~100 RUNA digits demand ~2^100 zeros; the doubling accumulator must
     trip the output cap instead of overflowing into a negative count
     (or dying in the allocator). *)
  let bomb = Array.make 101 0 in
  bomb.(100) <- Compress.Rle2.eob;
  let before = Gc.allocated_bytes () in
  (match Compress.Rle2.decode_result bomb with
  | Ok _ -> Alcotest.fail "rle2: run bomb decoded"
  | Error e ->
      Alcotest.(check bool) "mentions the limit" true
        (contains e.Compress.Codec_error.reason "exceeds limit"));
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 1_048_576. then
    Alcotest.failf "rle2: rejected only after allocating %.0f bytes" allocated

let rle2_max_output_respected () =
  (* A legitimate 100-zero run decodes under a roomy cap and errors
     under a tight one. *)
  let symbols = Compress.Rle2.encode (Array.make 100 0) in
  (match Compress.Rle2.decode_result ~max_output:100 symbols with
  | Ok out -> Alcotest.(check int) "run restored" 100 (Array.length out)
  | Error e -> Alcotest.failf "cap 100 rejected: %s" e.Compress.Codec_error.reason);
  match Compress.Rle2.decode_result ~max_output:99 symbols with
  | Ok _ -> Alcotest.fail "cap 99 decoded 100 zeros"
  | Error _ -> ()

let archive_forged_count () =
  let packed =
    Compress.Container.Archive.pack
      [ { Compress.Container.Archive.name = "a"; data = Bytes.of_string "hi" } ]
  in
  let n = Bytes.length packed in
  (* Overwrite the u32 entry count (at n-8) with 0x7fffffff. *)
  Bytes.set packed (n - 8) '\xff';
  Bytes.set packed (n - 7) '\xff';
  Bytes.set packed (n - 6) '\xff';
  Bytes.set packed (n - 5) '\x7f';
  let before = Gc.allocated_bytes () in
  (match Compress.Container.Archive.unpack_result packed with
  | Ok _ -> Alcotest.fail "forged count decoded"
  | Error e ->
      Alcotest.(check bool) "mentions the count" true
        (contains e.Compress.Codec_error.reason "implausible entry count"));
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 1_048_576. then
    Alcotest.failf "archive: rejected only after allocating %.0f bytes" allocated

(* ------------------------------------------------------------------ *)
(* Huffman golden stream: pins the exact serialization of
   encode "abracadabra".  The decode loop once used [Bytes.init], whose
   unspecified application order would scramble exactly this stream. *)

let huffman_golden_hex =
  String.concat ""
    [
      "0000000b010000000000000000000000000000000000000000000000000000000000";
      "00000000000000000000000000000000000000000124400000000000003000000000";
      "00000000000000000000000000000000000000000000000000000000000000000000";
      "000000000000000000000000000000000000000000000000000000000000000059cf";
      "58";
    ]

let hex_of b =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (Bytes.length b) (Bytes.get b)))

let huffman_golden () =
  let plain = Bytes.of_string "abracadabra" in
  let enc = Compress.Huffman.encode plain in
  Alcotest.(check string) "encoding is pinned" huffman_golden_hex (hex_of enc);
  Alcotest.(check bytes) "decodes in order" plain (Compress.Huffman.decode enc)

(* ------------------------------------------------------------------ *)
(* qcheck properties per codec, riding the Fuzz engine *)

let qcheck_roundtrip (codec : Fuzz.Codecs.t) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s round trip (fuzz corpus)" codec.name)
    ~count:60 QCheck.small_nat
    (fun salt ->
      let rng = Prng.create ~seed:(0x5eed + salt) () in
      let plain = Fuzz.Corpus.plain rng ~max_len:codec.max_plain in
      match Fuzz.Oracle.roundtrip codec ~budget_ms:0. plain with
      | Fuzz.Oracle.Accepted, _ -> true
      | v, _ ->
          QCheck.Test.fail_reportf "%s: %s" codec.name
            (Fuzz.Oracle.verdict_label v))

let qcheck_mutations (codec : Fuzz.Codecs.t) =
  let corpus = Fuzz.Corpus.pool codec ~seed:0xf00d ~size:8 in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s survives fuzz mutations" codec.name)
    ~count:120 QCheck.small_nat
    (fun salt ->
      let rng = Prng.create ~seed:(0xabcd + salt) () in
      let input = Fuzz.Mutate.mutate rng ~corpus (Prng.pick rng corpus) in
      match Fuzz.Oracle.check codec ~budget_ms:0. input with
      | (Fuzz.Oracle.Accepted | Fuzz.Oracle.Rejected _), _ -> true
      | v, _ ->
          QCheck.Test.fail_reportf "%s: %s" codec.name
            (Fuzz.Oracle.verdict_label v))

(* ------------------------------------------------------------------ *)
(* Committed reproducer fixtures: every file under fixtures/fuzz/ is a
   minimized input that once crashed (or bombed) its decoder; all must
   now land in [Error] without an escaped exception. *)

let fixture_dir = Filename.concat "fixtures" "fuzz"

let codec_of_fixture file =
  match String.index_opt file '-' with
  | None -> None
  | Some i -> Fuzz.Codecs.find (String.sub file 0 i)

let fixtures_stay_fixed () =
  let files = Sys.readdir fixture_dir in
  Array.sort compare files;
  let checked = ref 0 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".bin" then begin
        match codec_of_fixture file with
        | None -> Alcotest.failf "fixture %s names no codec" file
        | Some codec ->
            let ic = open_in_bin (Filename.concat fixture_dir file) in
            let input =
              Bytes.of_string (really_input_string ic (in_channel_length ic))
            in
            close_in ic;
            incr checked;
            let verdict, _ = Fuzz.Oracle.check codec ~budget_ms:0. input in
            (match verdict with
            | Fuzz.Oracle.Rejected _ -> ()
            | v ->
                Alcotest.failf "fixture %s: %s" file
                  (Fuzz.Oracle.verdict_label v))
      end)
    files;
  if !checked = 0 then Alcotest.fail "no fuzz fixtures found"

(* ------------------------------------------------------------------ *)
(* Grep-enforced API contract: outside bitio.mli (which defines the
   exception) and codec_error.mli (which documents catching it), no
   compress interface may mention Out_of_bits — i.e. no public decode
   API admits to raising it. *)

let mli_dir = Filename.concat ".." (Filename.concat "lib" "compress")
let out_of_bits_allowed = [ "bitio.mli"; "codec_error.mli" ]

let no_out_of_bits_in_public_api () =
  let files = Sys.readdir mli_dir in
  Array.sort compare files;
  let scanned = ref 0 in
  Array.iter
    (fun file ->
      if
        Filename.check_suffix file ".mli"
        && not (List.mem file out_of_bits_allowed)
      then begin
        let ic = open_in_bin (Filename.concat mli_dir file) in
        let src = really_input_string ic (in_channel_length ic) in
        close_in ic;
        incr scanned;
        if contains src "Out_of_bits" then
          Alcotest.failf "%s leaks Out_of_bits into its public API" file
      end)
    files;
  if !scanned < 5 then
    Alcotest.failf "only %d interfaces scanned — wrong directory?" !scanned

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "campaign deterministic across jobs" `Quick
        campaign_deterministic_across_jobs;
      Alcotest.test_case "campaign deterministic across repeats" `Quick
        campaign_deterministic_across_repeats;
      Alcotest.test_case "campaign finds nothing on hardened decoders" `Quick
        campaign_finds_nothing;
      Alcotest.test_case "seed changes the campaign" `Quick seeds_differ;
      Alcotest.test_case "corpus pool deterministic" `Quick
        corpus_pool_deterministic;
      Alcotest.test_case "mutate changes its input" `Quick mutate_changes_input;
      Alcotest.test_case "mutate deterministic" `Quick mutate_deterministic;
      Alcotest.test_case "minimizer shrinks to the core" `Quick
        minimizer_shrinks_to_core;
      Alcotest.test_case "minimizer rejects boring input" `Quick
        minimizer_rejects_boring_input;
      Alcotest.test_case "minimizer keeps the verdict" `Quick
        minimizer_result_stays_interesting;
      Alcotest.test_case "fixture names stable" `Quick fixture_names_are_stable;
      Alcotest.test_case "write_fixtures round trips" `Quick
        write_fixtures_roundtrip;
      Alcotest.test_case "every truncation is a structured error" `Quick
        truncation_regressions;
      Alcotest.test_case "truncation reports codec and offset" `Quick
        truncation_reports_codec_and_offset;
      Alcotest.test_case "lzw bomb rejected cheaply" `Quick lzw_bomb;
      Alcotest.test_case "huffman bomb rejected cheaply" `Quick huffman_bomb;
      Alcotest.test_case "bzip2 bomb rejected cheaply" `Quick bzip2_bomb;
      Alcotest.test_case "lz4 bomb rejected cheaply" `Quick lz4_bomb;
      Alcotest.test_case "snappy bomb rejected cheaply" `Quick snappy_bomb;
      Alcotest.test_case "snappy varint overflow rejected" `Quick
        snappy_varint_overflow;
      Alcotest.test_case "rle2 run bomb rejected cheaply" `Quick rle2_run_bomb;
      Alcotest.test_case "rle2 max_output respected" `Quick
        rle2_max_output_respected;
      Alcotest.test_case "archive forged count rejected cheaply" `Quick
        archive_forged_count;
      Alcotest.test_case "frame forged clen rejected cheaply" `Quick
        frame_clen_bomb;
      Alcotest.test_case "frame size staged as bytes arrive" `Quick
        frame_size_bound;
      Alcotest.test_case "huffman golden stream" `Quick huffman_golden;
      Alcotest.test_case "fuzz fixtures stay fixed" `Quick fixtures_stay_fixed;
      Alcotest.test_case "no Out_of_bits in public interfaces" `Quick
        no_out_of_bits_in_public_api;
    ]
    @ List.map (fun c -> QCheck_alcotest.to_alcotest (qcheck_roundtrip c))
        Fuzz.Codecs.all
    @ List.map (fun c -> QCheck_alcotest.to_alcotest (qcheck_mutations c))
        Fuzz.Codecs.all )
