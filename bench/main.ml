(* Benchmark & reproduction harness.

   Usage:
     main.exe            run every experiment (E1-E19) then the timing suite
     main.exe e7         run one experiment
     main.exe bench      run only the Bechamel timing suite

   Each experiment regenerates one figure/number of the paper (see
   DESIGN.md's index); the Bechamel suite times the building blocks. *)

open Zipchannel
module Prng = Util.Prng

let ppf = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Bechamel timing suite *)

let text_10k =
  let prng = Prng.create ~seed:42 () in
  Bytes.of_string (Util.Lipsum.repetitive_file prng ~level:4 ~size:10_000)

let text_1m =
  let prng = Prng.create ~seed:50 () in
  Bytes.of_string (Util.Lipsum.repetitive_file prng ~level:4 ~size:1_048_576)

let random_4k = Prng.bytes (Prng.create ~seed:43 ()) 4096

let random_1m = lazy (Prng.bytes (Prng.create ~seed:51 ()) 1_048_576)

let staged = Bechamel.Staged.stage

(* A decode case: [decode] of [encode input], where [input] is [bytes]
   long.  The encoded input is built on the case's first call, so that
   only the decode is timed (see [run_bench]). *)
let decode_case name ~bytes input encode decode =
  let packed = lazy (encode (Lazy.force input)) in
  (name, bytes, fun () -> ignore (decode (Lazy.force packed)))

(* Decompress at 10 kB and 1 MiB of text for each codec. *)
let decode_cases =
  List.concat_map
    (fun (codec, encode, decode) ->
      [
        decode_case (codec ^ "/decompress-10k-text") ~bytes:10_000
          (Lazy.from_val text_10k) encode decode;
        decode_case (codec ^ "/decompress-1m-text") ~bytes:1_048_576
          (Lazy.from_val text_1m) encode decode;
      ])
    [
      ("deflate", (fun b -> Compress.Deflate.compress b), Compress.Deflate.decompress);
      ("lzw", Compress.Lzw.compress, Compress.Lzw.decompress);
      ("lz4", Compress.Lz4.compress, Compress.Lz4.decompress);
      ("snappy", Compress.Snappy.compress, Compress.Snappy.decompress);
      ("huffman", Compress.Huffman.encode, Compress.Huffman.decode);
      ("bzip2", (fun b -> Compress.Bzip2.compress b), Compress.Bzip2.decompress);
    ]
  @ [
      decode_case "frame/deflate-decompress-1m-jobs1" ~bytes:1_048_576
        (Lazy.from_val text_1m)
        (fun b -> Frame.compress ~codec:Frame.Deflate b)
        Frame.decompress;
      decode_case "bzip2/decompress-1m-random" ~bytes:1_048_576 random_1m
        (fun b -> Compress.Bzip2.compress b)
        Compress.Bzip2.decompress;
    ]

(* Each case is (name, bytes_per_run, thunk): Bechamel times the thunk,
   then a single extra instrumented run captures the case's Obs metric
   growth for the JSON snapshot.  [bytes_per_run] is the payload the
   thunk processes (0 for round-based cases with no natural byte count)
   and turns the wall time into a throughput figure. *)
let bench_cases : (string * int * (unit -> unit)) list =
  [
    ("bzip2/compress-10k-text", 10_000, fun () ->
        ignore (Compress.Bzip2.compress text_10k));
    ("bzip2/compress-1m-text", 1_048_576, fun () ->
        ignore (Compress.Bzip2.compress text_1m));
    (* Text is sort-bound; on random input table training and MTF take
       most of the time. *)
    ("bzip2/compress-1m-random", 1_048_576, fun () ->
        ignore (Compress.Bzip2.compress (Lazy.force random_1m)));
    ("deflate/compress-10k-text", 10_000, fun () ->
        ignore (Compress.Deflate.compress text_10k));
    ("deflate/compress-1m-text", 1_048_576, fun () ->
        ignore (Compress.Deflate.compress text_1m));
    ("lzw/compress-10k-text", 10_000, fun () ->
        ignore (Compress.Lzw.compress text_10k));
    ("lzw/compress-1m-text", 1_048_576, fun () ->
        ignore (Compress.Lzw.compress text_1m));
    ("lz4/compress-10k-text", 10_000, fun () ->
        ignore (Compress.Lz4.compress text_10k));
    ("snappy/compress-10k-text", 10_000, fun () ->
        ignore (Compress.Snappy.compress text_10k));
    ("frame/deflate-pipelined-1m-jobs1", 1_048_576, fun () ->
        ignore (Frame.compress ~codec:Frame.Deflate text_1m));
    ("frame/deflate-pipelined-1m-jobs4", 1_048_576, fun () ->
        ignore (Frame.compress ~jobs:4 ~codec:Frame.Deflate text_1m));
    (let probe =
       Attack.Chunk_oracle.local_probe ~codec:Frame.Deflate ~frame_size:64 ()
     in
     ("leak/chunk-oracle-64", 0, fun () ->
         (* mini recovery: 2 secret digits from a 512-byte victim; the
            instrumented run surfaces the leak.chunk.* metrics *)
         ignore
           (Attack.Chunk_oracle.run ~seed:7 ~secret_len:2 ~body_len:512
              ~tries:4 ~trials:1 ~frame_size:64 ~probe ())));
    ("leak/memcomp-oracle", 0, fun () ->
        (* mini run: 2 secret bytes through the ratio oracle; the
           instrumented run surfaces the leak.memcomp.* metrics *)
        ignore
          (Attack.Memcomp.run ~seed:7 ~secret_len:2 ~tries:4
             ~oracle:Attack.Memcomp.Ratio ()));
    ("huffman/encode-10k-text", 10_000, fun () ->
        ignore (Compress.Huffman.encode text_10k));
    ("bwt/transform-4k-random", 4096, fun () ->
        ignore (Compress.Bwt.transform random_4k));
    ("taintchannel/zlib-gadget-1k", 1024, fun () ->
        (* no-op unless metrics are enabled (the instrumented run) *)
        Taintchannel.Engine.observe_metrics
          (Taintchannel.Zlib_gadget.run (Bytes.sub random_4k 0 1024)));
    ("aes/encrypt-4k", 4096, fun () ->
        ignore
          (Taintchannel.Aes.encrypt
             ~key:(Bytes.of_string "0123456789abcdef")
             random_4k));
    (let cache = Cache.Cache.create Cache.Cache.default_config in
     let prng = Prng.create ~seed:44 () in
     let pp = Cache.Prime_probe.create ~cache ~prng () in
     ("cache/prime+probe-round", 0, fun () ->
         Cache.Prime_probe.prime pp ~set:17;
         ignore (Cache.Prime_probe.probe pp ~set:17);
         (* no-op unless metrics are enabled (the instrumented run) *)
         Cache.Prime_probe.observe_metrics pp));
    (let cache = Cache.Cache.create Cache.Cache.default_config in
     let prng = Prng.create ~seed:45 () in
     let fr = Cache.Flush_reload.create ~cache ~prng () in
     ("cache/flush+reload-round", 0, fun () ->
         ignore (Cache.Flush_reload.round fr 0x7f0000000000);
         Cache.Cache.observe_metrics cache));
    (let prng = Prng.create ~seed:46 () in
     let input = Prng.bytes prng 256 in
     ("sgx/attack-256b-block", 256, fun () ->
         ignore (Attack.Sgx_attack.run input)));
    (let prng = Prng.create ~seed:47 () in
     let x =
       Array.init 64 (fun _ -> Array.init 100 (fun _ -> Prng.float prng))
     in
     let y = Array.init 64 (fun i -> i mod 4) in
     let mlp = Classifier.Mlp.create ~layers:[ 100; 32; 4 ] () in
     ("classifier/mlp-epoch", 0, fun () ->
         Classifier.Mlp.train ~epochs:1 mlp ~x ~y));
    (let input = Prng.bytes (Prng.create ~seed:48 ()) 64 in
     ("mitigation/oblivious-histogram-64b", 64, fun () ->
         ignore (Mitigation.Oblivious.histogram input)));
    (let input = Prng.bytes (Prng.create ~seed:49 ()) 64 in
     ("compress/plain-histogram-64b", 64, fun () ->
         ignore (Compress.Block_sort.histogram input)));
    ("checksum/crc32-10k", 10_000, fun () ->
        ignore (Compress.Checksum.Crc32.digest text_10k));
    ("container/archive-pack-10k", 10_000, fun () ->
        ignore
          (Compress.Container.Archive.pack
             [ { Compress.Container.Archive.name = "f"; data = text_10k } ]));
  ]
  @ decode_cases

let bench_tests =
  List.map
    (fun (name, _, fn) -> Bechamel.Test.make ~name (staged fn))
    bench_cases

let bytes_of_case name =
  match List.find_opt (fun (n, _, _) -> n = name) bench_cases with
  | Some (_, bytes, _) -> bytes
  | None -> 0

(* MB/s from an ns-per-run estimate (decimal megabytes, the unit every
   compressor datasheet uses); None when the case has no byte count or
   the estimate is unusable. *)
let mb_per_s ~bytes ~ns =
  if bytes <= 0 || Float.is_nan ns || ns <= 0.0 then None
  else Some (float_of_int bytes *. 1000.0 /. ns)

(* One formatter for every place a rate is shown (table, JSON): six
   significant digits, so a 0.98 MB/s case never rounds up to the 1.0
   the gate then appears to contradict. *)
let mb_string m = Printf.sprintf "%.6g" m

(* One instrumented run of a case, after timing: the metric growth it
   causes, flattened to numeric pairs, plus the leak.* scoreboard derived
   from that growth, plus the GC/allocation cost of the run (runtime.* —
   timing-coupled, classed "ignore" by the thresholds files).  Metrics
   are only enabled for the duration, so the timed runs above see the
   disabled fast path. *)
let case_metrics name =
  match List.find_opt (fun (n, _, _) -> n = name) bench_cases with
  | None -> []
  | Some (_, _, fn) ->
      Obs.set_enabled true;
      let before = Obs.Metrics.snapshot () in
      let gc0 = Gc.quick_stat () in
      fn ();
      let gc1 = Gc.quick_stat () in
      let after = Obs.Metrics.snapshot () in
      Obs.set_enabled false;
      let d = Obs.Metrics.delta ~before ~after in
      let word_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6 in
      let runtime =
        [
          ( "runtime.minor_collections",
            float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
          );
          ( "runtime.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
          );
          ( "runtime.alloc_mb",
            word_mb
              (gc1.Gc.minor_words -. gc0.Gc.minor_words
              +. (gc1.Gc.major_words -. gc0.Gc.major_words)
              -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)) );
          ( "runtime.promoted_words",
            gc1.Gc.promoted_words -. gc0.Gc.promoted_words );
        ]
      in
      Obs.Metrics.flat_pairs d @ Obs_export.Leak.derive d @ runtime

(* Sampled wall-clock profile of a case: loop it for ~80 ms under the
   Obs_prof ticker and report the folded stacks.  The ticker runs only
   inside this window, never during the Bechamel timed loops — a 5 kHz
   sampling domain triples a 240 ns cache-probe round, so sampling the
   measured phase would commit a measurement artifact as the baseline.
   (Side-band means byte-identical output, which the test suite pins;
   wall-clock neutrality on sub-microsecond loops is physically out of
   reach for any concurrent domain.)  Obs metrics stay disabled, so the
   per-case metric deltas above are never polluted by the profiled
   loop. *)
let profile_budget_ns = 80_000_000

let case_profile name =
  match List.find_opt (fun (n, _, _) -> n = name) bench_cases with
  | None -> None
  | Some (_, _, fn) ->
      Obs_prof.reset ();
      Obs_prof.start ~interval_us:200 ();
      let t0 = Obs.now_ns () in
      let iters = ref 0 in
      while !iters < 3 || (Obs.now_ns () - t0 < profile_budget_ns && !iters < 10_000)
      do
        fn ();
        incr iters
      done;
      Obs_prof.stop ();
      let r = Obs_prof.report () in
      if r.Obs_prof.total_samples = 0 then None else Some r

type result = {
  r_name : string;
  r_ns : float;
  r_bytes : int;
  r_metrics : (string * float) list;
  r_profile : Obs_prof.report option;
  r_two_domain_ratio : float option;
      (* the host probe around a parallel case, see [two_domain_ratio] *)
}

(* Whether the host gives this process a second core right now, which
   the vCPU count does not tell on a shared VM.  A fixed integer spin
   (no allocation, so no collection couples the domains) runs on one
   domain, then on two at once; the ratio is [2 * t1 / t2]: near 2.0
   with a second core, near 1.0 without.  Best of three of each. *)
let spin () =
  let x = ref 1 in
  for _ = 1 to 20_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x)

let two_domain_ratio () =
  let best f =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let t0 = Obs.now_ns () in
           f ();
           float_of_int (Obs.now_ns () - t0)))
  in
  let one = best spin in
  let two =
    best (fun () ->
        let d = Domain.spawn spin in
        spin ();
        Domain.join d)
  in
  2.0 *. one /. two

(* A ratio at or above this shows a second core. *)
let second_core_ratio = 1.5

(* The cases whose time depends on a second core: each is bracketed by
   host probes, and the lower reading rides in its result. *)
let parallel_cases =
  [ "frame/deflate-pipelined-1m-jobs1"; "frame/deflate-pipelined-1m-jobs4" ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* [only] restricts the suite: a test runs when its name equals, or
   contains, one of the given patterns (used by the CI bench smoke to
   time a 3-benchmark subset). *)
let selected ~only name =
  only = [] || List.exists (fun pat -> contains ~sub:pat name) only

let run_bench ?(only = []) () =
  let open Bechamel in
  Format.fprintf ppf "@.=== Bechamel timing suite ===@.";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results =
    List.concat_map
      (fun test ->
        List.filter_map
          (fun elt ->
            if not (selected ~only (Test.Elt.name elt)) then None
            else begin
            (* One untimed call first: a decode case builds its encoded
               input on its first call. *)
            (match
               List.find_opt (fun (n, _, _) -> n = Test.Elt.name elt) bench_cases
             with
            | Some (_, _, fn) -> fn ()
            | None -> ());
            let probed = List.mem (Test.Elt.name elt) parallel_cases in
            let probe_before = if probed then two_domain_ratio () else nan in
            let raw =
              Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt
            in
            let two_domain =
              if probed then begin
                let after = two_domain_ratio () in
                Format.fprintf ppf
                  "  host probe: two domains ran %.2fx / %.2fx one (before / after)@."
                  probe_before after;
                Some (Float.min probe_before after)
              end
              else None
            in
            let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
            let ns =
              match Analyze.OLS.estimates result with
              | Some (e :: _) -> e
              | Some [] | None -> nan
            in
            let name = Test.Elt.name elt in
            let bytes = bytes_of_case name in
            (match mb_per_s ~bytes ~ns with
            | Some m ->
                Format.fprintf ppf "  %-32s %12.0f ns/run %10s MB/s@." name
                  ns (mb_string m)
            | None -> Format.fprintf ppf "  %-32s %12.0f ns/run@." name ns);
            (* Throughput rides in the metrics map so the compare gate
               classifies it like any other metric (exact byte count,
               banded or ignored rate — see bench/thresholds*.json). *)
            let throughput =
              if bytes <= 0 then []
              else
                ("bench.bytes_per_run", float_of_int bytes)
                ::
                (match mb_per_s ~bytes ~ns with
                | Some m -> [ ("bench.mb_per_s", m) ]
                | None -> [])
            in
            Some
              {
                r_name = name;
                r_ns = ns;
                r_bytes = bytes;
                r_metrics = case_metrics name @ throughput;
                r_profile = case_profile name;
                r_two_domain_ratio = two_domain;
              }
            end)
          (Test.elements test))
      bench_tests
  in
  Format.fprintf ppf "@.";
  results

(* Cross-case invariants, checked whenever both sides of a relation ran
   (the CI --only subsets skip what they don't time).  These are claims
   the suite exists to defend, not inter-run drift — so they gate every
   run, not just --compare runs. *)
let check_invariants results =
  let find name = List.find_opt (fun r -> r.r_name = name) results in
  let ns name =
    match find name with
    | Some { r_ns; _ } when (not (Float.is_nan r_ns)) && r_ns > 0.0 ->
        Some r_ns
    | _ -> None
  in
  let per_byte name =
    match find name with
    | Some { r_ns; r_bytes; _ }
      when r_bytes > 0 && (not (Float.is_nan r_ns)) && r_ns > 0.0 ->
        Some (r_ns /. float_of_int r_bytes)
    | _ -> None
  in
  let failures = ref [] in
  (* The LZW large-input cliff stays fixed: per-byte cost at 1 MiB within
     2x of the 10 KiB case (it was ~3.6x before the probe-trace
     allocation was taken off the plain compress path). *)
  (match (per_byte "lzw/compress-10k-text", per_byte "lzw/compress-1m-text") with
  | Some small, Some big when big > 2.0 *. small ->
      failures :=
        Printf.sprintf
          "lzw/compress-1m-text costs %.2f ns/byte vs %.2f at 10k (> 2x)" big
          small
        :: !failures
  | _ -> ());
  (* Framing must pay for itself: the pipelined 1 MiB deflate cases beat
     the whole-buffer compressor at any jobs count. *)
  List.iter
    (fun case ->
      match (ns case, ns "deflate/compress-1m-text") with
      | Some framed, Some whole when framed >= whole ->
          failures :=
            Printf.sprintf "%s (%.0f ns) is not faster than \
                            deflate/compress-1m-text (%.0f ns)"
              case framed whole
            :: !failures
      | _ -> ())
    [ "frame/deflate-pipelined-1m-jobs1"; "frame/deflate-pipelined-1m-jobs4" ];
  (* More domains must make framed compression faster wherever there is
     a second core: jobs 4 (clamped to the core count) beats jobs 1.  A
     vCPU count does not show a second core on a shared host, so the
     check runs when the host probes around the jobs-4 case did. *)
  (let jobs4 = "frame/deflate-pipelined-1m-jobs4" in
   match
     ( Option.bind (find jobs4) (fun r -> r.r_two_domain_ratio),
       ns jobs4,
       ns "frame/deflate-pipelined-1m-jobs1" )
   with
   | Some ratio, Some t4, Some t1 ->
       let second_core = ratio >= second_core_ratio in
       Format.fprintf ppf
         "  host: two domains ran %.2fx one around %s: %s@." ratio jobs4
         (if second_core then "second core, jobs4-beats-jobs1 checked"
          else "no second core, jobs4-beats-jobs1 skipped");
       if second_core && t4 >= t1 then
         failures :=
           Printf.sprintf
             "%s (%.0f ns) is not faster than \
              frame/deflate-pipelined-1m-jobs1 (%.0f ns) with a second core \
              (two domains ran %.2fx one)"
             jobs4 t4 t1 ratio
           :: !failures
   | _ -> ());
  match !failures with
  | [] -> ()
  | l ->
      List.iter
        (fun m -> Format.fprintf ppf "  INVARIANT FAILED: %s@." m)
        (List.rev l);
      exit 1

(* Machine-readable trajectory: "bench --json" appends a numbered
   BENCH_<n>.json snapshot next to any earlier ones, so successive PRs can
   be compared without parsing the human-readable table. *)
let next_bench_index () =
  let files = try Sys.readdir "." with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc f ->
      match Scanf.sscanf_opt f "BENCH_%d.json" (fun n -> n) with
      | Some n -> max acc (n + 1)
      | None -> acc)
    1 files

(* Metric values must survive the JSON round trip exactly — the compare
   gate checks deterministic counters for equality, and %.6g would
   truncate counters past a million. *)
let metric_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let write_bench_json results =
  let path = Printf.sprintf "BENCH_%d.json" (next_bench_index ()) in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i { r_name = name; r_ns = ns; r_bytes = bytes; r_metrics = metrics;
             r_profile; r_two_domain_ratio } ->
      let throughput_json =
        if bytes <= 0 then ""
        else
          Printf.sprintf ", \"bytes_per_run\": %d%s" bytes
            (match mb_per_s ~bytes ~ns with
            | Some m -> Printf.sprintf ", \"mb_per_s\": %s" (mb_string m)
            | None -> "")
      in
      let metrics_json =
        match metrics with
        | [] -> ""
        | pairs ->
            Printf.sprintf ", \"metrics\": {%s}"
              (String.concat ", "
                 (List.map
                    (fun (k, v) ->
                      Printf.sprintf "\"%s\": %s" (Obs.json_escape k)
                        (metric_number v))
                    pairs))
      in
      let profile_json =
        match r_profile with
        | None -> ""
        | Some (p : Obs_prof.report) ->
            Printf.sprintf ", \"profile\": {\"samples\": %d, \"self\": {%s}}"
              p.Obs_prof.total_samples
              (String.concat ", "
                 (List.map
                    (fun (span, self, total) ->
                      Printf.sprintf "\"%s\": [%d, %d]" (Obs.json_escape span)
                        self total)
                    p.Obs_prof.self))
      in
      (* The host probe rides outside "metrics": it describes the host,
         not the code, so the compare gate does not read it. *)
      let host_json =
        match r_two_domain_ratio with
        | Some r -> Printf.sprintf ", \"two_domain_ratio\": %.3f" r
        | None -> ""
      in
      Printf.fprintf oc "  {\"name\": \"%s\", \"ns_per_run\": %.1f%s%s%s%s}%s\n"
        (Obs.json_escape name)
        (if Float.is_nan ns then -1.0 else ns)
        throughput_json host_json metrics_json profile_json
        (if i < List.length results - 1 then "," else ""))
    results;
  output_string oc "]\n";
  close_out oc;
  Format.fprintf ppf "wrote %s@." path

(* The folded-stack artifact (--folded): one [case;domain-<d>;spans N]
   line per sampled stack, across every case that produced samples —
   flamegraph tooling input, uploaded by CI. *)
let write_folded path results =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      match r.r_profile with
      | Some p -> Buffer.add_string b (Obs_prof.folded_lines ~prefix:r.r_name p)
      | None -> ())
    results;
  Obs_export.Sink.atomic_write ~path (Buffer.contents b);
  Format.fprintf ppf "wrote %s@." path

(* A BENCH_<n>.json snapshot: an array of {"name", "ns_per_run",
   "bytes_per_run"?, "mb_per_s"?, "metrics"?} entries, as written by
   {!write_bench_json}.  The comparison only needs name, ns and the
   metrics map; throughput is mirrored in there under the "bench."
   prefix. *)
let read_bench_json path =
  let module J = Obs_export.Json in
  let content =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      prerr_endline ("bench --compare: " ^ msg);
      exit 2
  in
  match J.parse content with
  | J.Arr entries ->
      List.filter_map
        (fun e ->
          match
            ( Option.bind (J.member "name" e) J.to_str,
              Option.bind (J.member "ns_per_run" e) J.to_num )
          with
          | Some name, Some ns ->
              let metrics =
                match J.member "metrics" e with
                | Some (J.Obj pairs) ->
                    List.filter_map
                      (fun (k, v) ->
                        Option.map (fun n -> (k, n)) (J.to_num v))
                      pairs
                | _ -> []
              in
              (* Sampled self-time table, for --compare forensics. *)
              let profile_self =
                match Option.bind (J.member "profile" e) (J.member "self") with
                | Some (J.Obj pairs) ->
                    List.filter_map
                      (fun (span, v) ->
                        match v with
                        | J.Arr (self :: _) ->
                            Option.map
                              (fun s -> (span, int_of_float s))
                              (J.to_num self)
                        | _ -> None)
                      pairs
                | _ -> []
              in
              Some (name, ns, metrics, profile_self)
          | _ -> None)
        entries
  | _ | (exception J.Parse_error _) ->
      prerr_endline ("bench --compare: " ^ path ^ ": not a BENCH json array");
      exit 2

(* Per-benchmark comparison against a snapshot: wall time (speedup table,
   gated on max increase) plus every recorded metric, classified by the
   threshold rules (exact / percentage band / ignore).  Every regression
   is collected and reported — one line per benchmark+metric, naming the
   magnitude and the allowance it broke — before exiting non-zero; the
   first regression never masks the rest. *)
let compare_bench ~rules ~baseline results =
  let module Gate = Obs_export.Gate in
  let base = read_bench_json baseline in
  Format.fprintf ppf "@.=== comparison vs %s ===@." baseline;
  Format.fprintf ppf "  %-32s %12s %12s %9s %8s@." "benchmark" "baseline ns"
    "current ns" "speedup" "metrics";
  let regressed = ref [] in
  let push rs = regressed := !regressed @ rs in
  List.iter
    (fun { r_name = name; r_ns = ns; r_metrics = metrics; r_profile; _ } ->
      match
        List.find_opt (fun (n, _, _, _) -> n = name) base
      with
      | None ->
          Format.fprintf ppf "  %-32s %12s %12.0f %9s %8s@." name "-" ns "new"
            "-"
      | Some (_, b, base_metrics, base_profile) ->
          let checked =
            Gate.compare_metrics rules ~bench:name ~baseline:base_metrics
              ~current:metrics
          in
          let metrics_cell =
            if base_metrics = [] then "-"
            else if checked = [] then "ok"
            else string_of_int (List.length checked) ^ " bad"
          in
          if Float.is_nan ns || ns <= 0.0 || b <= 0.0 then
            Format.fprintf ppf "  %-32s %12.0f %12.0f %9s %8s@." name b ns "?"
              metrics_cell
          else begin
            Format.fprintf ppf "  %-32s %12.0f %12.0f %8.2fx %8s@." name b ns
              (b /. ns) metrics_cell;
            Option.iter
              (fun r ->
                push [ r ];
                (* Forensics: when the wall-time gate fires, name the
                   spans whose sampled self-time share moved most. *)
                let cur_profile =
                  match r_profile with
                  | Some (p : Obs_prof.report) ->
                      List.map (fun (s, self, _) -> (s, self)) p.Obs_prof.self
                  | None -> []
                in
                let movers =
                  Gate.profile_movers ~baseline:base_profile
                    ~current:cur_profile
                in
                (match movers with
                | [] ->
                    Format.fprintf ppf
                      "  FORENSICS %s: no sampled profile on one side@." name
                | _ ->
                    List.iteri
                      (fun i m ->
                        if i < 3 then
                          Format.fprintf ppf "  FORENSICS %s: %a@." name
                            Gate.pp_mover m)
                      movers))
              (Gate.check_ns rules ~bench:name ~baseline:b ~current:ns)
          end;
          push checked)
    results;
  match !regressed with
  | [] -> Format.fprintf ppf "@.no regression against %s@." baseline
  | l ->
      Format.fprintf ppf "@.%d metric regression%s:@." (List.length l)
        (if List.length l = 1 then "" else "s");
      List.iter
        (fun r -> Format.fprintf ppf "  REGRESSED %a@." Gate.pp_regression r)
        l;
      exit 1

(* ------------------------------------------------------------------ *)

let summarize outcomes =
  Format.fprintf ppf "@.=== summary ===@.";
  List.iter
    (fun o ->
      Format.fprintf ppf "%-4s %s@." o.Experiments.id o.Experiments.title;
      List.iter
        (fun (k, v) -> Format.fprintf ppf "       %-36s %.4f@." k v)
        o.Experiments.metrics)
    outcomes

let usage () =
  prerr_endline
    "usage: main.exe [e1..e19|bench [--json] [--only a,b,...] [--compare \
     BENCH_n.json] [--thresholds FILE.json] [--folded FILE.folded]]";
  exit 1

let run_bench_cli rest =
  let json = ref false
  and only = ref []
  and compare = ref None
  and folded = ref None
  and thresholds = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--only" :: names :: rest ->
        only := !only @ String.split_on_char ',' names;
        parse rest
    | "--compare" :: path :: rest ->
        compare := Some path;
        parse rest
    | "--folded" :: path :: rest ->
        folded := Some path;
        parse rest
    | "--thresholds" :: path :: rest ->
        thresholds := Some path;
        parse rest
    | _ -> usage ()
  in
  parse rest;
  let rules =
    match !thresholds with
    | None -> Obs_export.Gate.default_rules
    | Some path -> (
        try Obs_export.Gate.load path
        with
        | Sys_error msg | Failure msg ->
            prerr_endline ("bench --thresholds: " ^ msg);
            exit 2
        | Obs_export.Json.Parse_error msg ->
            prerr_endline ("bench --thresholds: " ^ path ^ ": " ^ msg);
            exit 2)
  in
  let results = run_bench ~only:(List.filter (( <> ) "") !only) () in
  (* The snapshot is written even when an invariant then fails the run,
     so a noisy host still leaves the numbers behind. *)
  if !json then write_bench_json results;
  Option.iter (fun path -> write_folded path results) !folded;
  check_invariants results;
  match !compare with
  | Some baseline -> compare_bench ~rules ~baseline results
  | None -> ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
      let outcomes = Experiments.all ppf in
      summarize outcomes;
      ignore (run_bench ())
  | _ :: "bench" :: rest -> run_bench_cli rest
  | [ _; id ] -> (
      match Experiments.run ~id ppf with
      | Some _ -> ()
      | None ->
          prerr_endline ("unknown experiment: " ^ id ^ " (use e1..e19 or bench)");
          exit 1)
  | _ -> usage ()
