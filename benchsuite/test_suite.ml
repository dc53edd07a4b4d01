(* Fast checks of the suite itself: order statistics, input
   determinism, BENCHMARK.json, and a one-round dry run of the library
   workloads on 4 KiB inputs. *)

open Benchsuite

let close = Alcotest.float 1e-9

let test_quantiles () =
  let a = Array.init 10 (fun i -> float_of_int (i + 1)) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  Alcotest.check close "q1" 2.75 (Sample.quantile a 0.25);
  Alcotest.check close "median" 5.5 (Sample.median a);
  Alcotest.check close "q3" 8.25 (Sample.quantile a 0.75);
  Alcotest.check close "unsorted median" 2. (Sample.median [| 3.; 1.; 2. |]);
  Alcotest.check close "one sample" 5. (Sample.quantile [| 5. |] 0.95);
  Alcotest.check close "clamped to max" 10. (Sample.quantile a 0.99);
  Alcotest.(check bool) "empty" true (Float.is_nan (Sample.median [||]));
  let twenty = Array.init 20 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check int) "beyond p95" 1 (Sample.beyond twenty 0.95);
  Alcotest.(check int) "beyond p50" 10 (Sample.beyond twenty 0.5);
  let s = Sample.summary a in
  Alcotest.(check int) "count" 10 s.n;
  Alcotest.check close "spread" (5.5 /. 5.5) (Sample.spread s)

let test_corpus () =
  List.iter
    (fun seed ->
      List.iter
        (fun shape ->
          let a = Corpus.make ~seed shape ~size:4096 and b = Corpus.make ~seed shape ~size:4096 in
          Alcotest.(check int) "size" 4096 (Bytes.length a);
          Alcotest.(check string) "same seed, same digest" (Corpus.digest a) (Corpus.digest b);
          Alcotest.(check bool) "seed changes input" false
            (Bytes.equal a (Corpus.make ~seed:(seed + 1) shape ~size:4096)))
        Corpus.shapes;
      let take conn = let next = Corpus.requests ~seed ~conn in List.init 64 (fun _ -> next ()) in
      Alcotest.(check bool) "request sequence repeats" true (take 0 = take 0);
      Alcotest.(check bool) "connections differ" false (take 0 = take 1))
    [ 1; 2; 3 ];
  (* FNV-1a 64 test vectors *)
  Alcotest.(check string) "fnv1a empty" "cbf29ce484222325" (Corpus.digest Bytes.empty);
  Alcotest.(check string) "fnv1a a" "af63dc4c8601ec8c" (Corpus.digest (Bytes.of_string "a"))

let spec () = Spec.load "../BENCHMARK.json"

let test_spec () =
  let s = spec () in
  Alcotest.(check (list string)) "workloads" Workload.names s.workloads;
  Alcotest.(check bool) "setup_s declared" true
    (List.exists (fun (m : Spec.metric) -> m.name = "setup_s" && m.unit_ = "s" && not m.higher_better) s.end_to_end);
  List.iter
    (fun (m : Spec.metric) ->
      match m.bound with
      | Some b when b > 0. && b <= 0.25 -> ()
      | _ -> Alcotest.failf "%s: bound must be in (0, 0.25]" m.name)
    s.end_to_end

let test_dry_run workload () =
  let cfg = { Workload.seed = 1; seconds = 0.; size = 4096; setups = 1; trace = false; scratch = "." } in
  let o = Workload.run cfg workload in
  Alcotest.(check bool) "correct" true o.correct;
  Alcotest.(check (list string)) "every end-to-end metric"
    (List.map (fun (m : Spec.metric) -> m.name) (spec ()).end_to_end)
    (List.map (fun (n, _, _) -> n) o.metrics);
  List.iter
    (fun (n, _, v) -> if not (Float.is_finite v && v > 0.) then Alcotest.failf "%s = %g" n v)
    o.metrics

let () =
  Alcotest.run "benchsuite"
    [
      ( "suite",
        [
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "corpus" `Quick test_corpus;
          Alcotest.test_case "BENCHMARK.json" `Quick test_spec;
        ]
        @ List.map
            (fun w -> Alcotest.test_case ("dry run " ^ w) `Quick (test_dry_run w))
            [ "lz-roundtrip"; "bzip2-roundtrip"; "attack-suite" ] );
    ]
