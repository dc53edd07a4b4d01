(* Zipchannel.Obs_export: the JSON reader, OTLP/Prometheus exporters
   (against golden fixtures), the span-stream profiler, the leakage
   scoreboard, and the per-metric bench regression gate. *)

module Obs = Zipchannel_obs.Obs
module E = Zipchannel.Obs_export
module Json = E.Json

let with_obs f =
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Trace.set_sink Obs.Trace.Null;
      Obs.Metrics.reset ())
    f

let read_fixture path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* JSON reader/writer *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 42.;
      Json.Num (-0.125);
      Json.Str "a \"quoted\"\nline \\ with \x01 control";
      Json.Str "cr\r tab\t nul\x00 us\x1f";
      Json.Obj [ ("\t\x00", Json.Str "\r\x1f") ];
      Json.Arr [ Json.Num 1.; Json.Arr []; Json.Obj [] ];
      Json.Obj [ ("k", Json.Str "v"); ("n", Json.Num 7.) ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "parse inverts to_string" true
        (Json.parse (Json.to_string v) = v))
    samples;
  Alcotest.(check bool) "unicode escape decodes to UTF-8" true
    (Json.parse {|"é€"|} = Json.Str "\xc3\xa9\xe2\x82\xac");
  Alcotest.(check int) "parse_many splits a JSONL stream" 3
    (List.length (Json.parse_many "{\"a\": 1}\n[2]\n\"three\"\n"));
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | v -> Alcotest.failf "parsed %S to %s" bad (Json.to_string v))
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Snapshot reader: exact inverse of Obs.Metrics.snapshot_to_json *)

let test_snapshot_roundtrip () =
  with_obs @@ fun () ->
  let c = Obs.Metrics.counter "test.export.counter" in
  let g = Obs.Metrics.gauge "test.export.gauge" in
  let h = Obs.Metrics.histogram "test.export.hist" in
  Obs.Metrics.add c 12345;
  Obs.Metrics.set_gauge g 0.75;
  List.iter (Obs.Metrics.observe h) [ 1; 3; 200 ];
  let snap = Obs.Metrics.snapshot () in
  let parsed = E.Snapshot_io.of_string (Obs.Metrics.snapshot_to_json snap) in
  Alcotest.(check bool) "counters survive" true
    (parsed.Obs.Metrics.counters = snap.Obs.Metrics.counters);
  Alcotest.(check bool) "gauges survive" true
    (parsed.Obs.Metrics.gauges = snap.Obs.Metrics.gauges);
  Alcotest.(check bool) "histograms survive" true
    (parsed.Obs.Metrics.histograms = snap.Obs.Metrics.histograms)

(* ------------------------------------------------------------------ *)
(* OTLP: golden fixtures and the counter-sum preservation property *)

let test_otlp_metrics_golden () =
  let snap =
    E.Snapshot_io.read_file "fixtures/obs_export/snapshot.json"
  in
  Alcotest.(check string) "OTLP metrics export matches golden"
    (String.trim (read_fixture "fixtures/obs_export/snapshot.otlp.json"))
    (Json.to_string (E.Otlp.metrics_request snap))

let test_otlp_trace_golden () =
  let events = E.Span_stream.read_file "fixtures/obs_export/nested.jsonl" in
  Alcotest.(check string) "OTLP trace export matches golden"
    (String.trim (read_fixture "fixtures/obs_export/nested.otlp.json"))
    (Json.to_string (E.Otlp.trace_request events))

let test_prom_golden () =
  let snap =
    E.Snapshot_io.read_file "fixtures/obs_export/snapshot.json"
  in
  Alcotest.(check string) "Prometheus exposition matches golden"
    (read_fixture "fixtures/obs_export/snapshot.prom")
    (E.Prom.exposition snap)

(* Walk an OTLP metrics request back into (name, asInt sum) pairs. *)
let otlp_counter_sums request =
  let get k j = Option.get (Json.member k j) in
  let metrics =
    get "resourceMetrics" request |> Json.to_arr |> Option.get |> List.hd
    |> get "scopeMetrics" |> Json.to_arr |> Option.get |> List.hd
    |> get "metrics" |> Json.to_arr |> Option.get
  in
  List.filter_map
    (fun m ->
      match Json.member "sum" m with
      | None -> None
      | Some sum ->
          let name = Option.get (Json.to_str (get "name" m)) in
          let point =
            get "dataPoints" sum |> Json.to_arr |> Option.get |> List.hd
          in
          let v =
            int_of_string (Option.get (Json.to_str (get "asInt" point)))
          in
          Some (name, v))
    metrics

let qcheck_otlp_counters =
  QCheck.Test.make
    ~name:"snapshot -> OTLP -> parse preserves counter totals" ~count:50
    QCheck.(small_list (pair small_nat small_nat))
    (fun pairs ->
      let counters =
        List.mapi (fun i (k, v) -> (Printf.sprintf "c%d_%d" i k, v)) pairs
      in
      let snap =
        { Obs.Metrics.counters; gauges = []; histograms = [] }
      in
      let round =
        otlp_counter_sums
          (Json.parse (Json.to_string (E.Otlp.metrics_request snap)))
      in
      round = counters)

(* The exponential-histogram data point must re-sum to the source
   buckets: zeroCount picks up bucket 0, dense bucketCounts the rest. *)
let test_otlp_histogram_mapping () =
  let hs =
    { Obs.Metrics.count = 4; sum = 14; buckets = [ (0, 1); (2, 2); (3, 1) ] }
  in
  let snap =
    { Obs.Metrics.counters = []; gauges = []; histograms = [ ("h", hs) ] }
  in
  let get k j = Option.get (Json.member k j) in
  let point =
    Json.parse (Json.to_string (E.Otlp.metrics_request snap))
    |> get "resourceMetrics" |> Json.to_arr |> Option.get |> List.hd
    |> get "scopeMetrics" |> Json.to_arr |> Option.get |> List.hd
    |> get "metrics" |> Json.to_arr |> Option.get |> List.hd
    |> get "exponentialHistogram" |> get "dataPoints" |> Json.to_arr
    |> Option.get |> List.hd
  in
  let str_int k j = int_of_string (Option.get (Json.to_str (get k j))) in
  Alcotest.(check int) "zeroCount = bucket 0" 1 (str_int "zeroCount" point);
  let positive = get "positive" point in
  Alcotest.(check (float 0.)) "offset = lowest bucket - 1" 1.
    (Option.get (Json.to_num (get "offset" positive)));
  Alcotest.(check (list int)) "dense positive counts" [ 2; 1 ]
    (List.map
       (fun v -> int_of_string (Option.get (Json.to_str v)))
       (Option.get (Json.to_arr (get "bucketCounts" positive))));
  Alcotest.(check int) "count" 4 (str_int "count" point)

(* ------------------------------------------------------------------ *)
(* Profiler: hand-built nested multi-domain trace *)

let nested_spans () =
  E.Profile.spans_of_events
    (E.Span_stream.read_file "fixtures/obs_export/nested.jsonl")

let test_profile_spans () =
  let spans = nested_spans () in
  Alcotest.(check int) "5 spans" 5 (List.length spans);
  let find name = List.find (fun s -> s.E.Profile.name = name) spans in
  let self name = (find name).E.Profile.self_ns in
  Alcotest.(check int) "alpha self" 300 (self "alpha");
  Alcotest.(check int) "gamma self" 100 (self "gamma");
  Alcotest.(check int) "beta self = dur - gamma" 300 (self "beta");
  Alcotest.(check int) "root self = dur - children" 400 (self "root");
  Alcotest.(check int) "worker self (other domain)" 600 (self "worker");
  (* Parent links follow per-domain nesting, not emission order: worker
     interleaves but stays a root on domain 1. *)
  Alcotest.(check bool) "root has no parent" true
    ((find "root").E.Profile.parent = None);
  Alcotest.(check bool) "worker has no parent" true
    ((find "worker").E.Profile.parent = None);
  Alcotest.(check bool) "gamma's parent is beta" true
    ((find "gamma").E.Profile.parent
    = Some (find "beta").E.Profile.id);
  (* Conservation: per domain, self times sum to the root's wall time. *)
  let self_sum domain =
    List.fold_left
      (fun acc s ->
        if s.E.Profile.domain = domain then acc + s.E.Profile.self_ns else acc)
      0 spans
  in
  Alcotest.(check int) "domain 0 self times sum to root wall" 1100
    (self_sum 0);
  Alcotest.(check int) "domain 1 self times sum to worker wall" 600
    (self_sum 1)

let test_profile_aggregate () =
  let rows = E.Profile.aggregate (nested_spans ()) in
  Alcotest.(check (list string)) "sorted by self time desc"
    [ "worker"; "root"; "alpha"; "beta"; "gamma" ]
    (List.map (fun r -> r.E.Profile.a_name) rows);
  let root = List.find (fun r -> r.E.Profile.a_name = "root") rows in
  Alcotest.(check int) "count" 1 root.E.Profile.count;
  Alcotest.(check int) "total is wall time" 1100 root.E.Profile.total_ns;
  Alcotest.(check int) "p50 of a single span" 1100 root.E.Profile.p50_ns;
  Alcotest.(check int) "max" 1100 root.E.Profile.max_ns

let test_profile_folded () =
  let folded = E.Profile.folded_stacks (nested_spans ()) in
  Alcotest.(check (option int)) "leaf path weighted by self" (Some 100)
    (List.assoc_opt "domain-0;root;beta;gamma" folded);
  Alcotest.(check (option int)) "root frame weighted by self" (Some 400)
    (List.assoc_opt "domain-0;root" folded);
  Alcotest.(check (option int)) "other domain rooted separately" (Some 600)
    (List.assoc_opt "domain-1;worker" folded);
  Alcotest.(check int) "folded weights sum to total self" 1700
    (List.fold_left (fun acc (_, w) -> acc + w) 0 folded)

(* The offline path is the only one: the OTLP request converted from a
   JSONL stream equals the request of the in-memory events it was
   written from, attribute strings that need escaping included.  The
   events come from a [Custom] sink and the stream is their
   [jsonl_of_event] lines, the text the [Jsonl] sink writes. *)
let test_otlp_of_jsonl_stream () =
  with_obs @@ fun () ->
  let events = ref [] in
  Obs.Trace.set_sink (Obs.Trace.Custom (fun ev -> events := ev :: !events));
  Obs.with_span "outer"
    ~attrs:[ ("quote", "a\"b"); ("path", "c:\\d"); ("ctl", "x\n\ty\001") ]
    (fun () -> Obs.with_span "inner" ~attrs:[ ("k", "v") ] (fun () -> ()));
  Obs.Trace.set_sink Obs.Trace.Null;
  let events = List.rev !events in
  let jsonl =
    String.concat ""
      (List.map (fun ev -> Obs.Trace.jsonl_of_event ev ^ "\n") events)
  in
  let parsed = E.Span_stream.of_string jsonl in
  Alcotest.(check bool) "JSONL round-trips the events" true (parsed = events);
  let request = E.Otlp.trace_request events in
  Alcotest.(check string) "OTLP of the JSONL stream = OTLP of the events"
    (Json.to_string request)
    (Json.to_string (E.Otlp.trace_request parsed));
  let get k j = Option.get (Json.member k j) in
  let spans =
    request
    |> get "resourceSpans" |> Json.to_arr |> Option.get |> List.hd
    |> get "scopeSpans" |> Json.to_arr |> Option.get |> List.hd
    |> get "spans" |> Json.to_arr |> Option.get
  in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let by_name name =
    List.find
      (fun s -> Json.to_str (get "name" s) = Some name)
      spans
  in
  Alcotest.(check (option string)) "inner's parent is outer"
    (Json.to_str (get "spanId" (by_name "outer")))
    (Option.bind (Json.member "parentSpanId" (by_name "inner")) Json.to_str);
  let attr key span =
    List.find_map
      (fun a ->
        if Json.to_str (get "key" a) = Some key then
          Json.to_str (get "stringValue" (get "value" a))
        else None)
      (Option.get (Json.to_arr (get "attributes" span)))
  in
  Alcotest.(check (option string)) "escaped attribute survives" (Some "x\n\ty\001")
    (attr "ctl" (by_name "outer"))

(* ------------------------------------------------------------------ *)
(* Leakage scoreboard *)

let test_leak_derive () =
  let snap =
    {
      Obs.Metrics.counters =
        [
          ("recovery.bzip2.ambiguous", 10);
          ("recovery.bzip2.repaired", 5);
          ("sgx.bytes", 1000);
          ("sgx.faults", 3000);
          ("sgx.lost_readings", 10);
          ("taint.gadget_hits", 5998);
          ("taint.input_bytes", 6000);
        ];
      gauges = [];
      histograms =
        [
          (* 32 of 40 bytes unique (bucket 0 = one candidate); the rest
             spread over 2- and 8-candidate sets. *)
          ( "recovery.bzip2.candidates_per_byte",
            { Obs.Metrics.count = 40; sum = 96; buckets = [ (0, 32); (1, 4); (3, 4) ] }
          );
        ];
    }
  in
  let scores = E.Leak.derive snap in
  let get name = List.assoc name scores in
  Alcotest.(check (float 1e-9)) "gadget hits per input byte"
    (5998. /. 6000.)
    (get "leak.taint.gadget_hits_per_input_byte");
  Alcotest.(check (float 1e-9)) "faults per byte" 3.0
    (get "leak.sgx.faults_per_byte");
  Alcotest.(check (float 1e-9)) "lost reading rate" 0.01
    (get "leak.sgx.lost_reading_rate");
  (* (32*log2 1 + 4*log2 1.5 + 4*log2 6) / 40 *)
  Alcotest.(check (float 1e-9)) "candidate entropy"
    ((4. *. Float.log2 1.5 +. 4. *. Float.log2 6.) /. 40.)
    (get "leak.recovery.bzip2.candidate_entropy_bits");
  Alcotest.(check (float 1e-9)) "ambiguity rate" 0.25
    (get "leak.recovery.bzip2.ambiguity_rate");
  Alcotest.(check (float 1e-9)) "repair rate" 0.5
    (get "leak.recovery.bzip2.repair_rate");
  Alcotest.(check (list (pair string (float 0.)))) "empty snapshot: no scores"
    []
    (E.Leak.derive
       { Obs.Metrics.counters = []; gauges = []; histograms = [] })

(* ------------------------------------------------------------------ *)
(* Regression gate *)

let rules_json =
  {|{"ns_per_run_max_increase_pct": 25,
     "metrics": [
       {"prefix": "cache.", "class": "band", "pct": 50},
       {"prefix": "classifier.epoch_loss", "class": "ignore"},
       {"prefix": "", "class": "exact"}
     ]}|}

let test_gate_classify () =
  let rules = E.Gate.rules_of_json (Json.parse rules_json) in
  Alcotest.(check bool) "first prefix match wins" true
    (E.Gate.classify rules "cache.hits" = E.Gate.Band 50.);
  Alcotest.(check bool) "exact catch-all" true
    (E.Gate.classify rules "taint.instructions" = E.Gate.Exact);
  Alcotest.(check bool) "ignore" true
    (E.Gate.classify rules "classifier.epoch_loss" = E.Gate.Ignore);
  Alcotest.(check bool) "ns gate parsed" true
    (rules.E.Gate.ns_max_increase_pct = Some 25.);
  let no_ns =
    E.Gate.rules_of_json
      (Json.parse
         {|{"ns_per_run_max_increase_pct": null, "metrics": []}|})
  in
  Alcotest.(check bool) "null disables the ns gate" true
    (no_ns.E.Gate.ns_max_increase_pct = None);
  (* Bench-scoped rules: the same metric can be ignored under one
     benchmark and banded everywhere else. *)
  let scoped =
    E.Gate.rules_of_json
      (Json.parse
         {|{"ns_per_run_max_increase_pct": null,
            "metrics": [
              {"bench": "cache/", "prefix": "cache.", "class": "ignore"},
              {"prefix": "cache.", "class": "band", "pct": 50}
            ]}|})
  in
  Alcotest.(check bool) "scoped rule wins under its bench" true
    (E.Gate.classify scoped ~bench:"cache/prime+probe-round" "cache.hits"
    = E.Gate.Ignore);
  Alcotest.(check bool) "other benches fall through" true
    (E.Gate.classify scoped ~bench:"sgx/attack-256b-block" "cache.hits"
    = E.Gate.Band 50.);
  Alcotest.(check int) "compare honours the bench scope" 0
    (List.length
       (E.Gate.compare_metrics scoped ~bench:"cache/prime+probe-round"
          ~baseline:[ ("cache.hits", 100.) ]
          ~current:[ ("cache.hits", 10.) ]))

let test_gate_compare () =
  let rules = E.Gate.rules_of_json (Json.parse rules_json) in
  let compare baseline current =
    E.Gate.compare_metrics rules ~bench:"b" ~baseline ~current
  in
  Alcotest.(check int) "identical metrics pass" 0
    (List.length
       (compare [ ("taint.hits", 100.) ] [ ("taint.hits", 100.) ]));
  (* An injected change on a deterministic counter is a regression that
     names the benchmark, metric and magnitude. *)
  (match compare [ ("taint.hits", 100.) ] [ ("taint.hits", 101.) ] with
  | [ r ] ->
      Alcotest.(check string) "bench named" "b" r.E.Gate.bench;
      Alcotest.(check string) "metric named" "taint.hits" r.E.Gate.metric;
      Alcotest.(check (float 1e-6)) "magnitude" 1.0 r.E.Gate.change_pct
  | rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs));
  Alcotest.(check int) "inside the band passes" 0
    (List.length (compare [ ("cache.hits", 100.) ] [ ("cache.hits", 140.) ]));
  Alcotest.(check int) "outside the band fails (both directions)" 2
    (List.length
       (compare
          [ ("cache.hits", 100.); ("cache.misses", 100.) ]
          [ ("cache.hits", 151.); ("cache.misses", 40.) ]));
  Alcotest.(check int) "ignored metric never fails" 0
    (List.length
       (compare
          [ ("classifier.epoch_loss", 1.0) ]
          [ ("classifier.epoch_loss", 9.9) ]));
  Alcotest.(check int) "vanished metric is a regression" 1
    (List.length (compare [ ("taint.hits", 100.) ] []));
  Alcotest.(check int) "new metric is not" 0
    (List.length (compare [] [ ("taint.new", 1.) ]));
  (match E.Gate.check_ns rules ~bench:"b" ~baseline:100. ~current:130. with
  | Some r -> Alcotest.(check string) "ns metric named" "ns_per_run" r.E.Gate.metric
  | None -> Alcotest.fail "30% slowdown passed a 25% gate");
  Alcotest.(check bool) "faster is never an ns regression" true
    (E.Gate.check_ns rules ~bench:"b" ~baseline:100. ~current:50. = None)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition edge cases *)

let test_prom_edges () =
  Alcotest.(check string) "sanitize maps everything else to _" "a_b_c_1"
    (E.Prom.sanitize "a.b-c 1");
  Alcotest.(check string) "metric_name prefixes and sanitizes"
    "zipchannel_taint_gadget_hits"
    (E.Prom.metric_name "taint.gadget_hits");
  Alcotest.(check string) "label_name: leading digit gets prefixed" "_9lives"
    (E.Prom.label_name "9lives");
  Alcotest.(check string) "label_name: never empty" "_" (E.Prom.label_name "");
  Alcotest.(check string) "label_name: valid names pass through" "codec"
    (E.Prom.label_name "codec");
  Alcotest.(check string) "escape_help: backslash and newline" "a\\\\b\\nc"
    (E.Prom.escape_help "a\\b\nc");
  Alcotest.(check string) "escape_label_value also quotes the double quote"
    "v\\\"w\\\\x\\ny"
    (E.Prom.escape_label_value "v\"w\\x\ny");
  (* Every series carries a HELP line naming the original dotted metric. *)
  let snap =
    {
      Obs.Metrics.counters = [ ("a.b", 1) ];
      gauges = [ ("g.h", 2.0) ];
      histograms =
        [ ("x.y", { Obs.Metrics.count = 1; sum = 1; buckets = [ (0, 1) ] }) ];
    }
  in
  let text = E.Prom.exposition snap in
  List.iter
    (fun help ->
      Alcotest.(check bool) (Printf.sprintf "HELP line %S present" help) true
        (List.mem help (String.split_on_char '\n' text)))
    [
      "# HELP zipchannel_a_b_total a.b";
      "# HELP zipchannel_g_h g.h";
      "# HELP zipchannel_x_y x.y";
    ]

(* Property: the classic-histogram translation of the log2 buckets has
   cumulative le counts that are monotone non-decreasing and end at the
   observation count. *)
let qcheck_prom_cumulative =
  QCheck.Test.make ~name:"prometheus le buckets are cumulative and monotone"
    ~count:50
    QCheck.(small_list (int_bound 1_000_000))
    (fun values ->
      Obs.Metrics.reset ();
      Obs.set_enabled true;
      let h = Obs.Metrics.histogram "q.hist" in
      List.iter (Obs.Metrics.observe h) values;
      let snap = Obs.Metrics.snapshot () in
      Obs.set_enabled false;
      Obs.Metrics.reset ();
      let text = E.Prom.exposition snap in
      let bucket_counts =
        List.filter_map
          (fun line ->
            if String.starts_with ~prefix:"zipchannel_q_hist_bucket{" line then
              match String.rindex_opt line ' ' with
              | Some i ->
                  int_of_string_opt
                    (String.sub line (i + 1) (String.length line - i - 1))
              | None -> None
            else None)
          (String.split_on_char '\n' text)
      in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      match (values, bucket_counts) with
      | [], [] -> true
      | [], _ :: _ -> List.for_all (( = ) 0) bucket_counts
      | _ :: _, [] -> false
      | _ ->
          monotone bucket_counts
          && List.nth bucket_counts (List.length bucket_counts - 1)
             = List.length values)

(* ------------------------------------------------------------------ *)
(* Profile movers: forensics behind a fired ns_per_run gate *)

let test_gate_movers () =
  (match
     E.Gate.profile_movers
       ~baseline:[ ("a", 50); ("b", 50) ]
       ~current:[ ("a", 75); ("b", 25) ]
   with
  | [ m1; m2 ] ->
      Alcotest.(check string) "equal movement ties break by name" "a"
        m1.E.Gate.span;
      Alcotest.(check (float 1e-9)) "a baseline share" 50. m1.E.Gate.baseline_share;
      Alcotest.(check (float 1e-9)) "a current share" 75. m1.E.Gate.current_share;
      Alcotest.(check (float 1e-9)) "a delta" 25. m1.E.Gate.delta_pt;
      Alcotest.(check (float 1e-9)) "b delta" (-25.) m2.E.Gate.delta_pt
  | ms -> Alcotest.failf "expected 2 movers, got %d" (List.length ms));
  (* A span on one side only counts as 0% on the other. *)
  (match
     E.Gate.profile_movers ~baseline:[ ("old", 10) ] ~current:[ ("new", 10) ]
   with
  | [ m1; m2 ] ->
      Alcotest.(check string) "vanished span ranked" "new" m1.E.Gate.span;
      Alcotest.(check (float 1e-9)) "new appears from 0%" 100.
        m1.E.Gate.delta_pt;
      Alcotest.(check (float 1e-9)) "old drops to 0%" (-100.) m2.E.Gate.delta_pt
  | ms -> Alcotest.failf "expected 2 movers, got %d" (List.length ms));
  Alcotest.(check int) "no samples on one side: no forensics" 0
    (List.length (E.Gate.profile_movers ~baseline:[] ~current:[ ("a", 5) ]));
  let m =
    {
      E.Gate.span = "deflate.compress";
      baseline_share = 31.0;
      current_share = 52.4;
      delta_pt = 21.4;
    }
  in
  Alcotest.(check string) "pp_mover format"
    "span deflate.compress self-share 31.0% -> 52.4% (+21.4pt)"
    (Format.asprintf "%a" E.Gate.pp_mover m)

(* ------------------------------------------------------------------ *)
(* zc obs top: the view built from one or a pair of snapshots *)

let top_snapshot =
  {
    Obs.Metrics.counters =
      [
        ("prof.samples", 200);
        ("prof.self.x", 150);
        ("prof.self.y", 50);
        ("runtime.minor_collections", 10);
        ("serve.connections", 20);
      ];
    gauges =
      [ ("runtime.heap_mb", 12.5); ("leak.capacity_bits_per_frame", 0.4) ];
    histograms =
      [
        ( "serve.request_ns",
          { Obs.Metrics.count = 3; sum = 12; buckets = [ (0, 1); (2, 2) ] } );
      ];
  }

let test_top_view () =
  let v = E.Top.of_snapshot top_snapshot in
  Alcotest.(check int) "lifetime samples" 200 v.E.Top.samples;
  Alcotest.(check bool) "spans ranked with lifetime shares" true
    (v.E.Top.spans = [ ("x", 150, 75.); ("y", 50, 25.) ]);
  let names rows = List.map (fun r -> r.E.Top.name) rows in
  Alcotest.(check (list string)) "runtime section, sorted"
    [ "runtime.heap_mb"; "runtime.minor_collections" ]
    (names v.E.Top.runtime);
  Alcotest.(check (list string)) "leak section" [ "leak.capacity_bits_per_frame" ]
    (names v.E.Top.leak);
  Alcotest.(check (list string)) "histograms flatten to .count/.sum rows"
    [ "serve.connections"; "serve.request_ns.count"; "serve.request_ns.sum" ]
    (names v.E.Top.serve);
  Alcotest.(check bool) "no rates without a previous snapshot" true
    (List.for_all (fun r -> r.E.Top.rate = None) (v.E.Top.runtime @ v.E.Top.serve));
  let rendered = E.Top.render v in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "render has %S" line) true
        (List.mem line (String.split_on_char '\n' rendered)))
    [
      "samples 200";
      "span x 75.0% (150)";
      "span y 25.0% (50)";
      "runtime.heap_mb 12.5000";
      "serve.connections 20";
    ]

let test_top_windowed () =
  let prev =
    {
      Obs.Metrics.counters =
        [ ("prof.samples", 100); ("prof.self.x", 100); ("serve.connections", 10) ];
      gauges = [];
      histograms = [];
    }
  in
  let v = E.Top.of_snapshot ~prev ~dt_s:2.0 top_snapshot in
  Alcotest.(check int) "windowed sample delta" 100 v.E.Top.samples;
  Alcotest.(check bool) "span shares over the window delta" true
    (v.E.Top.spans = [ ("x", 50, 50.); ("y", 50, 50.) ]);
  let rate name rows =
    match List.find_opt (fun r -> r.E.Top.name = name) rows with
    | Some r -> r.E.Top.rate
    | None -> None
  in
  Alcotest.(check (option (float 1e-9))) "counter rate = delta / dt" (Some 5.0)
    (rate "serve.connections" v.E.Top.serve);
  Alcotest.(check (option (float 1e-9))) "absent-in-prev counters rate from 0"
    (Some 5.0)
    (rate "runtime.minor_collections" v.E.Top.runtime);
  (* JSON mirror parses and carries the same numbers. *)
  let j = Json.parse (E.Top.to_json v) in
  Alcotest.(check (option (float 1e-9))) "json samples" (Some 100.)
    (Option.bind (Json.member "samples" j) Json.to_num);
  Alcotest.(check (option (float 1e-9))) "json span share" (Some 50.)
    (Option.bind
       (Option.bind
          (Option.bind (Json.member "spans" j) (Json.member "x"))
          (Json.member "share"))
       Json.to_num)

(* ------------------------------------------------------------------ *)
(* Crash-safe sinks: atomic writes, parent-dir creation *)

let test_sink_atomic () =
  let base = Filename.temp_file "zc-sink" "" in
  Sys.remove base;
  Fun.protect ~finally:(fun () ->
      let rec rm p =
        if Sys.file_exists p then
          if Sys.is_directory p then begin
            Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
            Sys.rmdir p
          end
          else Sys.remove p
      in
      rm base)
  @@ fun () ->
  (* Nested parents that don't exist yet get created. *)
  let path = Filename.concat base (Filename.concat "a" "b/out.json") in
  E.Sink.atomic_write ~path "{\"ok\": true}\n";
  Alcotest.(check string) "content lands at the destination"
    "{\"ok\": true}\n" (read_fixture path);
  Alcotest.(check bool) "no .tmp residue" false
    (Sys.file_exists (path ^ ".tmp"));
  (* Overwrite goes through the same rename, replacing the old content. *)
  E.Sink.atomic_write ~path "v2\n";
  Alcotest.(check string) "rename replaces previous content" "v2\n"
    (read_fixture path);
  (* Streaming variant: nothing at the destination until commit. *)
  let spath = Filename.concat base "stream/audit.jsonl" in
  let oc, commit = E.Sink.open_atomic ~path:spath in
  output_string oc "{\"frame\": 1}\n";
  flush oc;
  Alcotest.(check bool) "destination absent before commit" false
    (Sys.file_exists spath);
  Alcotest.(check bool) "tmp carries the stream" true
    (Sys.file_exists (spath ^ ".tmp"));
  commit ();
  Alcotest.(check string) "commit publishes the stream" "{\"frame\": 1}\n"
    (read_fixture spath);
  Alcotest.(check bool) "tmp gone after commit" false
    (Sys.file_exists (spath ^ ".tmp"))

let suite =
  ( "obs_export",
    [
      Alcotest.test_case "json round-trip & errors" `Quick test_json_roundtrip;
      Alcotest.test_case "snapshot json round-trip" `Quick
        test_snapshot_roundtrip;
      Alcotest.test_case "OTLP metrics golden" `Quick test_otlp_metrics_golden;
      Alcotest.test_case "OTLP trace golden" `Quick test_otlp_trace_golden;
      Alcotest.test_case "Prometheus golden" `Quick test_prom_golden;
      QCheck_alcotest.to_alcotest qcheck_otlp_counters;
      Alcotest.test_case "OTLP exponential-histogram mapping" `Quick
        test_otlp_histogram_mapping;
      Alcotest.test_case "profiler span reconstruction" `Quick
        test_profile_spans;
      Alcotest.test_case "profiler aggregation" `Quick test_profile_aggregate;
      Alcotest.test_case "profiler folded stacks" `Quick test_profile_folded;
      Alcotest.test_case "OTLP trace of a JSONL stream" `Quick
        test_otlp_of_jsonl_stream;
      Alcotest.test_case "leak scoreboard" `Quick test_leak_derive;
      Alcotest.test_case "gate classification & thresholds file" `Quick
        test_gate_classify;
      Alcotest.test_case "gate per-metric comparison" `Quick test_gate_compare;
      Alcotest.test_case "prometheus edge cases & HELP lines" `Quick
        test_prom_edges;
      QCheck_alcotest.to_alcotest qcheck_prom_cumulative;
      Alcotest.test_case "gate profile movers" `Quick test_gate_movers;
      Alcotest.test_case "top view from one snapshot" `Quick test_top_view;
      Alcotest.test_case "top view windowed with rates" `Quick
        test_top_windowed;
      Alcotest.test_case "atomic sinks & parent dirs" `Quick test_sink_atomic;
    ] )
