module Metrics = Zipchannel_obs.Obs.Metrics

(* OTLP/JSON as specified by the OpenTelemetry protocol's canonical JSON
   encoding: 64-bit integers (timestamps, counts, asInt) are strings,
   span/trace ids are lowercase hex.  We emit single-resource,
   single-scope requests. *)

let scope_name = "zipchannel.obs"

let resource =
  Json.Obj
    [
      ( "attributes",
        Json.Arr
          [
            Json.Obj
              [
                ("key", Json.Str "service.name");
                ("value", Json.Obj [ ("stringValue", Json.Str "zipchannel") ]);
              ];
          ] );
    ]

let i64 n = Json.Str (string_of_int n)

(* -- metrics ----------------------------------------------------------- *)

let number_point ?(time_unix_nano = 0) v =
  Json.Obj (("timeUnixNano", i64 time_unix_nano) :: v)

let counter_metric ~time_unix_nano (name, v) =
  Json.Obj
    [
      ("name", Json.Str name);
      ( "sum",
        Json.Obj
          [
            ( "dataPoints",
              Json.Arr [ number_point ~time_unix_nano [ ("asInt", i64 v) ] ] );
            ("aggregationTemporality", Json.Num 2.);
            ("isMonotonic", Json.Bool true);
          ] );
    ]

let gauge_metric ~time_unix_nano (name, v) =
  Json.Obj
    [
      ("name", Json.Str name);
      ( "gauge",
        Json.Obj
          [
            ( "dataPoints",
              Json.Arr
                [ number_point ~time_unix_nano [ ("asDouble", Json.Num v) ] ] );
          ] );
    ]

(* A log2 histogram maps directly onto an OTLP exponential histogram at
   scale 0: our bucket b >= 1 covers (2^(b-1), 2^b], which is OTLP
   positive-bucket index b-1; bucket 0 (v <= 1) becomes the zero bucket
   with zeroThreshold 1. *)
let histogram_metric ~time_unix_nano (name, (hs : Metrics.histogram_snapshot)) =
  let zero_count =
    Option.value ~default:0 (List.assoc_opt 0 hs.buckets)
  in
  let positive = List.filter (fun (b, _) -> b > 0) hs.buckets in
  let point =
    match positive with
    | [] ->
        [
          ("count", i64 hs.count);
          ("sum", Json.Num (float_of_int hs.sum));
          ("scale", Json.Num 0.);
          ("zeroCount", i64 zero_count);
          ("zeroThreshold", Json.Num 1.);
        ]
    | _ ->
        let lo = List.fold_left (fun acc (b, _) -> min acc b) max_int positive in
        let hi = List.fold_left (fun acc (b, _) -> max acc b) 0 positive in
        let dense =
          List.init
            (hi - lo + 1)
            (fun i ->
              i64 (Option.value ~default:0 (List.assoc_opt (lo + i) positive)))
        in
        [
          ("count", i64 hs.count);
          ("sum", Json.Num (float_of_int hs.sum));
          ("scale", Json.Num 0.);
          ("zeroCount", i64 zero_count);
          ("zeroThreshold", Json.Num 1.);
          ( "positive",
            Json.Obj
              [ ("offset", Json.Num (float_of_int (lo - 1)));
                ("bucketCounts", Json.Arr dense);
              ] );
        ]
  in
  Json.Obj
    [
      ("name", Json.Str name);
      ( "exponentialHistogram",
        Json.Obj
          [
            ( "dataPoints",
              Json.Arr [ number_point ~time_unix_nano point ] );
            ("aggregationTemporality", Json.Num 2.);
          ] );
    ]

let metrics_request ?(time_unix_nano = 0) (s : Metrics.snapshot) =
  let metrics =
    List.map (counter_metric ~time_unix_nano) s.counters
    @ List.map (gauge_metric ~time_unix_nano) s.gauges
    @ List.map (histogram_metric ~time_unix_nano) s.histograms
  in
  Json.Obj
    [
      ( "resourceMetrics",
        Json.Arr
          [
            Json.Obj
              [
                ("resource", resource);
                ( "scopeMetrics",
                  Json.Arr
                    [
                      Json.Obj
                        [
                          ("scope", Json.Obj [ ("name", Json.Str scope_name) ]);
                          ("metrics", Json.Arr metrics);
                        ];
                    ] );
              ];
          ] );
    ]

(* -- traces ------------------------------------------------------------ *)

(* The source streams carry no trace id, so we derive a deterministic one
   from the stream's shape (FNV-1a over names and timestamps, two seeds
   for 128 bits).  Same trace file, same ids — golden tests rely on it. *)
let fnv1a seed s =
  let h = ref seed in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let trace_id_of_spans spans =
  let digest =
    String.concat "|"
      (List.map
         (fun (s : Profile.span) -> Printf.sprintf "%s:%d" s.name s.start_ns)
         spans)
  in
  Printf.sprintf "%016Lx%016Lx"
    (fnv1a 0xcbf29ce484222325L digest)
    (fnv1a 0x84222325cbf29ce4L digest)

let attr_str k v =
  Json.Obj
    [ ("key", Json.Str k); ("value", Json.Obj [ ("stringValue", Json.Str v) ]) ]

let attr_int k v =
  Json.Obj
    [ ("key", Json.Str k); ("value", Json.Obj [ ("intValue", i64 v) ]) ]

let span_json ~trace_id (s : Profile.span) =
  let base =
    [
      ("traceId", Json.Str trace_id);
      ("spanId", Json.Str (Printf.sprintf "%016x" s.id));
    ]
  in
  let parent =
    match s.parent with
    | Some p -> [ ("parentSpanId", Json.Str (Printf.sprintf "%016x" p)) ]
    | None -> []
  in
  Json.Obj
    (base @ parent
    @ [
        ("name", Json.Str s.name);
        ("kind", Json.Num 1.);
        ("startTimeUnixNano", i64 s.start_ns);
        ("endTimeUnixNano", i64 s.end_ns);
        ( "attributes",
          Json.Arr
            (attr_int "zipchannel.domain" s.domain
            :: attr_int "zipchannel.depth" s.depth
            :: List.map (fun (k, v) -> attr_str k v) s.attrs) );
      ])

let trace_request events =
  let spans = Profile.spans_of_events events in
  let trace_id = trace_id_of_spans spans in
  Json.Obj
    [
      ( "resourceSpans",
        Json.Arr
          [
            Json.Obj
              [
                ("resource", resource);
                ( "scopeSpans",
                  Json.Arr
                    [
                      Json.Obj
                        [
                          ("scope", Json.Obj [ ("name", Json.Str scope_name) ]);
                          ("spans", Json.Arr (List.map (span_json ~trace_id) spans));
                        ];
                    ] );
              ];
          ] );
    ]
