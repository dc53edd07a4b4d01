(* The leak audit plane: side-band discipline (compressed output is
   byte-identical with auditing off or on, at any [jobs]), sequence
   order of the records the JSONL sink receives under the reordering
   pipeline, the sink as the plane's only switch, the EWMA delta
   semantics, the JSONL round trip through the exporter's reader, and
   the estimator's information measures on known distributions. *)

open Zipchannel_util
module C = Zipchannel_compress
module Frame = C.Frame
module Obs = Zipchannel_obs.Obs
module Leak_audit = Zipchannel_obs_leak.Leak_audit
module Audit = Zipchannel.Obs_export.Audit

let lipsum n =
  let prng = Prng.create ~seed:0xBEA7 () in
  Bytes.of_string (Lipsum.repetitive_file prng ~level:3 ~size:n)

(* Run [f] with the audit sink on a fresh temporary file and return its
   result with everything the sink wrote.  The sink is cleared
   afterwards, so the rest of the suite stays unaudited. *)
let with_audit f =
  let path = Filename.temp_file "zc-audit" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  Leak_audit.set_sink (Some oc);
  let r =
    Fun.protect
      ~finally:(fun () ->
        Leak_audit.set_sink None;
        close_out oc)
      f
  in
  (r, In_channel.with_open_bin path In_channel.input_all)

(* The frame records of a sink's output, read back through the
   exporter's reader, in the order they were written. *)
let frames text =
  List.filter_map
    (function Audit.Frame r -> Some r | Audit.Request _ -> None)
    (Audit.of_string text)

let request =
  {
    Leak_audit.conn = 2;
    op = "compress";
    req_codec = "gzip";
    frame_size = 4096;
    req_bytes = 100;
    resp_bytes = 80;
    frames = 1;
    req_bucket = -1;
    wall_ns = 555;
    ts_ns = 1000;
    status = "ok";
  }

(* [read] hands out at most [chunk] bytes per call. *)
let compress_jobs ?(chunk = max_int) ?(frame_size = 512)
    ?(codec = Frame.Deflate) ~jobs data =
  let pos = ref 0 in
  let out = Buffer.create 4096 in
  Frame.compress_stream ~frame_size ~jobs ~codec
    ~read:(fun buf off len ->
      let take = min (min chunk len) (Bytes.length data - !pos) in
      Bytes.blit data !pos buf off take;
      pos := !pos + take;
      take)
    ~write:(fun buf ~off ~len -> Buffer.add_subbytes out buf off len)
    ();
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Side-band: byte-identical output, audit off vs on, jobs 1 and 4 *)

let test_output_byte_identical () =
  let data = lipsum 40_000 in
  let off_1 = compress_jobs ~jobs:1 data in
  let off_4 = compress_jobs ~jobs:4 data in
  let (on_1, on_4), _ =
    with_audit (fun () -> (compress_jobs ~jobs:1 data, compress_jobs ~jobs:4 data))
  in
  Alcotest.(check bool) "audit on = off, jobs 1" true (off_1 = on_1);
  Alcotest.(check bool) "audit on = off, jobs 4" true (off_4 = on_4);
  Alcotest.(check bool) "jobs 4 = jobs 1" true (off_1 = off_4)

let test_encoder_byte_identical () =
  let data = lipsum 10_000 in
  (* Input arrives in 7-byte reads, so every frame is assembled from
     several of them. *)
  let run () =
    compress_jobs ~chunk:7 ~frame_size:256 ~codec:Frame.Lzw ~jobs:1 data
  in
  let plain = run () in
  let audited, text = with_audit run in
  Alcotest.(check bool) "encoder output unchanged" true (plain = audited);
  Alcotest.(check bool) "the stream was audited" true (frames text <> [])

(* ------------------------------------------------------------------ *)
(* Sink records: sequence order survives the reordering pipeline *)

(* Strip the process-unique stream id so runs are comparable. *)
let shape (r : Leak_audit.record) =
  (r.seq, r.tag, r.ulen, r.clen, r.delta, r.bucket)

let records_of_run ~jobs data =
  let (), text = with_audit (fun () -> ignore (compress_jobs ~jobs data)) in
  List.map shape (frames text)

let test_record_order_jobs_invariant () =
  let data = lipsum 30_000 in
  let seq = records_of_run ~jobs:1 data in
  let par = records_of_run ~jobs:4 data in
  Alcotest.(check int) "record count" (List.length seq) (List.length par);
  Alcotest.(check bool) "same records in sequence order" true (seq = par);
  let seqs = List.map (fun (s, _, _, _, _, _) -> s) seq in
  Alcotest.(check (list int)) "written in sequence order"
    (List.init (List.length seqs) Fun.id)
    seqs;
  Alcotest.(check bool) "trailer last" true
    (match List.rev seq with (_, Leak_audit.Trailer, _, _, _, _) :: _ -> true | _ -> false)

let qcheck_record_order =
  QCheck.Test.make ~name:"leak audit records invariant under jobs" ~count:15
    QCheck.(pair (int_range 0 20_000) (int_range 2 4))
    (fun (n, jobs) ->
      let data = lipsum (max 1 n) in
      records_of_run ~jobs:1 data = records_of_run ~jobs data)

(* ------------------------------------------------------------------ *)
(* Delta semantics: first data frame 0, constant clens converge to 0 *)

let test_delta_semantics () =
  let (), text =
    with_audit (fun () ->
        let s = Leak_audit.Stream.create ~bucket:3 ~codec:"test" () in
        for seq = 0 to 9 do
          Leak_audit.Stream.on_frame s ~seq ~tag:Leak_audit.Data ~ulen:100
            ~clen:50 ~enc_ns:0
        done)
  in
  match frames text with
  | [] -> Alcotest.fail "no records"
  | first :: rest ->
      Alcotest.(check int) "first delta" 0 first.Leak_audit.delta;
      List.iter
        (fun (r : Leak_audit.record) ->
          Alcotest.(check int)
            (Printf.sprintf "constant clen delta at seq %d" r.seq)
            0 r.delta)
        rest

let test_prefix_bucket () =
  let b = Bytes.of_string "secret=1234567890abcdef" in
  let x = Leak_audit.prefix_bucket b ~len:(Bytes.length b) in
  let y = Leak_audit.prefix_bucket b ~len:(Bytes.length b) in
  Alcotest.(check int) "deterministic" x y;
  Alcotest.(check bool) "in range" true
    (x >= 0 && x < Leak_audit.n_prefix_buckets);
  (* Only the first 16 bytes key the bucket. *)
  let b' = Bytes.of_string "secret=1234567890ZZZZZZ" in
  Alcotest.(check int) "prefix only" x
    (Leak_audit.prefix_bucket b' ~len:(Bytes.length b'))

(* ------------------------------------------------------------------ *)
(* The sink is the switch *)

(* With no sink, a frame stream opens no audit stream and a request
   record goes nowhere; setting a sink turns both on, and clearing it
   turns them off again. *)
let test_sink_is_switch () =
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  let count name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let data = lipsum 2_000 in
  let run () =
    ignore (compress_jobs ~jobs:1 data);
    Leak_audit.record_request request
  in
  Alcotest.(check bool) "off by default" false (Leak_audit.enabled ());
  run ();
  Alcotest.(check int) "no sink: no audit stream" 0 (count "leak.audit.streams");
  Alcotest.(check int) "no sink: no request" 0 (count "leak.requests");
  let (), text =
    with_audit (fun () ->
        Alcotest.(check bool) "a sink turns auditing on" true
          (Leak_audit.enabled ());
        run ())
  in
  Alcotest.(check int) "sink: one audit stream" 1 (count "leak.audit.streams");
  Alcotest.(check int) "sink: one request" 1 (count "leak.requests");
  (* 2000 bytes in 512-byte frames: 4 data frames, the trailer and the
     request. *)
  Alcotest.(check int) "every record reached the sink" 6
    (List.length (Audit.of_string text));
  Alcotest.(check bool) "clearing the sink turns auditing off" false
    (Leak_audit.enabled ());
  run ();
  Alcotest.(check int) "cleared: no audit stream" 1 (count "leak.audit.streams");
  Alcotest.(check int) "cleared: no request" 1 (count "leak.requests")

(* ------------------------------------------------------------------ *)
(* JSONL round trip through the exporter's reader *)

let test_jsonl_roundtrip () =
  let r =
    {
      Leak_audit.stream = 7;
      seq = 3;
      tag = Leak_audit.Data;
      codec = "deflate";
      ulen = 512;
      clen = 203;
      delta = -4;
      bucket = 17;
      enc_ns = 12345;
      ts_ns = 999;
    }
  in
  (match Audit.of_string (Leak_audit.jsonl_of_record r) with
  | [ Audit.Frame r' ] ->
      Alcotest.(check bool) "frame record round trips" true (r = r')
  | _ -> Alcotest.fail "expected one frame record");
  let q = request in
  match Audit.of_string (Leak_audit.jsonl_of_request q) with
  | [ Audit.Request q' ] ->
      Alcotest.(check bool) "request record round trips" true (q = q')
  | _ -> Alcotest.fail "expected one request record"

(* Each record is one flushed line of the sink: the file holds exactly
   the records' JSONL renderings, frames and requests alike, in the
   order they were made. *)
let test_sink_lines () =
  let (), text =
    with_audit (fun () ->
        let s = Leak_audit.Stream.create ~bucket:1 ~codec:"test" () in
        Leak_audit.Stream.on_frame s ~seq:0 ~tag:Leak_audit.Data ~ulen:4 ~clen:4
          ~enc_ns:0;
        Leak_audit.Stream.on_frame s ~seq:1 ~tag:Leak_audit.Trailer ~ulen:0
          ~clen:0 ~enc_ns:0;
        Leak_audit.record_request request)
  in
  let rendered =
    List.map
      (function
        | Audit.Frame r -> Leak_audit.jsonl_of_record r
        | Audit.Request q -> Leak_audit.jsonl_of_request q)
      (Audit.of_string text)
  in
  Alcotest.(check int) "three records" 3 (List.length rendered);
  Alcotest.(check string) "one line per record"
    (String.concat "" (List.map (fun l -> l ^ "\n") rendered))
    text

(* ------------------------------------------------------------------ *)
(* Estimator: information measures on known distributions *)

let feed est ~bucket ~delta ~count =
  for _ = 1 to count do
    Leak_audit.Estimator.observe est ~bucket ~delta
  done

let test_estimator_separated () =
  (* Two buckets, disjoint deltas: a perfect 1-bit channel. *)
  let est = Leak_audit.Estimator.create ~buckets:4 ~delta_range:8 () in
  feed est ~bucket:0 ~delta:(-2) ~count:100;
  feed est ~bucket:1 ~delta:5 ~count:100;
  Alcotest.(check int) "observations" 200
    (Leak_audit.Estimator.observations est);
  let mi = Leak_audit.Estimator.mutual_information_bits est in
  let cap = Leak_audit.Estimator.capacity_bits est in
  let h = Leak_audit.Estimator.delta_entropy_bits est in
  Alcotest.(check (float 1e-6)) "MI = 1 bit" 1.0 mi;
  Alcotest.(check (float 1e-4)) "capacity = 1 bit" 1.0 cap;
  Alcotest.(check (float 1e-6)) "marginal entropy = 1 bit" 1.0 h;
  Alcotest.(check bool) "conditional histogram" true
    (Leak_audit.Estimator.cond_histogram est ~bucket:0 = [ (-2, 100) ])

let test_estimator_indistinguishable () =
  (* Same delta distribution in both buckets: nothing to learn. *)
  let est = Leak_audit.Estimator.create ~buckets:4 ~delta_range:8 () in
  List.iter
    (fun bucket ->
      feed est ~bucket ~delta:0 ~count:50;
      feed est ~bucket ~delta:3 ~count:50)
    [ 0; 1 ];
  Alcotest.(check (float 1e-6)) "MI = 0" 0.0
    (Leak_audit.Estimator.mutual_information_bits est);
  Alcotest.(check (float 1e-3)) "capacity = 0" 0.0
    (Leak_audit.Estimator.capacity_bits est)

let test_estimator_degenerate () =
  let est = Leak_audit.Estimator.create () in
  Alcotest.(check (float 0.)) "empty capacity" 0.0
    (Leak_audit.Estimator.capacity_bits est);
  feed est ~bucket:2 ~delta:1 ~count:10;
  Alcotest.(check (float 0.)) "single-bucket capacity" 0.0
    (Leak_audit.Estimator.capacity_bits est);
  (* Outliers clamp into the end bins instead of being dropped. *)
  Leak_audit.Estimator.observe est ~bucket:3 ~delta:10_000;
  Alcotest.(check int) "clamped observation kept" 11
    (Leak_audit.Estimator.observations est);
  Leak_audit.Estimator.clear est;
  Alcotest.(check int) "clear" 0 (Leak_audit.Estimator.observations est)

let suite =
  ( "leak_audit",
    [
      Alcotest.test_case "output byte-identical off/on" `Quick
        test_output_byte_identical;
      Alcotest.test_case "encoder byte-identical off/on" `Quick
        test_encoder_byte_identical;
      Alcotest.test_case "record order jobs-invariant" `Quick
        test_record_order_jobs_invariant;
      QCheck_alcotest.to_alcotest qcheck_record_order;
      Alcotest.test_case "delta semantics" `Quick test_delta_semantics;
      Alcotest.test_case "prefix bucket" `Quick test_prefix_bucket;
      Alcotest.test_case "sink is the switch" `Quick test_sink_is_switch;
      Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "sink writes one line per record" `Quick
        test_sink_lines;
      Alcotest.test_case "estimator separated buckets" `Quick
        test_estimator_separated;
      Alcotest.test_case "estimator indistinguishable" `Quick
        test_estimator_indistinguishable;
      Alcotest.test_case "estimator degenerate" `Quick
        test_estimator_degenerate;
    ] )
