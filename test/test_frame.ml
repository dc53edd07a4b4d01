(* The frame container and the pipelined engine under it.

   The load-bearing properties: framed output decodes to exactly the
   input across every chunking of the feed and every codec; the
   pipelined entry points are byte-identical to [jobs = 1]; the bounded
   queue applies backpressure instead of buffering without limit; and
   malformed streams come back as structured [Codec_error]s, never
   exceptions. *)

open Zipchannel_util
module C = Zipchannel_compress
module Frame = C.Frame
module Pipeline = Zipchannel_parallel.Pipeline
module Pool = Zipchannel_parallel.Pool
module Obs = Zipchannel_obs.Obs

let all_codecs = Frame.[ Deflate; Gzip; Bzip2; Lzw ]
let chunk_sizes = [ 1; 7; 4096; 65536 ]

let lipsum n =
  let prng = Prng.create ~seed:0xF7A3E ()  in
  Bytes.of_string (Lipsum.repetitive_file prng ~level:3 ~size:n)

(* ------------------------------------------------------------------ *)
(* Whole-buffer round trips *)

let test_roundtrip_all_codecs () =
  let data = lipsum 20_000 in
  List.iter
    (fun codec ->
      let packed = Frame.compress ~frame_size:4096 ~codec data in
      Alcotest.(check bytes)
        (Frame.codec_name codec ^ " roundtrip")
        data (Frame.decompress packed))
    all_codecs

let test_roundtrip_empty () =
  List.iter
    (fun codec ->
      let packed = Frame.compress ~codec Bytes.empty in
      Alcotest.(check bytes)
        (Frame.codec_name codec ^ " empty")
        Bytes.empty (Frame.decompress packed);
      (* header + trailer only *)
      Alcotest.(check int)
        (Frame.codec_name codec ^ " empty size")
        (Frame.header_len + Frame.trailer_len)
        (Bytes.length packed))
    all_codecs

let test_jobs_byte_identical () =
  let data = lipsum 300_000 in
  List.iter
    (fun codec ->
      let one = Frame.compress ~frame_size:16384 ~codec data in
      let four = Frame.compress ~frame_size:16384 ~jobs:4 ~codec data in
      Alcotest.(check bytes)
        (Frame.codec_name codec ^ " jobs 4 = jobs 1")
        one four)
    all_codecs

(* ------------------------------------------------------------------ *)
(* Streaming: how [read] slices the input is unobservable *)

(* A [read] callback over [data] that hands out at most [chunk] bytes per
   call, however many are asked for; [pos] counts the bytes handed out. *)
let reader_of_bytes ?(chunk = max_int) ?pos data =
  let pos = Option.value pos ~default:(ref 0) in
  fun buf off len ->
    let n = min (min chunk len) (Bytes.length data - !pos) in
    Bytes.blit data !pos buf off n;
    pos := !pos + n;
    n

let encode_chunked ?jobs ?chunk ~frame_size ~codec data =
  let out = Buffer.create 256 in
  Frame.compress_stream ~frame_size ?jobs ~codec
    ~read:(reader_of_bytes ?chunk data)
    ~write:(fun b ~off ~len -> Buffer.add_subbytes out b off len)
    ();
  Buffer.to_bytes out

let decode_chunked ?jobs ?chunk ?pos packed =
  let out = Buffer.create 256 in
  Frame.decompress_stream ?jobs
    ~read:(reader_of_bytes ?chunk ?pos packed)
    ~write:(fun b ~off ~len -> Buffer.add_subbytes out b off len)
    ()
  |> Result.map (fun () -> Buffer.to_bytes out)

let test_encoder_chunking_invariant () =
  let data = lipsum 50_000 in
  List.iter
    (fun codec ->
      let whole = Frame.compress ~frame_size:4096 ~codec data in
      List.iter
        (fun chunk ->
          Alcotest.(check bytes)
            (Printf.sprintf "%s chunk=%d" (Frame.codec_name codec) chunk)
            whole
            (encode_chunked ~chunk ~frame_size:4096 ~codec data))
        chunk_sizes)
    all_codecs

let test_decoder_chunking_invariant () =
  let data = lipsum 50_000 in
  List.iter
    (fun codec ->
      let packed = Frame.compress ~frame_size:4096 ~codec data in
      List.iter
        (fun chunk ->
          match decode_chunked ~chunk packed with
          | Ok out ->
              Alcotest.(check bytes)
                (Printf.sprintf "%s chunk=%d" (Frame.codec_name codec) chunk)
                data out
          | Error e ->
              Alcotest.failf "%s chunk=%d: %s" (Frame.codec_name codec) chunk
                (C.Codec_error.to_string e))
        chunk_sizes)
    all_codecs

(* No encoder emits flush frames, so build one by hand: retag the first
   data frame 0x02 and follow it with a bare 13-byte flush point. *)
let test_flush_points_roundtrip () =
  let a = Bytes.of_string "first part " and b = Bytes.of_string "second part" in
  let plain = Bytes.cat a b in
  let packed =
    Frame.compress ~frame_size:(Bytes.length a) ~codec:Frame.Lzw plain
  in
  let first_end =
    Frame.header_len + Frame.frame_header_len
    + Int32.to_int (Bytes.get_int32_le packed (Frame.header_len + 5))
  in
  let flushed = Bytes.sub packed 0 first_end in
  Bytes.set flushed Frame.header_len '\x02';
  let bare = Bytes.make Frame.frame_header_len '\000' in
  Bytes.set bare 0 '\x02';
  let rest = Bytes.sub packed first_end (Bytes.length packed - first_end) in
  let stream = Bytes.concat Bytes.empty [ flushed; bare; rest ] in
  Alcotest.(check bytes) "decompress_result" plain (Frame.decompress stream);
  List.iter
    (fun jobs ->
      match decode_chunked ~jobs stream with
      | Ok out ->
          Alcotest.(check bytes)
            (Printf.sprintf "decompress_stream jobs=%d" jobs)
            plain out
      | Error e ->
          Alcotest.failf "jobs=%d: %s" jobs (C.Codec_error.to_string e))
    [ 1; 2 ]

let check_error ~reason packed =
  match Frame.decompress_result packed with
  | Ok _ -> Alcotest.failf "expected %S error" reason
  | Error e ->
      Alcotest.(check string) "codec" "frame" e.C.Codec_error.codec;
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      if not (contains reason e.C.Codec_error.reason) then
        Alcotest.failf "reason %S does not mention %S" e.C.Codec_error.reason
          reason

let test_decoder_errors () =
  let data = lipsum 5_000 in
  let packed = Frame.compress ~frame_size:1024 ~codec:Frame.Deflate data in
  (* truncation: every strict prefix fails; check a few *)
  check_error ~reason:"truncated" (Bytes.sub packed 0 (Bytes.length packed - 1));
  check_error ~reason:"truncated" (Bytes.sub packed 0 Frame.header_len);
  check_error ~reason:"truncated" (Bytes.sub packed 0 3);
  (* bad magic *)
  let bad = Bytes.copy packed in
  Bytes.set bad 0 'Q';
  check_error ~reason:"bad magic" bad;
  (* unknown codec id *)
  let bad = Bytes.copy packed in
  Bytes.set bad 4 '\213';
  check_error ~reason:"unknown codec" bad;
  (* payload corruption behind the per-frame CRC *)
  let bad = Bytes.copy packed in
  let p = Frame.header_len + Frame.frame_header_len in
  Bytes.set bad p (Char.chr (Char.code (Bytes.get bad p) lxor 0x40));
  check_error ~reason:"checksum mismatch" bad;
  (* trailing garbage after the trailer *)
  check_error ~reason:"trailing data" (Bytes.cat packed (Bytes.of_string "x"));
  (* decode boundary never raises: arbitrary mutations give Error *)
  let prng = Prng.create ~seed:99 () in
  for _ = 1 to 200 do
    let bad = Bytes.copy packed in
    let i = Prng.int prng (Bytes.length bad) in
    Bytes.set bad i (Char.chr (Prng.int prng 256));
    match Frame.decompress_result bad with Ok _ | Error _ -> ()
  done

(* Codec id 1 was a private DEFLATE-shaped payload; deflate frames now
   carry RFC 1951 under id 5, and a stream naming the retired id is an
   unknown codec to both decoders. *)
let test_retired_codec_id () =
  let packed = Frame.compress ~frame_size:1024 ~codec:Frame.Deflate (lipsum 3_000) in
  Alcotest.(check int) "deflate id" 5 (Char.code (Bytes.get packed 4));
  Alcotest.(check (option reject)) "id 1" None (Frame.codec_of_id 1);
  let old = Bytes.copy packed in
  Bytes.set old 4 '\001';
  check_error ~reason:"unknown codec id" old;
  match decode_chunked ~jobs:2 old with
  | Ok _ -> Alcotest.fail "decompress_stream decoded codec id 1"
  | Error e ->
      Alcotest.(check (pair string string)) "decompress_stream"
        ("frame", "unknown codec id")
        (e.C.Codec_error.codec, e.C.Codec_error.reason)

(* ------------------------------------------------------------------ *)
(* Streaming entry points *)

let test_stream_roundtrip_jobs () =
  let data = lipsum 200_000 in
  List.iter
    (fun jobs ->
      let packed = encode_chunked ~jobs ~frame_size:8192 ~codec:Frame.Gzip data in
      match decode_chunked ~jobs packed with
      | Error e -> Alcotest.failf "jobs=%d: %s" jobs (C.Codec_error.to_string e)
      | Ok plain ->
          Alcotest.(check bytes)
            (Printf.sprintf "jobs=%d stream roundtrip" jobs)
            data plain)
    [ 1; 4 ]

(* The daemon reads a request's frame stream off a socket that may carry
   more; the decoder must hand back the socket positioned right after
   the trailer. *)
let test_stream_stops_at_trailer () =
  let data = lipsum 20_000 in
  let packed = Frame.compress ~frame_size:4096 ~codec:Frame.Deflate data in
  let wire = Bytes.cat packed (Bytes.of_string "the next request") in
  List.iter
    (fun (jobs, chunk) ->
      let pos = ref 0 in
      match decode_chunked ~jobs ~chunk ~pos wire with
      | Error e ->
          Alcotest.failf "jobs=%d chunk=%d: %s" jobs chunk
            (C.Codec_error.to_string e)
      | Ok plain ->
          Alcotest.(check bytes) "plaintext" data plain;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d chunk=%d reads up to the trailer" jobs chunk)
            (Bytes.length packed) !pos)
    [ (1, max_int); (1, 7); (2, max_int) ]

(* Every frame the encoder counts out, the decoder counts back in. *)
let test_counter_parity () =
  let value name =
    Obs.Metrics.counter_value (Obs.Metrics.counter ("kernel.frame." ^ name))
  in
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  let data = lipsum 40_000 in
  List.iter
    (fun jobs ->
      Obs.Metrics.reset ();
      let packed =
        encode_chunked ~jobs ~frame_size:4096 ~codec:Frame.Deflate data
      in
      (match decode_chunked ~jobs packed with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "jobs=%d: %s" jobs (C.Codec_error.to_string e));
      let label what = Printf.sprintf "jobs=%d %s" jobs what in
      Alcotest.(check int) (label "frames encoded") 10 (value "enc_frames");
      Alcotest.(check int) (label "bytes encoded")
        (Bytes.length packed - Frame.header_len - Frame.trailer_len)
        (value "enc_bytes_out");
      Alcotest.(check int) (label "dec_frames = enc_frames")
        (value "enc_frames") (value "dec_frames");
      Alcotest.(check int) (label "dec_bytes_in = enc_bytes_out")
        (value "enc_bytes_out") (value "dec_bytes_in");
      Alcotest.(check int) (label "dec_bytes_out = enc_bytes_in")
        (value "enc_bytes_in") (value "dec_bytes_out"))
    [ 1; 2 ]

let qcheck_frame_roundtrip =
  QCheck.Test.make ~name:"framed compress/decompress is the identity"
    ~count:60
    QCheck.(
      pair
        (string_of_size QCheck.Gen.(0 -- 3000))
        (int_range 0 (List.length all_codecs * List.length chunk_sizes - 1)))
    (fun (s, pick) ->
      let codec = List.nth all_codecs (pick / List.length chunk_sizes) in
      let chunk = List.nth chunk_sizes (pick mod List.length chunk_sizes) in
      let data = Bytes.of_string s in
      let packed = Frame.compress ~frame_size:256 ~codec data in
      (* one whole-buffer encode must agree with a chunked feed, and the
         chunked decode must invert both *)
      let chunked = encode_chunked ~chunk ~frame_size:256 ~codec data in
      Bytes.equal packed chunked
      &&
      match decode_chunked ~chunk packed with
      | Ok out -> Bytes.equal out data
      | Error _ -> false)

let qcheck_stream_jobs_identical =
  QCheck.Test.make ~name:"pipelined frame stream is byte-identical at any jobs"
    ~count:20
    QCheck.(string_of_size QCheck.Gen.(0 -- 50_000))
    (fun s ->
      let data = Bytes.of_string s in
      let run jobs =
        encode_chunked ~jobs ~frame_size:1024 ~codec:Frame.Deflate data
      in
      Bytes.equal (run 1) (run 4))

(* ------------------------------------------------------------------ *)
(* The pipeline engine proper.  The pool clamps [jobs] to
   [available_jobs], so these run on at most that many domains: with one
   helper on two cores, more than one helper at a time only on three or
   more.  On one core they would run the sequential path, so the tests
   whose point is concurrency skip there instead of passing vacuously;
   the qcheck properties compare against jobs 1 and hold either way. *)

let needs_two_domains () =
  if Pool.available_jobs () < 2 then begin
    print_endline "skipped: one core, so jobs clamps to 1 and no helper runs";
    Alcotest.skip ()
  end

let test_pipeline_order_and_identity () =
  needs_two_domains ();
  let n = 500 in
  let out = ref [] in
  Pipeline.run ~jobs:4
    ~produce:(fun ~seq -> if seq < n then Some seq else None)
    ~work:(fun x -> x * x)
    ~consume:(fun ~seq y -> out := (seq, y) :: !out)
    ();
  let got = List.rev !out in
  Alcotest.(check int) "all items" n (List.length got);
  List.iteri
    (fun i (seq, y) ->
      Alcotest.(check int) "in order" i seq;
      Alcotest.(check int) "result" (i * i) y)
    got

let test_pipeline_backpressure () =
  (* A slow consumer must bound the in-flight window: with capacity 4,
     the producer can never run more than 4 items ahead of the
     consumer.  The producer and consumer run in the calling domain, so
     observing [produced - consumed] at produce time is race-free. *)
  needs_two_domains ();
  let produced = ref 0 and consumed = ref 0 in
  let max_ahead = ref 0 in
  Pipeline.run ~jobs:3 ~capacity:4
    ~produce:(fun ~seq ->
      max_ahead := max !max_ahead (!produced - !consumed);
      if seq < 200 then begin
        incr produced;
        Some seq
      end
      else None)
    ~work:(fun x -> x)
    ~consume:(fun ~seq:_ _ ->
      incr consumed;
      (* slow consumer: let workers pile results up if they could *)
      if !consumed mod 10 = 0 then
        for _ = 1 to 1000 do
          Domain.cpu_relax ()
        done)
    ();
  Alcotest.(check int) "everything consumed" 200 !consumed;
  Alcotest.(check bool)
    (Printf.sprintf "window bounded (saw %d ahead, capacity 4)" !max_ahead)
    true (!max_ahead <= 4)

let test_pipeline_worker_exception_propagates () =
  needs_two_domains ();
  let boom = Failure "boom at 17" in
  let consumed_after_fault = ref false in
  (match
     Pipeline.run ~jobs:4
       ~produce:(fun ~seq -> if seq < 100 then Some seq else None)
       ~work:(fun x -> if x = 17 then raise boom else x)
       ~consume:(fun ~seq _ -> if seq > 17 then consumed_after_fault := true)
       ()
   with
  | () -> Alcotest.fail "expected the worker failure to propagate"
  | exception Failure msg -> Alcotest.(check string) "message" "boom at 17" msg);
  Alcotest.(check bool) "nothing past the fault was consumed" false
    !consumed_after_fault

let test_pipeline_consumer_exception_propagates () =
  needs_two_domains ();
  match
    Pipeline.run ~jobs:2
      ~produce:(fun ~seq -> if seq < 50 then Some seq else None)
      ~work:(fun x -> x)
      ~consume:(fun ~seq _ -> if seq = 5 then failwith "consumer")
      ()
  with
  | () -> Alcotest.fail "expected the consumer failure to propagate"
  | exception Failure msg -> Alcotest.(check string) "message" "consumer" msg

let qcheck_pipeline_deterministic =
  QCheck.Test.make ~name:"pipeline consume order is deterministic in jobs"
    ~count:30
    QCheck.(pair (int_range 0 300) (int_range 2 6))
    (fun (n, jobs) ->
      let run jobs =
        let acc = Buffer.create 64 in
        Pipeline.run ~jobs
          ~produce:(fun ~seq -> if seq < n then Some seq else None)
          ~work:(fun x -> x * 7)
          ~consume:(fun ~seq y -> Buffer.add_string acc (Printf.sprintf "%d:%d;" seq y))
          ();
        Buffer.contents acc
      in
      run 1 = run jobs)

(* ------------------------------------------------------------------ *)
(* The persistent pool under [Pipeline] and [Pool.map_*] *)

(* [f ()] and the domains that emitted a codec span while it ran. *)
let codec_domains f =
  let seen = ref [] in
  let previous = Obs.Trace.sink () in
  Obs.Trace.set_sink
    (Obs.Trace.Custom
       (fun ev ->
         if ev.Obs.Trace.name = "deflate.compress" && not (List.mem ev.domain !seen)
         then seen := ev.domain :: !seen));
  let r = Fun.protect ~finally:(fun () -> Obs.Trace.set_sink previous) f in
  (r, !seen)

(* Domains are spawned once and parked, not per call: across 50 framed
   compressions at jobs 2, the domains that run [work] number at most
   [available_jobs]. *)
let test_pool_domains_bounded () =
  needs_two_domains ();
  let data = lipsum 300_000 in
  let (), seen =
    codec_domains (fun () ->
        for _ = 1 to 50 do
          ignore (Frame.compress ~jobs:2 ~codec:Frame.Deflate data)
        done)
  in
  let n = List.length seen in
  Alcotest.(check bool)
    (Printf.sprintf "%d domains ran work (available %d)" n (Pool.available_jobs ()))
    true
    (n >= 1 && n <= Pool.available_jobs ())

(* The domains other than the caller's that ran one framed compression,
   checking its bytes on the way. *)
let helper_domains ~want data =
  let got, seen =
    codec_domains (fun () ->
        Frame.compress ~frame_size:4096 ~jobs:2 ~codec:Frame.Deflate data)
  in
  Alcotest.(check bytes) "jobs-1 bytes" want got;
  List.filter (fun d -> d <> (Domain.self () :> int)) seen

(* A worker idle for two major cycles retires, and the next parallel
   call gets a fresh one: a process that stops asking for parallelism
   stops paying for a parked domain at every collection. *)
let test_pool_idle_worker_retires () =
  needs_two_domains ();
  let data = lipsum 400_000 in
  let want = Frame.compress ~frame_size:4096 ~jobs:1 ~codec:Frame.Deflate data in
  let rec first_helper tries =
    match helper_domains ~want data with
    | d :: _ -> Some d
    | [] -> if tries > 1 then first_helper (tries - 1) else None
  in
  let before = first_helper 5 in
  Alcotest.(check bool) "a helper ran" true (before <> None);
  let rec after tries =
    Gc.full_major ();
    Gc.full_major ();
    Thread.delay 0.05;
    match first_helper 5 with
    | Some d when Some d <> before -> true
    | _ -> tries > 1 && after (tries - 1)
  in
  Alcotest.(check bool) "a fresh worker after the idle period" true (after 5)

(* A call nested in another call's item cannot deadlock, whichever
   primitive is outside. *)
let test_pool_nesting () =
  needs_two_domains ();
  let squares n = Array.init n (fun i -> i * i) in
  let out = ref [] in
  Pipeline.run ~jobs:2
    ~produce:(fun ~seq -> if seq < 8 then Some seq else None)
    ~work:(fun x ->
      Array.fold_left ( + ) 0 (Pool.map_array ~jobs:2 (fun i -> i * i) (Array.init (x + 20) Fun.id)))
    ~consume:(fun ~seq:_ y -> out := y :: !out)
    ();
  Alcotest.(check (list int)) "map inside pipeline"
    (List.init 8 (fun x -> Array.fold_left ( + ) 0 (squares (x + 20))))
    (List.rev !out);
  let sums =
    Pool.map_array ~jobs:2
      (fun x ->
        let acc = ref 0 in
        Pipeline.run ~jobs:2
          ~produce:(fun ~seq -> if seq < x + 20 then Some seq else None)
          ~work:(fun i -> i * i)
          ~consume:(fun ~seq:_ y -> acc := !acc + y)
          ();
        !acc)
      (Array.init 8 Fun.id)
  in
  Alcotest.(check (array int)) "pipeline inside map"
    (Array.init 8 (fun x -> Array.fold_left ( + ) 0 (squares (x + 20))))
    sums

(* Two systhreads sharing the pool each get the jobs-1 bytes. *)
let test_pool_concurrent_threads () =
  needs_two_domains ();
  let inputs = [| lipsum 200_000; Bytes.sub (lipsum 250_000) 7 180_000 |] in
  let want = Array.map (fun d -> Frame.compress ~jobs:1 ~codec:Frame.Deflate d) inputs in
  let got = Array.make 2 Bytes.empty in
  let threads =
    Array.mapi
      (fun i d ->
        Thread.create
          (fun () ->
            for _ = 1 to 3 do
              got.(i) <- Frame.compress ~jobs:2 ~codec:Frame.Deflate d
            done)
          ())
      inputs
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i w -> Alcotest.(check bytes) (Printf.sprintf "thread %d" i) w got.(i))
    want

(* A failing call leaves the pool usable. *)
let test_pool_failure_recovers () =
  needs_two_domains ();
  let run fail_at =
    let acc = ref 0 in
    Pipeline.run ~jobs:2
      ~produce:(fun ~seq -> if seq < 64 then Some seq else None)
      ~work:(fun x -> if x = fail_at then failwith "work failed" else x)
      ~consume:(fun ~seq:_ y -> acc := !acc + y)
      ();
    !acc
  in
  (match run 9 with
  | _ -> Alcotest.fail "expected the work failure to propagate"
  | exception Failure msg -> Alcotest.(check string) "message" "work failed" msg);
  Alcotest.(check int) "next pipeline succeeds" (64 * 63 / 2) (run (-1));
  (match Pool.map_array ~jobs:2 (fun x -> if x = 5 then failwith "map failed" else x) (Array.init 40 Fun.id) with
  | _ -> Alcotest.fail "expected the map failure to propagate"
  | exception Failure msg -> Alcotest.(check string) "map message" "map failed" msg);
  Alcotest.(check (array int)) "next map succeeds" (Array.init 40 (fun x -> 2 * x))
    (Pool.map_array ~jobs:2 (fun x -> 2 * x) (Array.init 40 Fun.id));
  let data = lipsum 100_000 in
  Alcotest.(check bytes) "framed compress after failures"
    (Frame.compress ~jobs:1 ~codec:Frame.Deflate data)
    (Frame.compress ~jobs:2 ~codec:Frame.Deflate data)

let suite =
  ( "frame",
    [
      Alcotest.test_case "roundtrip all codecs" `Quick test_roundtrip_all_codecs;
      Alcotest.test_case "roundtrip empty" `Quick test_roundtrip_empty;
      Alcotest.test_case "jobs byte-identical" `Quick test_jobs_byte_identical;
      Alcotest.test_case "encoder chunking invariant" `Quick
        test_encoder_chunking_invariant;
      Alcotest.test_case "decoder chunking invariant" `Quick
        test_decoder_chunking_invariant;
      Alcotest.test_case "flush points" `Quick test_flush_points_roundtrip;
      Alcotest.test_case "decoder errors" `Quick test_decoder_errors;
      Alcotest.test_case "retired codec id 1" `Quick test_retired_codec_id;
      Alcotest.test_case "stream roundtrip at jobs" `Quick
        test_stream_roundtrip_jobs;
      Alcotest.test_case "stream stops at the trailer" `Quick
        test_stream_stops_at_trailer;
      Alcotest.test_case "counter parity" `Quick test_counter_parity;
      QCheck_alcotest.to_alcotest qcheck_frame_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_stream_jobs_identical;
      Alcotest.test_case "pipeline order/identity" `Quick
        test_pipeline_order_and_identity;
      Alcotest.test_case "pipeline backpressure" `Quick
        test_pipeline_backpressure;
      Alcotest.test_case "pipeline worker exception" `Quick
        test_pipeline_worker_exception_propagates;
      Alcotest.test_case "pipeline consumer exception" `Quick
        test_pipeline_consumer_exception_propagates;
      QCheck_alcotest.to_alcotest qcheck_pipeline_deterministic;
      Alcotest.test_case "pool domains bounded across calls" `Quick
        test_pool_domains_bounded;
      Alcotest.test_case "pool idle worker retires" `Quick
        test_pool_idle_worker_retires;
      Alcotest.test_case "pool nesting" `Quick test_pool_nesting;
      Alcotest.test_case "pool concurrent systhreads" `Quick
        test_pool_concurrent_threads;
      Alcotest.test_case "pool failure recovers" `Quick
        test_pool_failure_recovers;
    ] )
