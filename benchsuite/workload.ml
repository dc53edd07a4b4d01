(* The four end-to-end workloads.

   Every workload is a closed loop driven from this one process: the
   next call (or request) starts when the previous one has finished,
   with no think time.  A run is: set-up, repeated [setups] times (the
   median is [setup_s]); one untimed warm-up round (serve: one request of
   each kind); the timed window, made of rounds, the last one finishing
   past the deadline.  Every output is compared byte for byte with the
   expected bytes computed during set-up, outside the timed intervals.

   Library throughput is the rate of the window's fastest round.  Those
   rounds repeat identical work, and on a shared host contention only
   ever slows one down, by a share that changes from run to run (a fixed
   integer loop drifts by 10-20% here); the fastest round halved their
   run-to-run spread against the median round.  Serve rounds differ in
   how the two connections' requests overlap, which is part of what that
   workload measures, so it reports the median round: there the fastest
   round was three times less steady.

   With [trace] the window is split in two halves, untraced then traced
   (Obs metrics, the 1 kHz sampler and bench-side spans around every
   layer call on), and the layer battery ({!Layers}) runs after it. *)

open Zipchannel
module C = Compress

type config = {
  seed : int;
  seconds : float;  (** timed window *)
  size : int;  (** plaintext bytes per shape in the library workloads *)
  setups : int;  (** set-up repetitions *)
  trace : bool;
  scratch : string;  (** directory for daemon audit and trace files *)
}

let names = [ "lz-roundtrip"; "bzip2-roundtrip"; "serve-mixed"; "attack-suite" ]

let now = Obs.now_ns
let secs ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6
let mb_s bytes ns = if ns <= 0 then Float.nan else float_of_int bytes *. 1e3 /. float_of_int ns

type metric = string * string * float
(** name, unit, value *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines: digests, sample counts *)
}

(* What one timed window measured; rates are one per round. *)
type window = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat_ms : float list;  (** every successful operation *)
  mutable ops_rates : float list;  (** 1/s *)
  mutable enc_rates : float list;  (** MB/s *)
  mutable dec_rates : float list;
  mutable bytes : int;  (** plaintext bytes encoded plus decoded *)
}

let window () =
  { attempted = 0; failed = 0; lat_ms = []; ops_rates = []; enc_rates = []; dec_rates = []; bytes = 0 }

(* One round's successful operations: count, then plaintext bytes and
   ns on each side. *)
type round = {
  t0 : int;
  mutable ops : int;
  mutable enc_b : int;
  mutable enc_ns : int;
  mutable dec_b : int;
  mutable dec_ns : int;
}

let round () = { t0 = now (); ops = 0; enc_b = 0; enc_ns = 0; dec_b = 0; dec_ns = 0 }

let finish_round w r =
  w.ops_rates <- float_of_int r.ops /. secs (now () - r.t0) :: w.ops_rates;
  if r.enc_ns > 0 then w.enc_rates <- mb_s r.enc_b r.enc_ns :: w.enc_rates;
  if r.dec_ns > 0 then w.dec_rates <- mb_s r.dec_b r.dec_ns :: w.dec_rates;
  w.bytes <- w.bytes + r.enc_b + r.dec_b

let fastest rates = Sample.quantile (Array.of_list rates) 1.
let median_round rates = Sample.median (Array.of_list rates)

let timed name f =
  let t0 = now () in
  let r = Obs.with_span name f in
  (r, now () - t0)

(* [setups] set-ups; all but the last state are released. *)
let setup cfg ~prepare ~release =
  let times = Array.make cfg.setups 0. in
  let rec go i prev =
    Option.iter release prev;
    let t0 = now () in
    let st = prepare () in
    times.(i) <- secs (now () - t0);
    if i + 1 < cfg.setups then go (i + 1) (Some st) else st
  in
  let st = go 0 None in
  (st, Sample.median times)

let summary_note name unit xs =
  Format.asprintf "  %-16s %a %s" name Sample.pp_summary (Sample.summary xs) unit

let e2e_metrics ~pick ~setup_s ~peak_rss w =
  let lat = Array.of_list w.lat_ms in
  ( [
      ("setup_s", "s", setup_s);
      ("ops_per_s", "1/s", pick w.ops_rates);
      ("encode_mb_s", "MB/s", pick w.enc_rates);
      ("decode_mb_s", "MB/s", pick w.dec_rates);
      ("peak_rss_mb", "MB", peak_rss);
    ],
    [
      summary_note "ops" "1/s" (Array.of_list w.ops_rates);
      summary_note "encode" "MB/s" (Array.of_list w.enc_rates);
      summary_note "decode" "MB/s" (Array.of_list w.dec_rates);
      summary_note "latency" "ms" lat;
      Printf.sprintf "  %-16s p95 %.4g ms, %d samples beyond" "" (Sample.quantile lat 0.95)
        (Sample.beyond lat 0.95);
    ] )

(* ------------------------------------------------------------------ *)
(* Library workloads: a fixed list of operations per round *)

type op = {
  enc_bytes : int;
  dec_bytes : int;
  run : unit -> int * int * bool;  (** encode ns, decode ns, outputs correct *)
}

(* Rounds until [deadline] (at least one). *)
let rec rounds ~deadline ops w =
  let r = round () in
  List.iter
    (fun op ->
      w.attempted <- w.attempted + 1;
      let t0 = now () in
      match op.run () with
      | e, d, true ->
          w.lat_ms <- ms (now () - t0) :: w.lat_ms;
          r.ops <- r.ops + 1;
          r.enc_b <- r.enc_b + op.enc_bytes;
          r.enc_ns <- r.enc_ns + e;
          r.dec_b <- r.dec_b + op.dec_bytes;
          r.dec_ns <- r.dec_ns + d
      | _, _, false | (exception (Failure _ | Invalid_argument _)) -> w.failed <- w.failed + 1)
    ops;
  finish_round w r;
  if now () < deadline then rounds ~deadline ops w

let inputs cfg = List.map (fun s -> (s, Corpus.make ~seed:cfg.seed s ~size:cfg.size)) Corpus.shapes

let digest_note name b =
  Printf.sprintf "  input %-6s %7d bytes  fnv1a %s" name (Bytes.length b) (Corpus.digest b)

let digest_notes inputs = List.map (fun (s, b) -> digest_note (Corpus.shape_name s) b) inputs

(* Whole-buffer frame decode through the streaming entry point, so
   [jobs] reaches the decode pipeline too. *)
let frame_decompress ~jobs c =
  let pos = ref 0 and out = Buffer.create (4 * Bytes.length c) in
  let read buf off len =
    let k = min len (Bytes.length c - !pos) in
    Bytes.blit c !pos buf off k;
    pos := !pos + k;
    k
  in
  let write b ~off ~len = Buffer.add_subbytes out b off len in
  match Frame.decompress_stream ~jobs ~read ~write () with
  | Ok () -> Buffer.to_bytes out
  | Error e -> failwith (Codec_error.to_string e)

let lz_codecs () =
  let jobs = Domain.recommended_domain_count () in
  [
    ("deflate", (fun b -> C.Deflate.compress b), C.Deflate.decompress);
    ("lzw", C.Lzw.compress, C.Lzw.decompress);
    ("lz4", C.Lz4.compress, C.Lz4.decompress);
    ("snappy", C.Snappy.compress, C.Snappy.decompress);
    ("huffman", C.Huffman.encode, C.Huffman.decode);
    ("frame-jobs1", (fun b -> Frame.compress ~jobs:1 ~codec:Frame.Deflate b), frame_decompress ~jobs:1);
    ("frame-jobsN", (fun b -> Frame.compress ~jobs ~codec:Frame.Deflate b), frame_decompress ~jobs);
  ]

let bzip2_codecs () = [ ("bzip2", (fun b -> C.Bzip2.compress b), C.Bzip2.decompress) ]

(* One op per (shape, codec): compress, decompress, compare both
   outputs.  The expected compressed bytes are computed here, in
   set-up. *)
let codec_ops codecs inputs =
  List.concat_map
    (fun (_, plain) ->
      List.map
        (fun (name, enc, dec) ->
          let expected = enc plain and n = Bytes.length plain in
          {
            enc_bytes = n;
            dec_bytes = n;
            run =
              (fun () ->
                let c, e = timed ("bench." ^ name ^ ".compress") (fun () -> enc plain) in
                let d, dt = timed ("bench." ^ name ^ ".decompress") (fun () -> dec c) in
                (e, dt, Bytes.equal c expected && Bytes.equal d plain));
          })
        codecs)
    inputs

(* The researcher's path: the taint survey over the five codec families
   on a 1 KiB secret (encode side: the victim's compression, traced),
   then the SGX Prime+Probe attack on one 10 KiB block (decode side: the
   secret read back out of the cache channel). *)
let attack_ops cfg =
  let survey_input = Corpus.make ~seed:cfg.seed Corpus.Random ~size:(min 1024 cfg.size) in
  let block = Corpus.make ~seed:cfg.seed Corpus.Random ~size:(min 10240 cfg.size) in
  let module S = Taintchannel.Survey in
  let survey =
    List.map
      (fun target ->
        let case = S.case target survey_input in
        let expected = Taintchannel.Engine.stats (S.run_case case) in
        {
          enc_bytes = Bytes.length survey_input;
          dec_bytes = 0;
          run =
            (fun () ->
              let e, t = timed ("bench.survey." ^ case.S.label) (fun () -> S.run_case case) in
              (t, 0, Taintchannel.Engine.stats e = expected));
        })
      S.[ Zlib; Lzw; Bzip2; Lz4; Snappy ]
  in
  let expected = Attack.Sgx_attack.run block in
  let sgx =
    {
      enc_bytes = 0;
      dec_bytes = Bytes.length block;
      run =
        (fun () ->
          let r, t = timed "bench.sgx.attack" (fun () -> Attack.Sgx_attack.run block) in
          ( 0,
            t,
            Bytes.equal r.Attack.Sgx_attack.recovered expected.Attack.Sgx_attack.recovered
            && r.bit_accuracy >= 0.99 ));
      }
  in
  ( survey @ [ sgx ],
    [
      digest_note "survey" survey_input;
      digest_note "sgx" block;
      Printf.sprintf "  sgx bit accuracy %.4f" expected.bit_accuracy;
    ] )

(* ------------------------------------------------------------------ *)
(* Traced window of the bench process *)

type traced = {
  coverage : float;  (** share of the window inside bench layer spans *)
  alloc_mb : float;
  major : int;
  top_spans : string list;
}

let traced_window f =
  let span_ns = ref 0 in
  Obs.Trace.set_sink
    (Obs.Trace.Custom
       (fun ev ->
         if ev.Obs.Trace.phase = `End && String.starts_with ~prefix:"bench." ev.name then
           span_ns := !span_ns + ev.dur_ns));
  Obs.set_enabled true;
  Obs_prof.reset ();
  Obs_prof.start ();
  let gc0 = Gc.quick_stat () and t0 = now () in
  f ();
  let wall = now () - t0 and gc1 = Gc.quick_stat () in
  Obs_prof.stop ();
  Obs.set_enabled false;
  Obs.Trace.set_sink Obs.Trace.Null;
  let r = Obs_prof.report () in
  let words =
    gc1.Gc.minor_words -. gc0.Gc.minor_words +. gc1.major_words -. gc0.major_words
    -. (gc1.promoted_words -. gc0.promoted_words)
  in
  let top =
    List.filteri (fun i _ -> i < 6) r.Obs_prof.self
    |> List.map (fun (span, self, _) ->
           Printf.sprintf "  sampled self %-28s %5.1f%%" span
             (100. *. float_of_int self /. float_of_int (max 1 r.total_samples)))
  in
  {
    coverage = float_of_int !span_ns /. float_of_int wall;
    alloc_mb = words *. float_of_int (Sys.word_size / 8) /. 1e6;
    major = gc1.major_collections - gc0.major_collections;
    top_spans = top;
  }

let overhead_pct ~pick ~off ~on = 100. *. ((pick off.ops_rates /. pick on.ops_rates) -. 1.)

let window_layer_metrics ~pick ~off ~on t =
  [
    ("observe.overhead_pct", "%", overhead_pct ~pick ~off ~on);
    ("layer_coverage", "fraction", t.coverage);
    ("runtime.alloc_mb_per_mb", "MB/MB", t.alloc_mb /. (float_of_int on.bytes /. 1e6));
    ("runtime.major_collections", "count", float_of_int t.major);
  ]

let coverage_note c =
  Printf.sprintf "  layer_coverage %.3f%s" c (if c < 0.9 then "  WARNING: below 0.9" else "")

let outcome ~ok ~windows ~metrics ~notes =
  let attempted = List.fold_left (fun a (w : window) -> a + w.attempted) 0 windows
  and failed = List.fold_left (fun a (w : window) -> a + w.failed) 0 windows in
  { correct = ok && failed = 0; attempted; failed; metrics; notes }

let deadline_in s = now () + int_of_float (s *. 1e9)

let run_library cfg ~prepare =
  let (ops, notes), setup_s = setup cfg ~prepare ~release:ignore in
  rounds ~deadline:0 ops (window ());
  if not cfg.trace then begin
    let w = window () in
    rounds ~deadline:(deadline_in cfg.seconds) ops w;
    let metrics, more = e2e_metrics ~pick:fastest ~setup_s ~peak_rss:(Daemon.peak_rss_mb 0) w in
    outcome ~ok:true ~windows:[ w ] ~metrics ~notes:(notes @ more)
  end
  else begin
    let off = window () and on = window () in
    rounds ~deadline:(deadline_in (cfg.seconds /. 2.)) ops off;
    let t = traced_window (fun () -> rounds ~deadline:(deadline_in (cfg.seconds /. 2.)) ops on) in
    let layers, battery = Layers.run ~seed:cfg.seed ~scratch:cfg.scratch in
    outcome ~ok:(battery = 0) ~windows:[ off; on ]
      ~metrics:(window_layer_metrics ~pick:fastest ~off ~on t @ layers)
      ~notes:(notes @ (coverage_note t.coverage :: t.top_spans))
  end

let codec_workload codecs cfg =
  run_library cfg ~prepare:(fun () ->
      let inputs = inputs cfg in
      (codec_ops (codecs ()) inputs, digest_notes inputs))

(* ------------------------------------------------------------------ *)
(* serve-mixed: a zc serve child and two client connections *)

type item = { plain : bytes; frames : bytes; wire_c : bytes; wire_d : bytes }

let frame_size = Frame.default_frame_size

(* Every (size, shape) the request sequence can draw, with both request
   wires and both expected responses. *)
let serve_pool ~seed =
  List.concat_map
    (fun size ->
      List.map
        (fun shape ->
          let plain = Corpus.make ~seed shape ~size in
          let frames = Frame.compress ~frame_size ~codec:Frame.Deflate plain in
          ( (size, shape),
            {
              plain;
              frames;
              wire_c = Daemon.wire ~op:Corpus.Compress ~frame_size plain;
              wire_d = Daemon.wire ~op:Corpus.Decompress ~frame_size frames;
            } ))
        Corpus.shapes)
    (Array.to_list Corpus.request_sizes)

(* Two closed-loop connections until [deadline].  A round is one
   connection's pass over a 156-request block, which holds the request
   mix exactly.  Each response is compared after its timer stops. *)
let serve_window ~seed ~pool ~port ~deadline =
  let w = window () and mu = Mutex.create () in
  let client conn =
    let next = Corpus.requests ~seed ~conn in
    while now () < deadline do
      let r = round () in
      for _ = 1 to Array.length Corpus.request_block do
        let rq = next () in
        let it = List.assoc (rq.Corpus.size, rq.shape) pool in
        let wire, expect = match rq.op with Corpus.Compress -> (it.wire_c, it.frames) | Decompress -> (it.wire_d, it.plain) in
        let res =
          match Daemon.request ~port wire with
          | Ok body, ph when Bytes.equal body expect -> Some ph.Daemon.done_
          | _ -> None
          | exception (Unix.Unix_error _ | Failure _) -> None
        in
        Mutex.protect mu (fun () ->
            w.attempted <- w.attempted + 1;
            match res with
            | None -> w.failed <- w.failed + 1
            | Some ns -> (
                let n = Bytes.length it.plain in
                w.lat_ms <- ms ns :: w.lat_ms;
                r.ops <- r.ops + 1;
                match rq.op with
                | Corpus.Compress ->
                    r.enc_b <- r.enc_b + n;
                    r.enc_ns <- r.enc_ns + ns
                | Decompress ->
                    r.dec_b <- r.dec_b + n;
                    r.dec_ns <- r.dec_ns + ns))
      done;
      Mutex.protect mu (fun () -> finish_round w r)
    done
  in
  List.iter Thread.join (List.init 2 (Thread.create client));
  w

let warm_serve ~pool ~port =
  List.iter
    (fun (_, it) ->
      ignore (Daemon.request ~port it.wire_c);
      ignore (Daemon.request ~port it.wire_d))
    pool

let stop_daemon d = match Daemon.stop d with Ok () -> () | Error msg -> failwith msg

let serve_mixed cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let (pool, d), setup_s =
    setup cfg
      ~prepare:(fun () ->
        let pool = serve_pool ~seed:cfg.seed in
        (pool, Daemon.start ()))
      ~release:(fun (_, d) -> stop_daemon d)
  in
  let notes = List.map (fun ((_, shape), it) -> digest_note (Corpus.shape_name shape) it.plain) pool in
  warm_serve ~pool ~port:d.Daemon.port;
  let window_of d seconds = serve_window ~seed:cfg.seed ~pool ~port:d.Daemon.port ~deadline:(deadline_in seconds) in
  if not cfg.trace then begin
    let w = window_of d cfg.seconds in
    let peak_rss = Daemon.peak_rss_mb d.Daemon.pid in
    let stopped = Daemon.stop d in
    let metrics, more = e2e_metrics ~pick:median_round ~setup_s ~peak_rss w in
    outcome ~ok:(stopped = Ok ()) ~windows:[ w ] ~metrics
      ~notes:(notes @ more @ Result.fold ~ok:(fun () -> []) ~error:(fun e -> [ e ]) stopped)
  end
  else begin
    let off = window_of d (cfg.seconds /. 2.) in
    stop_daemon d;
    (* The traced half: a daemon with the leak-audit plane and span
       tracing on. *)
    let audit = Filename.concat cfg.scratch "serve-audit.jsonl"
    and trace = Filename.concat cfg.scratch "serve-trace.jsonl" in
    let d = Daemon.start ~extra:[ "--audit"; audit; "--trace"; trace ] () in
    warm_serve ~pool ~port:d.Daemon.port;
    let m0 = Daemon.metrics d in
    let on = window_of d (cfg.seconds /. 2.) in
    let m1 = Daemon.metrics d in
    let stopped = Daemon.stop d in
    List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ audit; trace ];
    let delta f name = f m1 name -. f m0 name in
    let client_ns = 1e6 *. List.fold_left ( +. ) 0. on.lat_ms in
    let coverage = delta Daemon.hist_sum "serve.request_ns" /. client_ns in
    let t =
      {
        coverage;
        alloc_mb = delta Daemon.counter "runtime.minor_words" *. float_of_int (Sys.word_size / 8) /. 1e6;
        major = int_of_float (delta Daemon.counter "runtime.major_collections");
        top_spans = [];
      }
    in
    let layers, battery = Layers.run ~seed:cfg.seed ~scratch:cfg.scratch in
    outcome ~ok:(stopped = Ok () && battery = 0) ~windows:[ off; on ]
      ~metrics:(window_layer_metrics ~pick:median_round ~off ~on t @ layers)
      ~notes:(notes @ [ coverage_note coverage ])
  end

let run cfg = function
  | "lz-roundtrip" -> codec_workload lz_codecs cfg
  | "bzip2-roundtrip" -> codec_workload bzip2_codecs cfg
  | "serve-mixed" -> serve_mixed cfg
  | "attack-suite" -> run_library cfg ~prepare:(fun () -> attack_ops cfg)
  | w -> invalid_arg ("unknown workload " ^ w)
