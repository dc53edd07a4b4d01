(* zc: the command-line surface of the library.

     zc compress  -a bzip2  file.txt file.zc
     zc decompress -a bzip2 file.zc file.txt
     zc archive create out.zca file1 file2 ...
     zc archive list out.zca
     zc archive extract out.zca entryname outfile
     zc taint -t all -j 4          TaintChannel gadget survey
     zc attack sgx -n 10000        Prime+Probe on bzip2 inside SGX
     zc attack fingerprint         Flush+Reload file fingerprinting
     zc experiments -e E1          one paper experiment (or all of them)

   Algorithms: bzip2, gzip, zlib, deflate (raw RFC 1951), lzw, huffman,
   store.  gzip/zlib streams interoperate with standard tools. *)

open Cmdliner
open Zipchannel

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc data)

let codecs jobs =
  [
    ("bzip2", ((fun b -> Compress.Bzip2.compress ~jobs b),
               Compress.Bzip2.decompress));
    ("gzip", ((fun b -> Compress.Deflate.Gzip.compress b),
              Compress.Deflate.Gzip.decompress));
    ("zlib", ((fun b -> Compress.Deflate.Zlib.compress b),
              Compress.Deflate.Zlib.decompress));
    ("deflate", ((fun b -> Compress.Deflate.compress b), Compress.Deflate.decompress));
    ("lzw", (Compress.Lzw.compress, Compress.Lzw.decompress));
    ("huffman", (Compress.Huffman.encode, Compress.Huffman.decode));
    ("store", (Mitigation.Oblivious.store_pack, Mitigation.Oblivious.store_unpack));
  ]

let codec_names = List.map fst (codecs 1)

let run_codec ~decompress algo jobs input output =
  match List.assoc_opt algo (codecs jobs) with
  | None ->
      `Error (false, "unknown algorithm (use " ^ String.concat "/" codec_names ^ ")")
  | Some (enc, dec) -> (
      let data = read_file input in
      match (if decompress then dec else enc) data with
      | out ->
          write_file output out;
          Printf.printf "%s: %d -> %d bytes\n" algo (Bytes.length data)
            (Bytes.length out);
          `Ok ()
      | exception (Failure msg | Invalid_argument msg) ->
          `Error (false, msg))

let algo =
  let doc = "Compression algorithm: " ^ String.concat ", " codec_names ^ "." in
  Arg.(value & opt string "bzip2" & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let jobs =
  Obs_cli.jobs_arg
    ~doc:
      "Worker domains for block/member compression (0 = all available \
       cores)."

let in_file n = Arg.(required & pos n (some file) None & info [] ~docv:"INPUT")

let out_file n =
  Arg.(required & pos n (some string) None & info [] ~docv:"OUTPUT")

let compress_cmd =
  Cmd.v (Cmd.info "compress" ~doc:"Compress a file")
    Term.(
      ret
        (const (run_codec ~decompress:false)
        $ algo $ jobs $ in_file 0 $ out_file 1))

let decompress_cmd =
  Cmd.v (Cmd.info "decompress" ~doc:"Decompress a file")
    Term.(
      ret
        (const (run_codec ~decompress:true)
        $ algo $ jobs $ in_file 0 $ out_file 1))

(* ------------------------------------------------------------------ *)
(* Archive *)

let archive_create jobs out inputs =
  match
    Compress.Container.Archive.pack ~jobs
      (List.map
         (fun path ->
           { Compress.Container.Archive.name = Filename.basename path;
             data = read_file path })
         inputs)
  with
  | packed ->
      write_file out packed;
      Printf.printf "%d entries -> %d bytes\n" (List.length inputs)
        (Bytes.length packed);
      `Ok ()
  | exception Invalid_argument msg -> `Error (false, msg)

let archive_list archive =
  match Compress.Container.Archive.names (read_file archive) with
  | names ->
      List.iter print_endline names;
      `Ok ()
  | exception Compress.Container.Corrupt msg -> `Error (false, msg)

let archive_extract archive entry out =
  match Compress.Container.Archive.extract (read_file archive) entry with
  | data ->
      write_file out data;
      Printf.printf "%s: %d bytes\n" entry (Bytes.length data);
      `Ok ()
  | exception Not_found -> `Error (false, "no such entry: " ^ entry)
  | exception Compress.Container.Corrupt msg -> `Error (false, msg)

let archive_cmd =
  let create =
    let inputs =
      Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"FILES")
    in
    Cmd.v (Cmd.info "create" ~doc:"Create an archive from files")
      Term.(ret (const archive_create $ jobs $ out_file 0 $ inputs))
  in
  let list =
    Cmd.v (Cmd.info "list" ~doc:"List archive entries")
      Term.(ret (const archive_list $ in_file 0))
  in
  let extract =
    let entry = Arg.(required & pos 1 (some string) None & info [] ~docv:"ENTRY") in
    Cmd.v (Cmd.info "extract" ~doc:"Extract one entry")
      Term.(ret (const archive_extract $ in_file 0 $ entry $ out_file 2))
  in
  Cmd.group (Cmd.info "archive" ~doc:"Multi-file archives") [ create; list; extract ]

(* ------------------------------------------------------------------ *)
(* Framed streaming and the daemon *)

let frame_codec_arg =
  let doc =
    "Frame codec: " ^ String.concat ", " Frame.codec_names ^ "."
  in
  let codec_conv =
    Arg.conv
      ( (fun s ->
          match Frame.codec_of_name s with
          | Some c -> Ok c
          | None ->
              Error
                (`Msg
                  ("unknown codec (use "
                  ^ String.concat "/" Frame.codec_names
                  ^ ")"))),
        fun ppf c -> Format.pp_print_string ppf (Frame.codec_name c) )
  in
  Arg.(
    value
    & opt codec_conv Frame.Deflate
    & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let frame_size_arg =
  Arg.(
    value
    & opt int Frame.default_frame_size
    & info [ "frame-size" ] ~docv:"BYTES"
        ~doc:"Plaintext bytes per frame (the unit of parallel compression).")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:"Stream through a running $(b,zc serve) daemon instead of \
              compressing locally.")

let stream_pos_file n =
  Arg.(value & pos n string "-" & info [] ~docv:(if n = 0 then "INPUT" else "OUTPUT")
         ~doc:"Defaults to $(b,-) (stdin/stdout).")

let stream_run ~decompress () codec frame_size jobs connect input output =
  if frame_size < 1 || frame_size > Frame.max_frame_size then
    `Error (false, "frame size out of range")
  else
    match
      match connect with
      | None -> Serve.stream_local ~decompress ~codec ~frame_size ~jobs ~input ~output
      | Some connect ->
          Serve.stream_remote ~decompress ~codec ~frame_size ~connect ~input ~output
    with
    | Ok () -> `Ok ()
    | Error msg | exception (Failure msg | Sys_error msg) -> `Error (false, msg)
    | exception Unix.Unix_error (e, _, _) -> `Error (false, Unix.error_message e)

let stream_cmd =
  let mk ~decompress name doc =
    Cmd.v (Cmd.info name ~doc)
      Term.(
        ret
          (const (stream_run ~decompress)
          $ Obs_cli.flags $ frame_codec_arg $ frame_size_arg $ jobs
          $ connect_arg $ stream_pos_file 0 $ stream_pos_file 1))
  in
  Cmd.group
    (Cmd.info "stream"
       ~doc:
         "Framed streaming compression: stdin/stdout or files, pipelined \
          across domains with $(b,--jobs), or proxied through a daemon \
          with $(b,--connect)")
    [
      mk ~decompress:false "compress" "Compress to the zc frame format";
      mk ~decompress:true "decompress" "Decompress a zc frame stream";
    ]

let serve_cmd =
  let port =
    Arg.(
      value & opt int 9441
      & info [ "port" ] ~docv:"PORT" ~doc:"Data port (loopback only).")
  in
  let metrics_port =
    Arg.(
      value & opt int 9442
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "HTTP port serving $(b,/metrics) (Prometheus text) and \
             $(b,/metrics.json) (raw snapshot).")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent data connection limit; above it the daemon \
             replies $(b,ZCER busy) and counts $(b,serve.rejected).")
  in
  let audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"PATH"
          ~doc:
            "Enable the leak audit plane and append one JSONL record per \
             emitted frame and per request to $(docv); also lights up \
             the $(b,zipchannel_leak_*) Prometheus series.")
  in
  let run () port metrics_port max_conns audit jobs =
    if max_conns < 1 then `Error (false, "--max-conns must be at least 1")
    else
      match Serve.serve ~max_conns ?audit ~port ~metrics_port ~jobs () with
      | () -> `Ok ()
      | exception Unix.Unix_error (e, fn, _) ->
          `Error (false, Printf.sprintf "%s: %s" fn (Unix.error_message e))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming compression daemon: one framed request per \
          connection, per-connection metrics scraped live over HTTP")
    Term.(
      ret
        (const run $ Obs_cli.flags $ port $ metrics_port $ max_conns $ audit
       $ jobs))

(* ------------------------------------------------------------------ *)
(* The leak observatory's end-to-end check: the chunk-length oracle *)

let leak_oracle () codec frame_sizes connect seed secret_len body_len trials
    json assert_monotone =
  let module O = Attack.Chunk_oracle in
  if frame_sizes = [] then `Error (false, "need at least one --frame-size")
  else
    let mk_probe ~frame_size =
      match connect with
      | None -> O.local_probe ~codec ~frame_size ()
      | Some connect ->
          fun plain -> (
            match Serve.request_compress ~connect ~codec ~frame_size plain with
            | Ok stream -> O.clens_of_stream stream
            | Error msg -> failwith msg)
    in
    match
      O.sweep ~seed ~secret_len ~body_len ~trials
        ~frame_sizes:(List.sort_uniq compare frame_sizes)
        ~mk_probe ()
    with
    | exception Failure msg -> `Error (false, msg)
    | results ->
        List.iter
          (fun (r : O.result) ->
            if json then
              Printf.printf
                "{\"frame_size\": %d, \"per_byte_rate\": %.4f, \
                 \"chained_rate\": %.4f, \"capacity_bits\": %.4f, \
                 \"mi_bits\": %.4f, \"recovered_positions\": %d, \
                 \"positions\": %d, \"probes\": %d, \"secret\": \"%s\", \
                 \"recovered\": \"%s\"}\n"
                r.frame_size r.per_byte_rate r.chained_rate r.capacity_bits
                r.mi_bits r.per_byte_correct r.positions r.probes r.secret
                r.recovered
            else
              Printf.printf
                "frame %6d: recovered %d/%d positions (first trial: %s vs \
                 secret %s), capacity %.3f bits/probe, MI %.3f, %d probes\n"
                r.frame_size r.per_byte_correct r.positions r.recovered
                r.secret r.capacity_bits r.mi_bits r.probes)
          results;
        let mono = O.monotone results in
        if not json then
          Printf.printf
            "leakage %s monotone in frame size (smaller frames leak at \
             least as much, capacity estimate agrees)\n"
            (if mono then "is" else "is NOT");
        if assert_monotone && not mono then
          `Error (false, "recovery/capacity not monotone in frame size")
        else `Ok ()

let leak_cmd =
  let frame_sizes =
    Arg.(
      value
      & opt (list int) [ 64; 256; 1024 ]
      & info [ "frame-sizes" ] ~docv:"BYTES,..."
          ~doc:"Frame sizes to sweep (ascending).")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"N" ~doc:"Victim PRNG seed (deterministic).")
  in
  let secret_len =
    Arg.(
      value & opt int 8
      & info [ "secret-len" ] ~docv:"N" ~doc:"Secret digits to recover.")
  in
  let body_len =
    Arg.(
      value & opt int 8192
      & info [ "body-len" ] ~docv:"BYTES" ~doc:"Victim body size.")
  in
  let trials =
    Arg.(
      value & opt int 3
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Independent victims per frame size; rates aggregate over \
             them.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"One JSON object per frame size on stdout.")
  in
  let assert_monotone =
    Arg.(
      value & flag
      & info [ "assert-monotone" ]
          ~doc:
            "Exit non-zero unless recovery rate and capacity estimate are \
             monotone non-increasing in frame size.")
  in
  let oracle =
    Cmd.v
      (Cmd.info "oracle"
         ~doc:
           "Run the per-chunk length oracle: recover a secret \
            byte-at-a-time from per-frame compressed lengths, in-process \
            or against a $(b,zc serve) daemon with $(b,--connect), and \
            compare measured recovery with the estimator's predicted \
            channel capacity across frame sizes")
      Term.(
        ret
          (const leak_oracle $ Obs_cli.flags $ frame_codec_arg $ frame_sizes
         $ connect_arg $ seed $ secret_len $ body_len $ trials $ json
         $ assert_monotone))
  in
  Cmd.group
    (Cmd.info "leak" ~doc:"Leak observatory: length side-channel oracles")
    [ oracle ]

(* ------------------------------------------------------------------ *)
(* Fuzzing *)

let fuzz_run () codec seed runs jobs budget_ms fixtures no_minimize =
  let codecs =
    if codec = "all" then Ok Fuzz.Codecs.all
    else
      match Fuzz.Codecs.find codec with
      | Some c -> Ok [ c ]
      | None ->
          Error
            ("unknown codec (use all, "
            ^ String.concat ", " Fuzz.Codecs.names
            ^ ")")
  in
  match codecs with
  | Error msg -> `Error (false, msg)
  | Ok codecs ->
      let report =
        Fuzz.Runner.run ~codecs ~seed ~runs ~jobs ~budget_ms
          ~minimize:(not no_minimize) ()
      in
      print_string (Fuzz.Report.render report);
      let failures = Fuzz.Report.failures report in
      if failures = [] then `Ok ()
      else begin
        (match fixtures with
        | None -> ()
        | Some dir ->
            List.iter
              (fun p -> Printf.printf "wrote %s\n" p)
              (Fuzz.Runner.write_fixtures ~dir report));
        `Error
          ( false,
            Printf.sprintf "%d failing case(s)" (List.length failures) )
      end

let fuzz_cmd =
  let codec =
    let doc =
      "Codec to fuzz: $(b,all) or one of "
      ^ String.concat ", " Fuzz.Codecs.names ^ "."
    in
    Arg.(value & opt string "all" & info [ "codec" ] ~docv:"CODEC" ~doc)
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"PRNG seed; the whole campaign is deterministic in it.")
  in
  let runs =
    Arg.(
      value & opt int 1000
      & info [ "runs" ] ~docv:"N"
          ~doc:"Total case count, split evenly across the selected codecs.")
  in
  let fuzz_jobs =
    Obs_cli.jobs_arg
      ~doc:"Worker domains for the campaign (0 = all available cores)."
  in
  let budget_ms =
    Arg.(
      value & opt float 1000.
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Per-case work budget; a slower case is reported as a failure.")
  in
  let fixtures =
    Arg.(
      value
      & opt (some string) None
      & info [ "fixtures" ] ~docv:"DIR"
          ~doc:"Write minimized reproducers for failing cases under $(docv).")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ] ~doc:"Keep failing inputs as found, unshrunk.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the decoders with structure-aware mutations of valid streams; \
          exits non-zero if any case crashes, round-trip-fails, bombs or \
          blows its budget")
    Term.(
      ret
        (const fuzz_run $ Obs_cli.flags $ codec $ seed $ runs $ fuzz_jobs
       $ budget_ms $ fixtures $ no_minimize))

(* ------------------------------------------------------------------ *)
(* Telemetry: offline converters and the span profiler *)

let write_out output s =
  match output with
  | None -> print_string s
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let obs_export format output input =
  let module E = Obs_export in
  match E.Json.parse_many (Bytes.to_string (read_file input)) with
  | [] -> `Error (false, input ^ ": empty input")
  | first :: _ as values -> (
      (* A telemetry file is either a JSONL span stream or a single
         metrics snapshot; tell them apart by shape, so both formats
         work without the caller saying which one they have. *)
      let kind =
        if E.Span_stream.is_span_stream first then `Trace
        else if E.Snapshot_io.is_snapshot first then `Snapshot
        else if E.Audit.is_audit_record first then `Audit
        else `Unknown
      in
      match (format, kind) with
      | _, `Unknown ->
          `Error
            ( false,
              input
              ^ ": neither a span stream, a metrics snapshot, nor an audit \
                 record stream" )
      | `Otlp, `Audit ->
          let records = List.map E.Audit.of_json values in
          write_out output
            (E.Json.to_string (E.Audit.trace_request records) ^ "\n");
          `Ok ()
      | `Prom, `Audit ->
          `Error
            ( false,
              input
              ^ ": is an audit record stream; Prometheus exposition needs a \
                 metrics snapshot (scrape the live daemon instead)" )
      | `Otlp, `Trace ->
          let events = List.map E.Span_stream.event_of_json values in
          write_out output (E.Json.to_string (E.Otlp.trace_request events) ^ "\n");
          `Ok ()
      | `Otlp, `Snapshot ->
          let snap = E.Snapshot_io.of_json first in
          write_out output
            (E.Json.to_string (E.Otlp.metrics_request snap) ^ "\n");
          `Ok ()
      | `Prom, `Snapshot ->
          write_out output (E.Prom.exposition (E.Snapshot_io.of_json first));
          `Ok ()
      | `Prom, `Trace ->
          `Error
            ( false,
              input
              ^ ": is a span stream; Prometheus exposition needs a metrics \
                 snapshot" )
      | exception (E.Json.Parse_error msg | Failure msg) -> `Error (false, msg))

let obs_profile folded inputs =
  let module E = Obs_export in
  match
    List.concat_map
      (fun input -> List.map E.Span_stream.event_of_json
          (E.Json.parse_many (Bytes.to_string (read_file input))))
      inputs
  with
  | events ->
      let spans = E.Profile.spans_of_events events in
      (match folded with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              E.Profile.pp_folded
                (Format.formatter_of_out_channel oc)
                (E.Profile.folded_stacks spans)));
      E.Profile.pp_table Format.std_formatter (E.Profile.aggregate spans);
      `Ok ()
  | exception (E.Json.Parse_error msg | Failure msg) -> `Error (false, msg)

(* [zc obs top]: the runtime observatory view — hottest sampled spans,
   runtime.* GC gauges, leak capacity and serve rates.  Polls a daemon's
   /metrics.json when --connect is given; otherwise samples an
   in-process synthetic compression workload. *)
let obs_top connect once json_out interval duration =
  let module E = Obs_export in
  let emit v =
    if json_out then print_endline (E.Top.to_json v)
    else print_string (E.Top.render v);
    flush stdout
  in
  match connect with
  | None ->
      (* In-process: run framed compression under the sampler for the
         requested window, then show what it saw. *)
      let window = if duration > 0. then duration else 1.0 in
      Obs.set_enabled true;
      Obs_prof.reset ();
      Obs_prof.start ();
      let prng = Util.Prng.create ~seed:9 () in
      let data =
        Bytes.of_string (Util.Lipsum.repetitive_file prng ~level:4 ~size:262_144)
      in
      let t0 = Obs.now_ns () in
      while float_of_int (Obs.now_ns () - t0) /. 1e9 < window do
        ignore (Frame.compress ~codec:Frame.Deflate data)
      done;
      Obs_prof.stop ();
      let snap = Obs.Metrics.snapshot () in
      Obs.set_enabled false;
      emit (E.Top.of_snapshot snap);
      `Ok ()
  | Some addr -> (
      let fetch () =
        match Serve.http_get ~connect:addr ~path:"/metrics.json" with
        | Error _ as e -> e
        | Ok body -> (
            match E.Snapshot_io.of_string body with
            | snap -> Ok snap
            | exception (E.Json.Parse_error msg | Failure msg) ->
                Error (addr ^ ": bad /metrics.json: " ^ msg))
      in
      if once then
        match fetch () with
        | Error e -> `Error (false, e)
        | Ok snap ->
            emit (E.Top.of_snapshot snap);
            `Ok ()
      else begin
        (* Live view: redraw every interval; ANSI screen clearing only
           on an interactive stdout that hasn't opted out. *)
        let ansi =
          (match Sys.getenv_opt "NO_COLOR" with
          | Some "" | None -> true
          | Some _ -> false)
          && Unix.isatty Unix.stdout
        in
        let t0 = Obs.now_ns () in
        let expired () =
          duration > 0. && float_of_int (Obs.now_ns () - t0) /. 1e9 >= duration
        in
        let rec loop prev =
          match fetch () with
          | Error e -> `Error (false, e)
          | Ok snap ->
              if ansi then print_string "\x1b[2J\x1b[H";
              emit (E.Top.of_snapshot ?prev ~dt_s:interval snap);
              if expired () then `Ok ()
              else begin
                Unix.sleepf interval;
                loop (Some snap)
              end
        in
        loop None
      end)

let obs_cmd =
  let out_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write to $(docv) instead of stdout.")
  in
  let export =
    let format =
      Arg.(
        value
        & vflag `Otlp
            [
              ( `Otlp,
                info [ "otlp" ]
                  ~doc:
                    "OTLP/JSON: a span stream becomes an \
                     ExportTraceServiceRequest, a metrics snapshot an \
                     ExportMetricsServiceRequest (default)." );
              ( `Prom,
                info [ "prom" ]
                  ~doc:"Prometheus text exposition (metrics snapshots only)." );
            ])
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Convert a --trace JSONL span stream, a --metrics JSON snapshot, \
            or a $(b,zc serve --audit) JSONL file to OTLP/JSON or \
            Prometheus text")
      Term.(ret (const obs_export $ format $ out_opt $ in_file 0))
  in
  let profile =
    let folded =
      Arg.(
        value
        & opt (some string) None
        & info [ "folded" ] ~docv:"PATH"
            ~doc:
              "Also write flamegraph folded stacks (self-time-weighted \
               $(b,domain;outer;inner count) lines) to $(docv).")
    in
    let inputs =
      Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE")
    in
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "Aggregate --trace JSONL span streams: per-span call counts, \
            total/self wall time, p50/p95/max, sorted by self time")
      Term.(ret (const obs_profile $ folded $ inputs))
  in
  let top =
    let connect =
      Arg.(
        value
        & opt (some string) None
        & info [ "connect" ] ~docv:"HOST:PORT"
            ~doc:
              "Poll a running $(b,zc serve) daemon's metrics listener \
               instead of sampling an in-process workload.")
    in
    let once =
      Arg.(
        value & flag
        & info [ "once" ]
            ~doc:
              "Print one snapshot and exit (machine mode; no screen \
               rewriting).")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ] ~doc:"Emit the view as one JSON object per frame.")
    in
    let interval =
      Arg.(
        value & opt float 2.0
        & info [ "interval" ] ~docv:"SECONDS"
            ~doc:"Refresh period of the live view.")
    in
    let duration =
      Arg.(
        value & opt float 0.
        & info [ "duration" ] ~docv:"SECONDS"
            ~doc:
              "Stop after $(docv) (0: live view runs until interrupted; \
               the in-process workload samples for 1s).")
    in
    Cmd.v
      (Cmd.info "top"
         ~doc:
           "Live runtime observatory: hottest sampled spans, runtime.* GC \
            and allocation gauges, leak.* channel capacity and serve.* \
            rates, from a daemon's /metrics.json or an in-process sampled \
            run")
      Term.(
        ret (const obs_top $ connect $ once $ json $ interval $ duration))
  in
  Cmd.group
    (Cmd.info "obs" ~doc:"Telemetry export, profiling, and the live top view")
    [ export; profile; top ]

(* ------------------------------------------------------------------ *)
(* The paper's tool and attacks: the TaintChannel survey, Prime+Probe
   inside SGX, Flush+Reload fingerprinting, and the E1-E19 experiments *)

let seed_arg =
  Arg.(
    value & opt int 0xDECAF & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let input_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Input file (default: random data).")

let size_arg default =
  Arg.(
    value & opt int default
    & info [ "n"; "size" ] ~docv:"BYTES"
        ~doc:"Size of the generated random input in bytes.")

let input_bytes file size seed =
  match file with
  | Some path -> read_file path
  | None -> Util.Prng.bytes (Util.Prng.create ~seed ()) size

let taint () target file size seed jobs =
  let module S = Taintchannel.Survey in
  let ppf = Format.std_formatter in
  let aes = S.Aes { key = Bytes.of_string "0123456789abcdef" } in
  let gadget = function
    | "zlib" -> Some S.Zlib
    | "ncompress" | "lzw" -> Some S.Lzw
    | "bzip2" -> Some S.Bzip2
    | "lz4" -> Some S.Lz4
    | "snappy" -> Some S.Snappy
    | "aes" -> Some aes
    | _ -> None
  in
  match target with
  | "all" ->
      (* One case per gadget target over the same input, analysed on
         [jobs] domains; the merged report is byte-identical for any
         [jobs] because cases are independent and order-stable. *)
      let data = input_bytes file size seed in
      S.report ~jobs ppf
        (List.map
           (fun g -> S.case g data)
           [ S.Zlib; S.Lzw; S.Bzip2; S.Lz4; S.Snappy; aes ]);
      `Ok ()
  | "memcpy" ->
      let t1 = Taintchannel.Memcpy_model.trace ~size in
      let t2 = Taintchannel.Memcpy_model.trace ~size:(size + 1) in
      (match Taintchannel.Trace_diff.compare_traces t1 t2 with
      | Some r -> Format.fprintf ppf "%a@." Taintchannel.Trace_diff.pp_report r
      | None -> Format.fprintf ppf "no divergence@.");
      `Ok ()
  | name -> (
      match gadget name with
      | Some g ->
          Taintchannel.Engine.report ppf
            (S.run_case (S.case g (input_bytes file size seed)));
          `Ok ()
      | None -> `Error (false, "unknown target: " ^ name))

let taint_cmd =
  let target =
    let doc =
      "Analysis target: zlib, ncompress, bzip2, lz4, snappy, aes, all or memcpy."
    in
    Arg.(value & opt string "bzip2" & info [ "t"; "target" ] ~docv:"TARGET" ~doc)
  in
  let jobs =
    Obs_cli.jobs_arg
      ~doc:
        "Number of domains for the multi-target survey (-t all); 0 means \
         all available cores.  Reports are byte-identical for any value."
  in
  Cmd.v
    (Cmd.info "taint"
       ~doc:"Detect cache side-channel gadgets in compression code (TaintChannel)")
    Term.(
      ret
        (const taint $ Obs_cli.flags $ target $ input_file_arg $ size_arg 4096
       $ seed_arg $ jobs))

let sgx () file size seed no_cat no_frame_selection =
  let input = input_bytes file size seed in
  let config =
    {
      Attack.Sgx_attack.default_config with
      Attack.Sgx_attack.use_cat = not no_cat;
      use_frame_selection = not no_frame_selection;
      seed;
    }
  in
  let t0 = Sys.time () in
  let r = Attack.Sgx_attack.run ~config input in
  Format.printf
    "leaked %d bytes: %.2f%% of bits, %.2f%% of bytes (%d lost readings, %d \
     faults, %.1f s)@."
    (Bytes.length input)
    (100.0 *. r.Attack.Sgx_attack.bit_accuracy)
    (100.0 *. r.byte_accuracy) r.lost_readings r.faults
    (Sys.time () -. t0);
  `Ok ()

let fingerprint () seed traces =
  let ppf = Format.std_formatter in
  ignore (Experiments.e11_fingerprint_repetitiveness ~seed ~traces_per_file:traces ppf);
  ignore (Experiments.e10_fingerprint_corpus ~seed ~traces_per_file:traces ppf);
  `Ok ()

let attack_cmd =
  let sgx =
    let no_cat =
      Arg.(value & flag & info [ "no-cat" ] ~doc:"Disable the Intel CAT technique.")
    in
    let no_fs =
      Arg.(
        value & flag
        & info [ "no-frame-selection" ] ~doc:"Disable frame selection.")
    in
    Cmd.v
      (Cmd.info "sgx" ~doc:"Prime+Probe attack on Bzip2 inside SGX (Section V)")
      Term.(
        ret
          (const sgx $ Obs_cli.flags $ input_file_arg $ size_arg 10_000 $ seed_arg
         $ no_cat $ no_fs))
  in
  let fingerprint =
    let traces =
      Arg.(
        value & opt int 25
        & info [ "traces" ] ~docv:"N" ~doc:"Traces collected per file.")
    in
    Cmd.v
      (Cmd.info "fingerprint"
         ~doc:"Flush+Reload file fingerprinting on Bzip2 (Section VI)")
      Term.(ret (const fingerprint $ Obs_cli.flags $ seed_arg $ traces))
  in
  Cmd.group
    (Cmd.info "attack" ~doc:"The end-to-end cache attacks on Bzip2")
    [ sgx; fingerprint ]

let experiments () seed jobs only =
  let ppf = Format.std_formatter in
  match only with
  | None ->
      ignore (Experiments.all ~seed ~jobs ppf);
      `Ok ()
  | Some id -> (
      match Experiments.run ~seed ~jobs ~id ppf with
      | Some _ -> `Ok ()
      | None ->
          `Error
            ( false,
              "unknown experiment id: " ^ id ^ " (expected "
              ^ String.concat "/" Experiments.ids
              ^ ")" ))

let experiments_cmd =
  let jobs =
    Obs_cli.jobs_arg
      ~doc:
        "Domains for the parallelisable experiments; 0 means all \
         available cores (output is identical for any value)."
  in
  let only =
    let doc = "Run a single experiment (E1-E19) instead of all of them." in
    Arg.(value & opt (some string) None & info [ "e"; "only" ] ~docv:"ID" ~doc)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run every paper experiment (E1-E19)")
    Term.(ret (const experiments $ Obs_cli.flags $ seed_arg $ jobs $ only))

let cmd =
  Cmd.group
    (Cmd.info "zc"
       ~doc:
         "compress and decompress files with the ZipChannel codecs, and run \
          the paper's gadget survey, attacks and experiments")
    [
      compress_cmd; decompress_cmd; archive_cmd; stream_cmd; serve_cmd;
      leak_cmd; fuzz_cmd; obs_cmd; taint_cmd; attack_cmd; experiments_cmd;
    ]

let () = exit (Cmd.eval cmd)
