(* Cmdliner plumbing shared by zc's commands: the observability flags
   and the --jobs guard. *)

open Cmdliner
module Obs = Zipchannel.Obs

let setup metrics trace trace_otlp progress =
  (match metrics with
  | None -> ()
  | Some dest ->
      Obs.set_enabled true;
      at_exit (fun () ->
          let snap = Obs.Metrics.snapshot () in
          match dest with
          | "-" ->
              Format.eprintf "-- metrics --@.%a@?" Obs.Metrics.pp_snapshot snap
          | path ->
              Zipchannel.Obs_export.Sink.atomic_write ~path
                (Obs.Metrics.snapshot_to_json snap ^ "\n")));
  (* --trace and --trace-otlp compose: with both, one Custom sink feeds
     the OTLP collector and tees the --trace output per event. *)
  (match (trace, trace_otlp) with
  | None, None -> ()
  | Some "-", None -> Obs.Trace.set_sink Obs.Trace.Stderr
  | Some path, None ->
      let oc = open_out path in
      Obs.Trace.set_sink (Obs.Trace.Jsonl oc);
      at_exit (fun () ->
          Obs.Trace.set_sink Obs.Trace.Null;
          close_out oc)
  | trace, Some otlp_path ->
      let sink, drain = Zipchannel.Obs_export.Otlp.collector () in
      let collect =
        match sink with Obs.Trace.Custom f -> f | _ -> fun _ -> ()
      in
      let tee, close_tee =
        match trace with
        | None -> ((fun _ -> ()), fun () -> ())
        | Some "-" ->
            ( (fun ev ->
                match Obs.Trace.stderr_line_of_event ev with
                | Some line ->
                    output_string stderr line;
                    output_char stderr '\n';
                    flush stderr
                | None -> ()),
              fun () -> () )
        | Some path ->
            let oc = open_out path in
            ( (fun ev ->
                output_string oc (Obs.Trace.jsonl_of_event ev);
                output_char oc '\n';
                flush oc),
              fun () -> close_out oc )
      in
      Obs.Trace.set_sink
        (Obs.Trace.Custom
           (fun ev ->
             collect ev;
             tee ev));
      at_exit (fun () ->
          Obs.Trace.set_sink Obs.Trace.Null;
          close_tee ();
          Zipchannel.Obs_export.Sink.atomic_write ~path:otlp_path
            (Zipchannel.Obs_export.Json.to_string (drain ()) ^ "\n")));
  if progress then begin
    Obs.Progress.set_enabled true;
    (* ANSI line rewriting only on an interactive stderr that hasn't
       opted out; campaign logs and piped runs get plain greppable
       lines. *)
    let no_color =
      match Sys.getenv_opt "NO_COLOR" with Some "" | None -> false | Some _ -> true
    in
    if (not no_color) && Unix.isatty Unix.stderr then
      Obs.Progress.set_style Obs.Progress.Ansi
    else Obs.Progress.set_style Obs.Progress.Plain
  end

(* Evaluates to () for the command term; wiring happens as a side effect
   while cmdliner evaluates the arguments, i.e. before the command body
   runs. *)
let flags =
  let metrics =
    let doc =
      "Record metrics.  With no $(docv), print a human-readable snapshot \
       to stderr on exit; with $(docv), write a JSON snapshot there \
       ($(b,-) for stderr)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"PATH" ~doc)
  in
  let trace =
    let doc =
      "Emit a span trace: one JSON object per span begin/end event to \
       $(docv), or human-readable lines to stderr with $(b,-)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)
  in
  let trace_otlp =
    let doc =
      "Collect the span trace in memory and write it as an OTLP/JSON \
       ExportTraceServiceRequest to $(docv) on exit.  Composes with \
       $(b,--trace): both outputs are written."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-otlp" ] ~docv:"PATH" ~doc)
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Print periodic one-line progress reports to stderr.")
  in
  Term.(const setup $ metrics $ trace $ trace_otlp $ progress)

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected a job count, got %S" s))
    | Some j -> (
        match Zipchannel.Parallel.Pool.normalize_jobs j with
        | Ok j -> Ok j
        | Error msg -> Error (`Msg msg))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg ~doc = Arg.(value & opt jobs_conv 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)
