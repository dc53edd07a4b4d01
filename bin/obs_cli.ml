(* Cmdliner plumbing shared by zc's commands: the observability flags
   and the --jobs guard. *)

open Cmdliner
module Obs = Zipchannel.Obs

let setup metrics trace progress =
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
  (match trace with
  | None -> ()
  | Some "-" -> Obs.Trace.set_sink (Obs.Trace.Jsonl stderr)
  | Some path ->
      let oc = open_out path in
      Obs.Trace.set_sink (Obs.Trace.Jsonl oc);
      at_exit (fun () ->
          Obs.Trace.set_sink Obs.Trace.Null;
          close_out oc));
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
       $(docv) ($(b,-) for stderr).  $(b,zc obs export) and $(b,zc obs \
       profile) convert it."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Print periodic one-line progress reports to stderr.")
  in
  Term.(const setup $ metrics $ trace $ progress)

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
