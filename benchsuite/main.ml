(* End-to-end benchmark suite.

   One workload, in this process (the form a harness calls):
     main.exe --workload W --seed N --seconds S --trace 0|1
   prints the workload's notes and metrics, then as its last line one
   JSON object {"correct", "attempted", "failed", "metrics"}: every
   end-to-end metric with --trace 0, every per-layer metric with 1.

   All four workloads, each in a fresh child process:
     main.exe suite [--seed N] [--seconds S] [--json PATH] [--trace DIR]
   --json appends the run to the JSON array in PATH; --trace DIR runs the
   traced form and writes DIR/<workload>.json.
     main.exe suite --compare A.json B.json
   judges two sets of --json runs against the bounds in BENCHMARK.json. *)

open Benchsuite
module Json = Zipchannel.Obs_export.Json

let default_seconds = 10.

let result_json (o : Workload.outcome) =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj (List.map (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) o.metrics) );
    ]

let scratch = ".benchsuite"

let run_one ~workload ~seed ~seconds ~trace =
  if not (List.mem workload Workload.names) then failwith ("unknown workload " ^ workload);
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  let cfg = { Workload.seed; seconds; size = 256 * 1024; setups = 3; trace; scratch } in
  let o = Fun.protect ~finally:(fun () -> try Sys.rmdir scratch with Sys_error _ -> ()) (fun () -> Workload.run cfg workload) in
  Printf.printf "== %s  seed %d  %gs%s ==\n" workload seed seconds (if trace then "  traced" else "");
  List.iter print_endline o.notes;
  List.iter (fun (n, u, v) -> Printf.printf "  %-32s %14.6g %s\n" n v u) o.metrics;
  Printf.printf "  correct %b  attempted %d  failed %d\n" o.correct o.attempted o.failed;
  print_endline (Json.to_string (result_json o))

(* Re-execute this binary on one workload; its last stdout line. *)
let child ~workload ~seed ~seconds ~trace =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: rest ->
      List.iter print_endline (List.rev rest);
      Json.parse last
  | _ -> failwith (workload ^ ": child run failed")

let append_run path run =
  let prior =
    if Sys.file_exists path then Option.value ~default:[] (Json.to_arr (Json.parse (In_channel.with_open_bin path In_channel.input_all)))
    else []
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string (Json.Arr (prior @ [ run ])) ^ "\n"))

let suite args =
  let seed = ref 1 and seconds = ref default_seconds and json = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--json" :: p :: rest -> json := Some p; parse rest
    | "--trace" :: d :: rest -> trace := Some d; parse rest
    | [ "--compare"; a; b ] -> exit (if Compare.run ~spec:(Spec.load "BENCHMARK.json") a b then 0 else 1)
    | _ -> failwith "usage: suite [--seed N] [--seconds S] [--json PATH] [--trace DIR] | suite --compare A B"
  in
  parse args;
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) !trace;
  let results =
    List.map
      (fun workload ->
        let r = child ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace <> None) in
        Option.iter
          (fun d -> Out_channel.with_open_bin (Filename.concat d (workload ^ ".json")) (fun oc -> output_string oc (Json.to_string r ^ "\n")))
          !trace;
        (workload, r))
      Workload.names
  in
  Option.iter
    (fun path ->
      append_run path
        (Json.Obj [ ("seed", Json.Num (float_of_int !seed)); ("seconds", Json.Num !seconds); ("results", Json.Obj results) ]))
    !json;
  if not (List.for_all (fun (_, r) -> Json.member "correct" r = Some (Json.Bool true)) results) then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "suite" :: rest -> suite rest
  | _ :: rest -> (
      let rec flag k = function k' :: v :: _ when k' = k -> Some v | _ :: l -> flag k l | [] -> None in
      match (flag "--workload" rest, flag "--seed" rest, flag "--seconds" rest, flag "--trace" rest) with
      | Some workload, Some seed, Some seconds, Some trace ->
          run_one ~workload ~seed:(int_of_string seed) ~seconds:(float_of_string seconds) ~trace:(trace = "1")
      | _ ->
          prerr_endline "usage: main.exe --workload W --seed N --seconds S --trace 0|1 | main.exe suite ...";
          exit 2)
  | [] -> exit 2
