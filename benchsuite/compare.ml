(* [suite --compare A.json B.json]: two sets of suite runs, judged per
   workload and end-to-end metric with the bounds from BENCHMARK.json.

   The bound check itself is [Obs_export.Gate]'s: a metric with a bound
   is a [Band], one with bound 0 is [Exact].  A band is two-sided, so a
   band violation only counts when B moved in the metric's worse
   direction.  When either set spreads (interquartile distance over
   median) wider than the bound, the verdict is UNRESOLVED unless every
   run of B beats every run of A. *)

open Zipchannel
module Json = Obs_export.Json
module Gate = Obs_export.Gate

(* Every run in a suite JSON file: workload -> metric -> value. *)
let load path =
  let runs = Option.value ~default:[] (Json.to_arr (Json.parse (In_channel.with_open_bin path In_channel.input_all))) in
  List.map
    (fun run ->
      let results = Option.value ~default:[] (Option.bind (Json.member "results" run) Json.to_obj) in
      List.map
        (fun (w, r) ->
          let metrics = Option.value ~default:[] (Option.bind (Json.member "metrics" r) Json.to_obj) in
          (w, List.filter_map (fun (m, v) -> Option.map (fun x -> (m, x)) (Option.bind (Json.member "value" v) Json.to_num)) metrics))
        results)
    runs

let values runs ~workload ~metric =
  Array.of_list
    (List.filter_map (fun run -> Option.bind (List.assoc_opt workload run) (List.assoc_opt metric)) runs)

let rules (spec : Spec.t) =
  {
    Gate.metric_rules =
      List.map
        (fun (m : Spec.metric) ->
          let bound = Option.value ~default:0. m.bound in
          { Gate.bench = ""; prefix = m.name; klass = (if bound = 0. then Gate.Exact else Band (100. *. bound)) })
        spec.end_to_end;
    ns_max_increase_pct = None;
  }

type verdict = Ok_ | Regressed | Unresolved

let verdict_name = function Ok_ -> "OK" | Regressed -> "REGRESSED" | Unresolved -> "UNRESOLVED"

let judge rules ~workload (m : Spec.metric) a b =
  let sa = Sample.summary a and sb = Sample.summary b in
  let bound = Option.value ~default:0. m.bound in
  let better x y = if m.higher_better then x > y else x < y in
  let worse =
    Gate.compare_metrics rules ~bench:workload ~baseline:[ (m.name, sa.median) ] ~current:[ (m.name, sb.median) ]
    |> List.exists (fun (r : Gate.regression) -> better r.baseline r.current)
  in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b in
  let v =
    if Sample.spread sa > bound || Sample.spread sb > bound then if all_better then Ok_ else Unresolved
    else if worse then Regressed
    else Ok_
  in
  (sa, sb, v)

(* Prints the table; true when nothing regressed. *)
let run ~spec path_a path_b =
  let a = load path_a and b = load path_b and rules = rules spec in
  Printf.printf "A = %s (%d runs), B = %s (%d runs)\n" path_a (List.length a) path_b (List.length b);
  Printf.printf "%-16s %-15s %24s %24s %7s  %s\n" "workload" "metric" "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  let regressed = ref false in
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.metric) ->
          let va = values a ~workload ~metric:m.name and vb = values b ~workload ~metric:m.name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let sa, sb, v = judge rules ~workload m va vb in
            if v = Regressed then regressed := true;
            let cell (s : Sample.summary) = Printf.sprintf "%.4g [%.4g, %.4g]" s.median s.q1 s.q3 in
            Printf.printf "%-16s %-15s %24s %24s %+6.1f%%  %s\n" workload m.name (cell sa) (cell sb)
              (100. *. ((sb.median /. sa.median) -. 1.))
              (verdict_name v)
          end)
        spec.Spec.end_to_end)
    spec.workloads;
  not !regressed
