(* BENCHMARK.json: the workloads, end-to-end metrics and regression
   bounds the suite declares. *)

module Json = Zipchannel.Obs_export.Json

type metric = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float option;  (** share of the baseline median *)
}

type t = { workloads : string list; end_to_end : metric list }

let load path =
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  let field k o = match Json.member k o with Some v -> v | None -> failwith (path ^ ": no " ^ k) in
  let str k o = match Json.to_str (field k o) with Some s -> s | None -> failwith (path ^ ": " ^ k) in
  let list k o = Option.value ~default:[] (Json.to_arr (field k o)) in
  let metric o =
    {
      name = str "name" o;
      unit_ = str "unit" o;
      higher_better = str "better" o = "higher";
      bound = Option.bind (Json.member "bound" o) Json.to_num;
    }
  in
  { workloads = List.map (str "name") (list "workloads" j); end_to_end = List.map metric (list "end_to_end" j) }
