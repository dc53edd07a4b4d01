(* Order statistics over timing samples. *)

(* The [q]-quantile by the (n+1)-basis linear interpolation of Python's
   [statistics.quantiles] (method "exclusive"), so the suite's quartiles
   agree with any script that checks run-to-run spread.  Ranks outside
   [1, n] clamp to the extremes instead of extrapolating.  NaN when
   empty. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = Float.min (Float.max (float_of_int (n + 1) *. q) 1.) (float_of_int n) in
    let j = int_of_float h in
    if j >= n then a.(n - 1) else a.(j - 1) +. ((h -. float_of_int j) *. (a.(j) -. a.(j - 1)))

let median xs = quantile xs 0.5

(* Samples strictly above the [q]-quantile: a percentile carries
   information only with about ten samples beyond it. *)
let beyond xs q =
  let t = quantile xs q in
  Array.fold_left (fun acc x -> if x > t then acc + 1 else acc) 0 xs

type summary = { n : int; q1 : float; median : float; q3 : float }

let summary xs =
  { n = Array.length xs; q1 = quantile xs 0.25; median = median xs; q3 = quantile xs 0.75 }

(* Interquartile distance as a share of the median. *)
let spread s = if s.median = 0. then Float.infinity else (s.q3 -. s.q1) /. Float.abs s.median

let pp_summary ppf s =
  Format.fprintf ppf "median %.4g  [q1 %.4g, q3 %.4g]  n=%d" s.median s.q1 s.q3 s.n
