module Obs = Zipchannel_obs.Obs

type report = {
  ticks : int;
  total_samples : int;
  folded : (string * int) list;
  self : (string * int * int) list;
}

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1_000_000.

(* Static metric handles (registration takes a lock; do it once). *)
let m_samples = Obs.Metrics.counter "prof.samples"
let m_ticks = Obs.Metrics.counter "prof.ticks"
let m_minor = Obs.Metrics.counter "runtime.minor_collections"
let m_major = Obs.Metrics.counter "runtime.major_collections"
let m_compact = Obs.Metrics.counter "runtime.compactions"
let m_minor_words = Obs.Metrics.counter "runtime.minor_words"
let m_promoted = Obs.Metrics.counter "runtime.promoted_words"
let g_heap = Obs.Metrics.gauge "runtime.heap_mb"
let g_top_heap = Obs.Metrics.gauge "runtime.top_heap_mb"
let g_alloc_rate = Obs.Metrics.gauge "runtime.alloc_mb_per_s"

type state = {
  mu : Mutex.t;
  folded : (string, int ref) Hashtbl.t;
  self_counters : (string, Obs.Metrics.counter) Hashtbl.t;
  mutable ticks : int;
  mutable total_samples : int;
  mutable last_stat : Gc.stat;
  mutable gc_stat : Gc.stat; (* at the last tick that saw a collection *)
  mutable gc_ns : int;
}

let state =
  {
    mu = Mutex.create ();
    folded = Hashtbl.create 64;
    self_counters = Hashtbl.create 64;
    ticks = 0;
    total_samples = 0;
    last_stat = Gc.quick_stat ();
    gc_stat = Gc.quick_stat ();
    gc_ns = 0;
  }

(* Windows of the runtime plane start here: at [reset] and [start]. *)
let mark_window_start () =
  let st = Gc.quick_stat () and now = Obs.now_ns () in
  state.last_stat <- st;
  state.gc_stat <- st;
  state.gc_ns <- now

let self_counter name =
  match Hashtbl.find_opt state.self_counters name with
  | Some c -> c
  | None ->
      let c = Obs.Metrics.counter ("prof.self." ^ name) in
      Hashtbl.replace state.self_counters name c;
      c

let leaf_of_path path =
  match String.rindex_opt path ';' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl key (ref n)

(* One sampler wakeup: read every slot, fold the non-idle paths, then
   fold a [Gc.quick_stat] delta into the runtime plane.  Caller does NOT
   hold [state.mu]. *)
let tick () =
  let paths = Obs.Prof.current_paths () in
  let now = Obs.now_ns () in
  let st = Gc.quick_stat () in
  Mutex.lock state.mu;
  state.ticks <- state.ticks + 1;
  Obs.Metrics.incr m_ticks;
  Array.iteri
    (fun slot path ->
      if path <> "" then begin
        state.total_samples <- state.total_samples + 1;
        bump state.folded (Printf.sprintf "domain-%d;%s" slot path) 1;
        Obs.Metrics.incr m_samples;
        Obs.Metrics.incr (self_counter (leaf_of_path path))
      end)
    paths;
  (* Runtime delta for this window, published as metrics only. *)
  let prev = state.last_stat in
  let dminor_w = st.Gc.minor_words -. prev.Gc.minor_words in
  let dpromoted = st.Gc.promoted_words -. prev.Gc.promoted_words in
  Obs.Metrics.add m_minor (st.Gc.minor_collections - prev.Gc.minor_collections);
  Obs.Metrics.add m_major (st.Gc.major_collections - prev.Gc.major_collections);
  Obs.Metrics.add m_compact (st.Gc.compactions - prev.Gc.compactions);
  Obs.Metrics.add m_minor_words (int_of_float dminor_w);
  Obs.Metrics.add m_promoted (int_of_float dpromoted);
  Obs.Metrics.set_gauge g_heap (mb_of_words (float_of_int st.Gc.heap_words));
  Obs.Metrics.set_gauge g_top_heap
    (mb_of_words (float_of_int st.Gc.top_heap_words));
  (* Minor-heap words reach [Gc.quick_stat] only at a collection, so a
     window without one reads no allocation and the window after one
     reads it all.  The rate is taken over the span between the last two
     ticks that saw a collection, and held in between. *)
  let base = state.gc_stat in
  if st.Gc.minor_collections > base.Gc.minor_collections then begin
    let alloc_w =
      st.Gc.minor_words -. base.Gc.minor_words +. st.Gc.major_words
      -. base.Gc.major_words -. st.Gc.promoted_words +. base.Gc.promoted_words
    in
    let dt_s = float_of_int (now - state.gc_ns) /. 1e9 in
    if dt_s > 0. then
      Obs.Metrics.set_gauge g_alloc_rate (mb_of_words alloc_w /. dt_s);
    state.gc_stat <- st;
    state.gc_ns <- now
  end;
  state.last_stat <- st;
  Mutex.unlock state.mu

let sample_once () = tick ()

let reset () =
  Mutex.lock state.mu;
  Hashtbl.reset state.folded;
  state.ticks <- 0;
  state.total_samples <- 0;
  mark_window_start ();
  Mutex.unlock state.mu

(* Ticker lifecycle.  The ticker runs in its own {e domain}, not a
   systhread: a systhread of the profiled domain only gets scheduled
   when that domain yields its runtime lock (every ~50 ms under a busy
   OCaml loop), which starves sampling; a domain ticks independently at
   the requested rate, reads the publication slots through atomics, and
   [Gc.quick_stat] aggregates allocation across domains, so the runtime
   plane still sees the profiled workload.  [Thread.delay] inside the
   ticker domain sleeps just that domain. *)
let run_flag = Atomic.make false
let ticker : unit Domain.t option ref = ref None
let lifecycle_mu = Mutex.create ()

let loop interval_s () =
  while Atomic.get run_flag do
    tick ();
    Thread.delay interval_s
  done

let start ?(interval_us = 1000) () =
  Mutex.lock lifecycle_mu;
  (if not (Atomic.get run_flag) then begin
     mark_window_start ();
     Obs.Prof.set_publishing true;
     Atomic.set run_flag true;
     let interval_s = float_of_int (max 1 interval_us) /. 1e6 in
     ticker := Some (Domain.spawn (loop interval_s))
   end);
  Mutex.unlock lifecycle_mu

let stop () =
  Mutex.lock lifecycle_mu;
  (if Atomic.get run_flag then begin
     Atomic.set run_flag false;
     (match !ticker with Some d -> Domain.join d | None -> ());
     ticker := None;
     Obs.Prof.set_publishing false
   end);
  Mutex.unlock lifecycle_mu

let running () = Atomic.get run_flag

let report () =
  Mutex.lock state.mu;
  let folded =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) state.folded []
    |> List.sort (fun (ka, a) (kb, b) ->
           if a <> b then compare b a else compare ka kb)
  in
  (* Per-span self/total from the folded table. *)
  let self_tbl = Hashtbl.create 64 in
  let total_tbl = Hashtbl.create 64 in
  List.iter
    (fun (key, n) ->
      match String.split_on_char ';' key with
      | [] | [ _ ] -> ()
      | _domain :: frames ->
          let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> "" in
          bump self_tbl (last frames) n;
          let seen = Hashtbl.create 8 in
          List.iter
            (fun f ->
              if not (Hashtbl.mem seen f) then begin
                Hashtbl.replace seen f ();
                bump total_tbl f n
              end)
            frames)
    folded;
  let self =
    Hashtbl.fold
      (fun name total acc ->
        let s =
          match Hashtbl.find_opt self_tbl name with Some r -> !r | None -> 0
        in
        (name, s, !total) :: acc)
      total_tbl []
    |> List.sort (fun (na, sa, _) (nb, sb, _) ->
           if sa <> sb then compare sb sa else compare na nb)
  in
  let r =
    { ticks = state.ticks; total_samples = state.total_samples; folded; self }
  in
  Mutex.unlock state.mu;
  r

let folded_lines ?prefix (r : report) =
  let b = Buffer.create 256 in
  List.iter
    (fun (k, n) ->
      (match prefix with
      | Some p ->
          Buffer.add_string b p;
          Buffer.add_char b ';'
      | None -> ());
      Buffer.add_string b k;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b '\n')
    r.folded;
  Buffer.contents b
