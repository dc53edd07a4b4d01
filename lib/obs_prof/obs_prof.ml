module Obs = Zipchannel_obs.Obs

type gc_delta = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  minor_words : float;
  promoted_words : float;
  heap_mb : float;
  top_heap_mb : float;
  alloc_mb : float;
  elapsed_s : float;
}

type slice = { top_span : string; samples : int; alloc_mb : float }

type report = {
  ticks : int;
  total_samples : int;
  folded : (string * int) list;
  self : (string * int * int) list;
  gc : gc_delta;
  slices : slice list;
}

let word_bytes = float_of_int (Sys.word_size / 8)
let mb_of_words w = w *. word_bytes /. 1_000_000.

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

type slice_acc = { mutable s_samples : int; mutable s_alloc_words : float }

type state = {
  mu : Mutex.t;
  folded : (string, int ref) Hashtbl.t;
  self_counters : (string, Obs.Metrics.counter) Hashtbl.t;
  by_top : (string, slice_acc) Hashtbl.t;
  mutable ticks : int;
  mutable total_samples : int;
  mutable anchor : int;
  mutable last_stat : Gc.stat;
  mutable last_ns : int;
  mutable start_ns : int;
  (* cumulative runtime deltas since start/reset *)
  mutable d_minor : int;
  mutable d_major : int;
  mutable d_compact : int;
  mutable d_minor_words : float;
  mutable d_major_words : float;
  mutable d_promoted : float;
  mutable heap_words : float;
  mutable top_heap_words : float;
}

let state =
  {
    mu = Mutex.create ();
    folded = Hashtbl.create 64;
    self_counters = Hashtbl.create 64;
    by_top = Hashtbl.create 16;
    ticks = 0;
    total_samples = 0;
    anchor = 0;
    last_stat = Gc.quick_stat ();
    last_ns = 0;
    start_ns = 0;
    d_minor = 0;
    d_major = 0;
    d_compact = 0;
    d_minor_words = 0.;
    d_major_words = 0.;
    d_promoted = 0.;
    heap_words = 0.;
    top_heap_words = 0.;
  }

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

let root_of_path path =
  match String.index_opt path ';' with
  | None -> path
  | Some i -> String.sub path 0 i

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
  (* Runtime delta for this window. *)
  let prev = state.last_stat in
  let dminor = st.Gc.minor_collections - prev.Gc.minor_collections in
  let dmajor = st.Gc.major_collections - prev.Gc.major_collections in
  let dcompact = st.Gc.compactions - prev.Gc.compactions in
  let dminor_w = st.Gc.minor_words -. prev.Gc.minor_words in
  let dmajor_w = st.Gc.major_words -. prev.Gc.major_words in
  let dpromoted = st.Gc.promoted_words -. prev.Gc.promoted_words in
  let alloc_w = dminor_w +. dmajor_w -. dpromoted in
  state.d_minor <- state.d_minor + dminor;
  state.d_major <- state.d_major + dmajor;
  state.d_compact <- state.d_compact + dcompact;
  state.d_minor_words <- state.d_minor_words +. dminor_w;
  state.d_major_words <- state.d_major_words +. dmajor_w;
  state.d_promoted <- state.d_promoted +. dpromoted;
  state.heap_words <- float_of_int st.Gc.heap_words;
  state.top_heap_words <- float_of_int st.Gc.top_heap_words;
  Obs.Metrics.add m_minor dminor;
  Obs.Metrics.add m_major dmajor;
  Obs.Metrics.add m_compact dcompact;
  Obs.Metrics.add m_minor_words (int_of_float dminor_w);
  Obs.Metrics.add m_promoted (int_of_float dpromoted);
  Obs.Metrics.set_gauge g_heap (mb_of_words state.heap_words);
  Obs.Metrics.set_gauge g_top_heap (mb_of_words state.top_heap_words);
  let dt_s = float_of_int (now - state.last_ns) /. 1e9 in
  if dt_s > 0. then
    Obs.Metrics.set_gauge g_alloc_rate (mb_of_words alloc_w /. dt_s);
  (* Attribute this window's allocation to whatever top-level span the
     anchor domain is inside. *)
  (if state.anchor >= 0 && state.anchor < Array.length paths then
     let anchor_path = paths.(state.anchor) in
     if anchor_path <> "" then begin
       let root = root_of_path anchor_path in
       let acc =
         match Hashtbl.find_opt state.by_top root with
         | Some a -> a
         | None ->
             let a = { s_samples = 0; s_alloc_words = 0. } in
             Hashtbl.replace state.by_top root a;
             a
       in
       acc.s_samples <- acc.s_samples + 1;
       acc.s_alloc_words <- acc.s_alloc_words +. Float.max 0. alloc_w
     end);
  state.last_stat <- st;
  state.last_ns <- now;
  Mutex.unlock state.mu

let sample_once () = tick ()

let reset () =
  Mutex.lock state.mu;
  Hashtbl.reset state.folded;
  Hashtbl.reset state.by_top;
  state.ticks <- 0;
  state.total_samples <- 0;
  state.d_minor <- 0;
  state.d_major <- 0;
  state.d_compact <- 0;
  state.d_minor_words <- 0.;
  state.d_major_words <- 0.;
  state.d_promoted <- 0.;
  state.last_stat <- Gc.quick_stat ();
  state.last_ns <- Obs.now_ns ();
  state.start_ns <- state.last_ns;
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
     state.anchor <- Obs.Slot.get ();
     state.last_stat <- Gc.quick_stat ();
     state.last_ns <- Obs.now_ns ();
     if state.start_ns = 0 then state.start_ns <- state.last_ns;
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
  let now = Obs.now_ns () in
  let gc =
    {
      minor_collections = state.d_minor;
      major_collections = state.d_major;
      compactions = state.d_compact;
      minor_words = state.d_minor_words;
      promoted_words = state.d_promoted;
      heap_mb = mb_of_words state.heap_words;
      top_heap_mb = mb_of_words state.top_heap_words;
      alloc_mb =
        mb_of_words
          (state.d_minor_words +. state.d_major_words -. state.d_promoted);
      elapsed_s =
        (if state.start_ns = 0 then 0.
         else float_of_int (now - state.start_ns) /. 1e9);
    }
  in
  let slices =
    Hashtbl.fold
      (fun top acc l ->
        {
          top_span = top;
          samples = acc.s_samples;
          alloc_mb = mb_of_words acc.s_alloc_words;
        }
        :: l)
      state.by_top []
    |> List.sort (fun a b ->
           if a.samples <> b.samples then compare b.samples a.samples
           else compare a.top_span b.top_span)
  in
  let r =
    {
      ticks = state.ticks;
      total_samples = state.total_samples;
      folded;
      self;
      gc;
      slices;
    }
  in
  Mutex.unlock state.mu;
  r

let fnum f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let report_to_json (r : report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"ticks\": %d, \"samples\": %d, \"folded\": {" r.ticks
       r.total_samples);
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" (Obs.json_escape k) n))
    r.folded;
  Buffer.add_string b "}, \"self\": {";
  List.iteri
    (fun i (name, s, t) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": [%d, %d]" (Obs.json_escape name) s t))
    r.self;
  Buffer.add_string b "}, \"gc\": {";
  Buffer.add_string b
    (Printf.sprintf
       "\"minor_collections\": %d, \"major_collections\": %d, \
        \"compactions\": %d, \"minor_words\": %s, \"promoted_words\": %s, \
        \"heap_mb\": %s, \"top_heap_mb\": %s, \"alloc_mb\": %s, \
        \"elapsed_s\": %s"
       r.gc.minor_collections r.gc.major_collections r.gc.compactions
       (fnum r.gc.minor_words) (fnum r.gc.promoted_words) (fnum r.gc.heap_mb)
       (fnum r.gc.top_heap_mb) (fnum r.gc.alloc_mb) (fnum r.gc.elapsed_s));
  Buffer.add_string b "}, \"slices\": [";
  List.iteri
    (fun i sl ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"top_span\": \"%s\", \"samples\": %d, \"alloc_mb\": %s}"
           (Obs.json_escape sl.top_span) sl.samples (fnum sl.alloc_mb)))
    r.slices;
  Buffer.add_string b "]}";
  Buffer.contents b

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
