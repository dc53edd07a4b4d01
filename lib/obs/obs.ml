(* Process-wide metrics, span tracing and progress reporting.

   Counters/histograms are sharded: each metric owns [Slot.count] atomic
   slots and a domain writes the slot [Slot.get] hands it.  Reads sum
   the slots.  This keeps the write path lock-free and contention low
   under the Domain pool while staying exact (no sampling). *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Dense per-domain slots.  Domain ids only grow and the pools spawn
   fresh domains per call, so [id mod count] would let two live domains
   alias; instead a domain claims the lowest free bit of [used] when it
   first asks (DLS init) and clears it when it exits.  With every slot
   taken, a domain shares [id mod count] for its lifetime. *)
module Slot = struct
  let count = 16
  let full = (1 lsl count) - 1
  let used = Atomic.make 0

  let rec lowest_zero m i = if m land (1 lsl i) = 0 then i else lowest_zero m (i + 1)

  let rec claim () =
    let m = Atomic.get used in
    if m = full then None
    else
      let i = lowest_zero m 0 in
      if Atomic.compare_and_set used m (m lor (1 lsl i)) then Some i else claim ()

  (* Only the owner clears its bit, so subtracting it is clearing it. *)
  let release i = ignore (Atomic.fetch_and_add used (-(1 lsl i)))

  let key =
    Domain.DLS.new_key (fun () ->
        match claim () with
        | Some i ->
            Domain.at_exit (fun () -> release i);
            i
        | None -> (Domain.self () :> int) land (count - 1))

  let get () = Domain.DLS.get key
end

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

module Metrics = struct
  type counter = int Atomic.t array

  type gauge = { g_set : bool Atomic.t; g_bits : int64 Atomic.t }

  (* Per-shard histogram state: sample count, running sum, and one slot
     per log2 bucket (63 buckets cover every non-negative OCaml int). *)
  type histogram = {
    h_count : int Atomic.t array;
    h_sum : int Atomic.t array;
    h_buckets : int Atomic.t array array; (* shard -> bucket -> count *)
  }

  let buckets_per_histogram = 63

  type metric =
    | Counter of counter
    | Gauge of gauge
    | Histogram of histogram

  let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
  let registry_lock = Mutex.create ()

  let atomic_array n = Array.init n (fun _ -> Atomic.make 0)

  let register name make cast =
    Mutex.lock registry_lock;
    let m =
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.add registry name m;
        m
    in
    Mutex.unlock registry_lock;
    cast m

  let counter name =
    register name
      (fun () -> Counter (atomic_array Slot.count))
      (function
        | Counter c -> c
        | _ -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " is not a counter"))

  let add c n =
    if Atomic.get enabled_flag then
      ignore (Atomic.fetch_and_add c.(Slot.get ()) n)

  let incr c = add c 1

  let counter_value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

  let gauge name =
    register name
      (fun () ->
        Gauge { g_set = Atomic.make false; g_bits = Atomic.make 0L })
      (function
        | Gauge g -> g
        | _ -> invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " is not a gauge"))

  let set_gauge g v =
    if Atomic.get enabled_flag then begin
      Atomic.set g.g_bits (Int64.bits_of_float v);
      Atomic.set g.g_set true
    end

  let gauge_value g = Int64.float_of_bits (Atomic.get g.g_bits)

  let histogram name =
    register name
      (fun () ->
        Histogram
          {
            h_count = atomic_array Slot.count;
            h_sum = atomic_array Slot.count;
            h_buckets =
              Array.init Slot.count (fun _ -> atomic_array buckets_per_histogram);
          })
      (function
        | Histogram h -> h
        | _ ->
          invalid_arg ("Obs.Metrics.histogram: " ^ name ^ " is not a histogram"))

  (* Bucket 0 holds v <= 1; bucket b >= 1 holds 2^(b-1) < v <= ... i.e.
     b = bits needed for (v - 1); monotone in v, cheap to compute. *)
  let bucket_of v =
    if v <= 1 then 0
    else
      let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
      bits (v - 1) 0

  let observe h v =
    if Atomic.get enabled_flag then begin
      let s = Slot.get () in
      ignore (Atomic.fetch_and_add h.h_count.(s) 1);
      ignore (Atomic.fetch_and_add h.h_sum.(s) v);
      ignore (Atomic.fetch_and_add h.h_buckets.(s).(bucket_of v) 1)
    end

  type histogram_snapshot = {
    count : int;
    sum : int;
    buckets : (int * int) list;
  }

  type snapshot = {
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * histogram_snapshot) list;
  }

  let histogram_snapshot h =
    let count = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 h.h_count in
    let sum = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 h.h_sum in
    let buckets = ref [] in
    for b = buckets_per_histogram - 1 downto 0 do
      let n =
        Array.fold_left (fun acc row -> acc + Atomic.get row.(b)) 0 h.h_buckets
      in
      if n > 0 then buckets := (b, n) :: !buckets
    done;
    { count; sum; buckets = !buckets }

  let snapshot () =
    Mutex.lock registry_lock;
    let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
    Mutex.unlock registry_lock;
    let entries =
      List.sort (fun (a, _) (b, _) -> String.compare a b) entries
    in
    let counters = ref [] and gauges = ref [] and histograms = ref [] in
    List.iter
      (fun (name, m) ->
        match m with
        | Counter c ->
          let v = counter_value c in
          if v <> 0 then counters := (name, v) :: !counters
        | Gauge g ->
          if Atomic.get g.g_set then gauges := (name, gauge_value g) :: !gauges
        | Histogram h ->
          let hs = histogram_snapshot h in
          if hs.count <> 0 then histograms := (name, hs) :: !histograms)
      entries;
    {
      counters = List.rev !counters;
      gauges = List.rev !gauges;
      histograms = List.rev !histograms;
    }

  let reset () =
    Mutex.lock registry_lock;
    Hashtbl.iter
      (fun _ m ->
        match m with
        | Counter c -> Array.iter (fun a -> Atomic.set a 0) c
        | Gauge g ->
          Atomic.set g.g_set false;
          Atomic.set g.g_bits 0L
        | Histogram h ->
          Array.iter (fun a -> Atomic.set a 0) h.h_count;
          Array.iter (fun a -> Atomic.set a 0) h.h_sum;
          Array.iter (Array.iter (fun a -> Atomic.set a 0)) h.h_buckets)
      registry;
    Mutex.unlock registry_lock

  let delta ~before ~after =
    let find name xs = List.assoc_opt name xs in
    let counters =
      List.filter_map
        (fun (name, v) ->
          let v0 = Option.value ~default:0 (find name before.counters) in
          if v - v0 <> 0 then Some (name, v - v0) else None)
        after.counters
    in
    let gauges =
      (* [Float.compare] rather than structural (<>): a gauge rewritten to
         the value it already had — including NaN, where [=] would always
         differ — is unchanged and must not appear in the delta. *)
      List.filter
        (fun (name, v) ->
          match find name before.gauges with
          | Some v0 -> Float.compare v0 v <> 0
          | None -> true)
        after.gauges
    in
    let histograms =
      List.filter_map
        (fun (name, hs) ->
          let hs0 =
            Option.value
              ~default:{ count = 0; sum = 0; buckets = [] }
              (find name before.histograms)
          in
          if hs.count = hs0.count then None
          else
            let buckets =
              List.filter_map
                (fun (b, n) ->
                  let n0 =
                    Option.value ~default:0 (List.assoc_opt b hs0.buckets)
                  in
                  if n - n0 > 0 then Some (b, n - n0) else None)
                hs.buckets
            in
            Some
              ( name,
                {
                  count = hs.count - hs0.count;
                  sum = hs.sum - hs0.sum;
                  buckets;
                } ))
        after.histograms
    in
    { counters; gauges; histograms }

  let is_empty s = s.counters = [] && s.gauges = [] && s.histograms = []

  (* Midpoint of a log2 bucket's value range: bucket 0 holds v <= 1,
     bucket b >= 1 holds 2^(b-1) < v <= 2^b. *)
  let bucket_midpoint b =
    if b = 0 then 1.0 else 1.5 *. float_of_int (1 lsl (b - 1))

  let approx_quantile hs q =
    if hs.count = 0 then 0.0
    else begin
      let rank = q *. float_of_int hs.count in
      let rec go seen = function
        | [] -> 0.0
        | [ (b, _) ] -> bucket_midpoint b
        | (b, n) :: rest ->
            let seen = seen + n in
            if float_of_int seen >= rank then bucket_midpoint b
            else go seen rest
      in
      go 0 hs.buckets
    end

  let pp_snapshot ppf s =
    let open Format in
    List.iter (fun (name, v) -> fprintf ppf "  %-42s %d@." name v) s.counters;
    List.iter (fun (name, v) -> fprintf ppf "  %-42s %.4f@." name v) s.gauges;
    List.iter
      (fun (name, hs) ->
        let mean =
          if hs.count = 0 then 0. else float_of_int hs.sum /. float_of_int hs.count
        in
        fprintf ppf "  %-42s count=%d sum=%d mean=%.1f p50~%g p95~%g@." name
          hs.count hs.sum mean
          (approx_quantile hs 0.5)
          (approx_quantile hs 0.95))
      s.histograms

  let json_float v =
    (* JSON has no NaN/infinity literals; clamp to 0. *)
    if Float.is_nan v || Float.abs v = Float.infinity then "0"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.1f" v
    else Printf.sprintf "%.6g" v

  let snapshot_to_json s =
    let b = Buffer.create 1024 in
    let field_sep = ref "" in
    let obj xs f =
      Buffer.add_char b '{';
      let sep = ref "" in
      List.iter
        (fun x ->
          Buffer.add_string b !sep;
          sep := ", ";
          f x)
        xs;
      Buffer.add_char b '}'
    in
    Buffer.add_char b '{';
    let section name xs f =
      Buffer.add_string b !field_sep;
      field_sep := ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": " name);
      obj xs f
    in
    section "counters" s.counters (fun (name, v) ->
        Buffer.add_string b (Printf.sprintf "\"%s\": %d" (json_escape name) v));
    section "gauges" s.gauges (fun (name, v) ->
        Buffer.add_string b
          (Printf.sprintf "\"%s\": %s" (json_escape name) (json_float v)));
    section "histograms" s.histograms (fun (name, hs) ->
        Buffer.add_string b (Printf.sprintf "\"%s\": " (json_escape name));
        Buffer.add_string b
          (Printf.sprintf "{\"count\": %d, \"sum\": %d, \"buckets\": " hs.count
             hs.sum);
        obj hs.buckets (fun (bk, n) ->
            Buffer.add_string b (Printf.sprintf "\"%d\": %d" bk n));
        Buffer.add_char b '}');
    Buffer.add_char b '}';
    Buffer.contents b

  let flat_pairs s =
    List.map (fun (name, v) -> (name, float_of_int v)) s.counters
    @ s.gauges
    @ List.concat_map
        (fun (name, hs) ->
          [
            (name ^ ".count", float_of_int hs.count);
            (name ^ ".sum", float_of_int hs.sum);
          ])
        s.histograms
end

(* ------------------------------------------------------------------ *)
(* Sampling-profiler publication plane.

   [with_span] additionally publishes the current leaf span *path*
   ("outer;inner") into a per-domain atomic slot whenever publication is
   on.  The path string for a span is built once at push (an allocation
   only the profiled runs pay), kept on a per-domain DLS stack, and the
   slot write itself is a single [Atomic.set] — so a concurrent ticker
   thread (lib/obs_prof) can sample every slot without stopping, locking
   or otherwise observing the instrumented domains.  The slot index is
   the domain's [Slot.get], like the metric shards. *)

module Prof = struct
  let flag = Atomic.make false

  let slots = Array.init Slot.count (fun _ -> Atomic.make "")

  let stack_key : string list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let publishing () = Atomic.get flag

  let set_publishing b =
    Atomic.set flag b;
    (* Turning publication off wipes the slots so a later sampler run
       does not attribute time to spans long since finished. *)
    if not b then Array.iter (fun s -> Atomic.set s "") slots

  let current_paths () = Array.map Atomic.get slots

  let current_path () = Atomic.get slots.(Slot.get ())

  let push name =
    let st = Domain.DLS.get stack_key in
    let path = match !st with [] -> name | p :: _ -> p ^ ";" ^ name in
    st := path :: !st;
    Atomic.set slots.(Slot.get ()) path

  let pop () =
    let st = Domain.DLS.get stack_key in
    match !st with
    | [] -> ()
    | _ :: rest ->
        st := rest;
        Atomic.set slots.(Slot.get ())
          (match rest with [] -> "" | p :: _ -> p)
end

module Trace = struct
  type span_event = {
    phase : [ `Begin | `End ];
    name : string;
    domain : int;
    depth : int;
    ts_ns : int;
    dur_ns : int;
    attrs : (string * string) list;
  }

  type sink = Null | Jsonl of out_channel | Custom of (span_event -> unit)

  (* The sink is read on every with_span; boxed in an atomic so domains
     see a consistent value.  Writes to the sink itself are serialised
     by [emit_lock]. *)
  let current : sink Atomic.t = Atomic.make Null
  let emit_lock = Mutex.create ()

  let set_sink s = Atomic.set current s
  let sink () = Atomic.get current

  let attrs_json = function
    | [] -> ""
    | attrs ->
      let fields =
        List.map
          (fun (k, v) ->
            Printf.sprintf "\"%s\": \"%s\"" (json_escape k)
              (json_escape v))
          attrs
      in
      Printf.sprintf ", \"attrs\": {%s}" (String.concat ", " fields)

  let jsonl_of_event ev =
    match ev.phase with
    | `Begin ->
      Printf.sprintf
        "{\"ev\": \"b\", \"name\": \"%s\", \"domain\": %d, \"depth\": %d, \
         \"ts_ns\": %d%s}"
        (json_escape ev.name)
        ev.domain ev.depth ev.ts_ns (attrs_json ev.attrs)
    | `End ->
      Printf.sprintf
        "{\"ev\": \"e\", \"name\": \"%s\", \"domain\": %d, \"depth\": %d, \
         \"ts_ns\": %d, \"dur_ns\": %d%s}"
        (json_escape ev.name)
        ev.domain ev.depth ev.ts_ns ev.dur_ns (attrs_json ev.attrs)
end

(* Per-domain span nesting depth, carried by every event. *)
let span_depth_key = Domain.DLS.new_key (fun () -> ref 0)

let emit_line oc line =
  Mutex.lock Trace.emit_lock;
  output_string oc line;
  output_char oc '\n';
  flush oc;
  Mutex.unlock Trace.emit_lock

(* A Custom sink's callback runs under [emit_lock] like every other
   emission, so a collecting sink needs no synchronisation of its own. *)
let emit_custom cb ev =
  Mutex.lock Trace.emit_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock Trace.emit_lock)
    (fun () -> cb ev)

let with_span ?(attrs = []) name f =
  (* Captured once: if sampling is toggled mid-span the pop below must
     mirror whatever the push did. *)
  let sampled = Atomic.get Prof.flag in
  match Atomic.get Trace.current with
  | Null when not sampled -> f ()
  | sink ->
    let depth = Domain.DLS.get span_depth_key in
    let d = !depth in
    depth := d + 1;
    if sampled then Prof.push name;
    let domain = (Domain.self () :> int) in
    let t0 = now_ns () in
    let event phase ts_ns dur_ns =
      { Trace.phase; name; domain; depth = d; ts_ns; dur_ns; attrs }
    in
    (match sink with
    | Jsonl oc -> emit_line oc (Trace.jsonl_of_event (event `Begin t0 0))
    | Custom cb -> emit_custom cb (event `Begin t0 0)
    | Null -> ());
    let finish () =
      let dur = now_ns () - t0 in
      depth := d;
      if sampled then Prof.pop ();
      match sink with
      | Jsonl oc ->
        emit_line oc (Trace.jsonl_of_event (event `End (now_ns ()) dur))
      | Custom cb -> emit_custom cb (event `End (now_ns ()) dur)
      | Null -> ()
    in
    Fun.protect ~finally:finish f

module Progress = struct
  let flag = Atomic.make false
  let set_enabled b = Atomic.set flag b
  let enabled () = Atomic.get flag

  (* [Plain] (the default) appends one newline-terminated line per
     report — safe for pipes, log files and grep.  [Ansi] rewrites a
     single status line in place with CR + erase-line; the CLIs select
     it only when stderr is a tty and NO_COLOR is unset, so campaign
     logs stay line-oriented. *)
  type style = Plain | Ansi

  let style_slot = Atomic.make Plain
  let set_style s = Atomic.set style_slot s
  let style () = Atomic.get style_slot

  let styled_line ~style line =
    match style with
    | Plain -> line ^ "\n"
    | Ansi -> "\r\x1b[2K" ^ line

  type t = {
    label : string;
    total : int option;
    interval_ns : int;
    start : int;
    mutable count : int;
    mutable last_emit : int;
  }

  let create ?total ?(interval_ns = 500_000_000) ~label () =
    let now = now_ns () in
    { label; total; interval_ns; start = now; count = 0; last_emit = now }

  (* Pure so the formatting (and the ETA arithmetic) is unit-testable:
     ETA = elapsed scaled by the work remaining, shown only while the
     rate is measurable and work remains. *)
  let render ~label ~count ~total ~elapsed_ns =
    match total with
    | None -> Printf.sprintf "[%s] %d" label count
    | Some total ->
      let base =
        Printf.sprintf "[%s] %d/%d (%.1f%%)" label count total
          (100. *. float_of_int count /. float_of_int (max 1 total))
      in
      if count > 0 && count < total && elapsed_ns > 0 then begin
        let eta =
          float_of_int elapsed_ns
          *. float_of_int (total - count)
          /. float_of_int count /. 1e9
        in
        if eta < 10. then Printf.sprintf "%s ~%.1fs" base eta
        else Printf.sprintf "%s ~%.0fs" base eta
      end
      else base

  let emit t =
    let line =
      render ~label:t.label ~count:t.count ~total:t.total
        ~elapsed_ns:(now_ns () - t.start)
    in
    Mutex.lock Trace.emit_lock;
    output_string stderr (styled_line ~style:(style ()) line);
    flush stderr;
    Mutex.unlock Trace.emit_lock

  let step ?(delta = 1) t =
    if Atomic.get flag then begin
      t.count <- t.count + delta;
      let now = now_ns () in
      if now - t.last_emit >= t.interval_ns then begin
        t.last_emit <- now;
        emit t
      end
    end

  let finish t =
    if Atomic.get flag then begin
      emit t;
      (* The in-place Ansi status line needs a final newline so whatever
         prints next starts on a fresh line. *)
      if style () = Ansi then begin
        Mutex.lock Trace.emit_lock;
        output_string stderr "\n";
        flush stderr;
        Mutex.unlock Trace.emit_lock
      end
    end
end
