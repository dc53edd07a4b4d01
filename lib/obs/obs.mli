(** Process-wide observability: metrics, span tracing, progress lines.

    Every hot layer of the reproduction (compression kernels, the taint
    engine, the cache/SGX model, recovery, the classifier) reports into
    this module.  The design constraint is the same one the kernels live
    under: telemetry must never change an experiment's output.  All
    reporting is therefore {e side-band} — nothing is printed to the
    experiment formatters — and near-free when disabled: every entry
    point is one atomic load and a predictable branch.

    Domain-safety: counters and histograms are sharded per domain (shard
    index = the domain's {!Slot}, each shard an [Atomic.t]) and merged
    on read, so instrumented code running under
    {!Zipchannel_parallel.Pool} needs no locks and [?jobs] stays
    byte-identical. *)

val enabled : unit -> bool
(** Are metrics being recorded?  Guards any instrumentation whose
    {e argument computation} is itself costly (e.g. walking a token list
    to fill a histogram). *)

val set_enabled : bool -> unit
(** Turn metric recording on or off (default: off). *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds (CLOCK_MONOTONIC via the bechamel
    stub).  Only meaningful as a difference. *)

module Slot : sig
  (** Dense per-domain slot ids: the one sharding primitive behind the
      metric shards and the {!Prof} path slots.

      A domain takes the lowest free of {!count} slots the first time it
      asks (one CAS on a bitmask, at DLS initialisation) and frees it in
      [Domain.at_exit], so no two live domains share a slot while at
      most {!count} of them hold one, however large their ids grow.

      While all {!count} slots are held, a further domain falls back to [domain id mod count] and shares that slot for its
      lifetime.  Metric adds stay exact (each shard is an atomic), but
      its published span path can overwrite the owner's, so the sampler
      may misattribute samples. *)

  val count : int
  (** 16. *)

  val get : unit -> int
  (** The calling domain's slot, [0 <= get () < count]. *)
end

val json_escape : string -> string
(** Escape a string's content for embedding between JSON double quotes:
    a double quote or backslash gets a backslash, newline becomes
    [\\n] and every other control character [\\u00XX]. *)

module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  (** Register (or fetch) the counter named [name].  Call at module
      initialisation and keep the handle; registration takes a lock. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  (** No-ops while {!enabled} is false. *)

  val counter_value : counter -> int
  (** Sum over all domain shards. *)

  val gauge : string -> gauge

  val set_gauge : gauge -> float -> unit
  (** Last write wins (across domains, in no particular order).  No-op
      while disabled. *)

  val gauge_value : gauge -> float

  val histogram : string -> histogram

  val observe : histogram -> int -> unit
  (** Record a sample into its log2 bucket (bucket [b] holds values [v]
      with [2^(b-1) <= v < 2^b]; bucket 0 holds [v <= 0]).  No-op while
      disabled. *)

  type histogram_snapshot = {
    count : int;
    sum : int;
    buckets : (int * int) list;  (** (log2 bucket, count), sparse, sorted *)
  }

  type snapshot = {
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * histogram_snapshot) list;
  }
  (** All lists sorted by metric name, zero-valued entries dropped —
      a deterministic function of the recorded values. *)

  val snapshot : unit -> snapshot

  val reset : unit -> unit
  (** Zero every registered metric (handles stay valid). *)

  val delta : before:snapshot -> after:snapshot -> snapshot
  (** Counter/histogram growth between two snapshots; gauges keep their
      [after] value and are dropped when unchanged.  "Unchanged" compares
      with {!Float.compare}: a gauge rewritten to the value it already had
      between the snapshots — including NaN — does not appear. *)

  val is_empty : snapshot -> bool

  val bucket_midpoint : int -> float
  (** Midpoint estimate for a log2 bucket's value range: 1 for bucket 0
      (which holds v <= 1), [1.5 *. 2.^(b-1)] for bucket [b >= 1]
      (which holds [2^(b-1) < v <= 2^b]). *)

  val approx_quantile : histogram_snapshot -> float -> float
  (** [approx_quantile hs q] estimates the [q]-quantile ([0. <= q <= 1.])
      of the recorded samples as the midpoint of the log2 bucket holding
      that rank (bucket 0 estimates 1, bucket [b >= 1] estimates
      [1.5 *. 2.^(b-1)]).  0 for an empty histogram. *)

  val pp_snapshot : Format.formatter -> snapshot -> unit
  (** Human-readable [name value] table; histogram rows include
      approximate p50/p95 ({!approx_quantile} midpoint estimates). *)

  val snapshot_to_json : snapshot -> string
  (** One JSON object: [{"counters": {...}, "gauges": {...},
      "histograms": {name: {"count": .., "sum": .., "buckets": {..}}}}]. *)

  val flat_pairs : snapshot -> (string * float) list
  (** Snapshot flattened to numeric pairs (histograms become
      [name.count]/[name.sum]), for embedding in bench JSON. *)
end

module Prof : sig
  (** Publication plane for the side-band sampling profiler
      ({!Zipchannel_obs_prof.Obs_prof}).  When publishing is on,
      {!with_span} additionally writes the current span {e path}
      ("outer;inner") into this domain's atomic slot on every span
      push/pop — one [Atomic.set] per transition, no locks — so a ticker
      thread can sample all slots at any rate without perturbing the
      instrumented code.  With publishing off the cost added to
      {!with_span} is one atomic load. *)

  val set_publishing : bool -> unit
  (** Turn slot publication on or off (default: off).  Turning it off
      clears every slot. *)

  val publishing : unit -> bool

  val current_paths : unit -> string array
  (** One entry per {!Slot}: the ";"-joined span path last published by
      the domain holding it, or [""] when that domain is outside any
      span.  This is what the sampler reads each tick. *)

  val current_path : unit -> string
  (** The calling domain's own slot (tests and single-domain callers). *)
end

module Trace : sig
  type span_event = {
    phase : [ `Begin | `End ];
    name : string;
    domain : int;  (** emitting domain's id *)
    depth : int;  (** per-domain nesting depth of this span *)
    ts_ns : int;  (** monotonic timestamp of the event *)
    dur_ns : int;  (** span duration; 0 on [`Begin] events *)
    attrs : (string * string) list;
  }
  (** One span begin/end event, as delivered to a [Custom] sink — the
      in-memory form of one JSONL trace line. *)

  type sink =
    | Null  (** discard spans (the default) *)
    | Jsonl of out_channel  (** one JSON object per span begin/end event *)
    | Custom of (span_event -> unit)
        (** deliver each event to a callback (serialised under the
            emission lock, so collecting sinks need no locking of their
            own; the callback must not call {!with_span}).  In-process
            consumers — tests and the benchsuite's traced window — read
            spans this way; every file format is converted offline from
            the JSONL stream ([zc obs]). *)

  val set_sink : sink -> unit
  val sink : unit -> sink

  val jsonl_of_event : span_event -> string
  (** The exact JSONL line the [Jsonl] sink writes for this event (no
      trailing newline). *)
end

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and, when a sink is active, emits a
    begin and an end event carrying the monotonic timestamp, duration,
    domain id and per-domain nesting depth.  Spans nest strictly within
    a domain (the end event is emitted even when [f] raises); spans of
    different domains interleave in the JSONL stream and are
    distinguished by their [domain] field.  With the [Null] sink the
    cost is one atomic load. *)

module Progress : sig
  (** Rate-limited one-line progress reports on stderr, for long attacks
      and experiment sweeps ([--progress]).  Disabled by default; every
      [step] is one atomic load when off. *)

  val set_enabled : bool -> unit
  val enabled : unit -> bool

  type style =
    | Plain  (** one full line per report — greppable logs, [NO_COLOR],
                 non-tty stderr *)
    | Ansi  (** carriage-return + erase-line rewriting of a single
                status line (interactive terminals) *)

  val set_style : style -> unit
  (** Default: [Plain].  CLIs should select [Ansi] only when stderr is a
      tty and [NO_COLOR] is unset. *)

  val style : unit -> style

  val styled_line : style:style -> string -> string
  (** The exact bytes written for one progress report of [line] under
      [style] (exposed for tests): [Plain] appends a newline, [Ansi]
      prefixes ["\r\x1b[2K"] with no newline. *)

  type t

  val create : ?total:int -> ?interval_ns:int -> label:string -> unit -> t
  (** [interval_ns] is the minimum gap between printed lines (default
      500 ms; 0 prints every step).  A [t] is single-domain.  When
      [total] is known, printed lines carry an ETA extrapolated from the
      monotonic clock: [[label] k/total (xx.x%) ~12s]. *)

  val render :
    label:string -> count:int -> total:int option -> elapsed_ns:int -> string
  (** The line {!step}/{!finish} print, as a pure function of the
      progress state (exposed for tests).  The ETA suffix appears only
      when [total] is known, [0 < count < total], and [elapsed_ns > 0];
      it is printed with one decimal under 10 s and as whole seconds
      above. *)

  val step : ?delta:int -> t -> unit

  val finish : t -> unit
  (** Print the final count unconditionally (when enabled). *)
end
