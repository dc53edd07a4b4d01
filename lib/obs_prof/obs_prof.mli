(** Side-band sampling wall-clock profiler and runtime telemetry plane.

    A ticker thread reads the per-domain span-path slots published by
    {!Obs.Prof} at a fixed interval (~1 kHz by default) and accumulates
    folded-stack sample counts, so flamegraph-shaped data is available
    with span tracing {e off}.  The instrumented code pays one atomic
    store per span push/pop and is never interrupted, locked, or
    signalled: compressed output stays byte-identical with the sampler
    on or off at any [--jobs].

    The same ticker derives a runtime telemetry plane from
    [Gc.quick_stat] deltas — minor/major collections, promoted words,
    heap size, allocation rate — published as [runtime.*] gauges and
    counters through {!Obs.Metrics} (and therefore visible on a serve
    daemon's [/metrics] endpoints); those metrics are the plane's only
    copy.

    Sampled span self-time shares are additionally published as
    [prof.samples] / [prof.self.<leaf-span>] counters. *)

val start : ?interval_us:int -> unit -> unit
(** Start the ticker thread (default interval 1000 µs ≈ 1 kHz) and turn
    on {!Obs.Prof} slot publication.  Idempotent while running. *)

val stop : unit -> unit
(** Stop and join the ticker, turn slot publication off.  Accumulated
    state is kept until {!reset} so a report can be taken after. *)

val running : unit -> bool

val reset : unit -> unit
(** Zero all accumulated samples and restart the runtime delta window
    (keeps the ticker running if it is). *)

val sample_once : unit -> unit
(** Take exactly one sample of all slots plus a runtime delta, as the
    ticker would — deterministic hook for tests and for profiling
    single-shot code without a thread. Usable with the ticker stopped. *)

type report = {
  ticks : int;  (** sampler wakeups *)
  total_samples : int;  (** non-idle slot observations (≤ ticks × slots) *)
  folded : (string * int) list;
      (** folded stacks, ["domain-<slot>;outer;inner" -> samples],
          sorted by count descending — flamegraph input *)
  self : (string * int * int) list;
      (** per span name: (name, self samples, total samples), self
          descending.  Self counts ticks where the span was the leaf;
          total counts ticks where it was anywhere on the path. *)
}

val report : unit -> report

val folded_lines : ?prefix:string -> report -> string
(** The folded-stack text form ([key count] lines, one per stack),
    optionally prefixing every key with [prefix ^ ";"] — feedable to
    standard flamegraph tooling and to the bench [--folded] artifact. *)
