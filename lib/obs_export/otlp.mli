(** OTLP/JSON exporters: metric snapshots become an
    [ExportMetricsServiceRequest] (counters as monotonic cumulative sums,
    gauges as double gauges, log2 histograms as scale-0 exponential
    histograms), span streams become an [ExportTraceServiceRequest] with
    parent links reconstructed by per-domain stack replay.

    64-bit integers are emitted as strings and ids as lowercase hex, per
    the protocol's canonical JSON encoding.  All ids are deterministic
    functions of the input, so exports are byte-stable for golden
    testing. *)

val metrics_request :
  ?time_unix_nano:int -> Zipchannel_obs.Obs.Metrics.snapshot -> Json.t
(** [time_unix_nano] stamps every data point (default 0: the snapshots
    carry monotonic — not wall-clock — time, so callers that want real
    timestamps must supply one). *)

val trace_request : Zipchannel_obs.Obs.Trace.span_event list -> Json.t
(** Spans get ids from begin-event order ([%016x]); the trace id is an
    FNV-1a hash of the stream's names and timestamps. *)
