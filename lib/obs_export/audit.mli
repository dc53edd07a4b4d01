(** Reader and OTLP mapper for leak-audit JSONL files — the [--audit]
    output of [zc serve] and whatever else
    {!Zipchannel_obs_leak.Leak_audit.set_sink} was given.

    An audit file is a JSONL stream of two record shapes, distinguished
    by the ["t"] member: [{"t": "frame", ...}] per emitted frame and
    [{"t": "request", ...}] per daemon request.  Both map onto the span
    shapes the rest of the exporter stack already speaks: a frame
    becomes a span named [frame.data]/[frame.trailer]
    whose duration is its encode wall time and whose domain is its
    stream id; a request becomes a [serve.request] span over its wall
    time on domain [conn].  Lengths, deltas and buckets ride along as
    span attributes, so [zc obs profile] and the OTLP trace exporter
    work on audit files unchanged. *)

type t =
  | Frame of Zipchannel_obs_leak.Leak_audit.record
  | Request of Zipchannel_obs_leak.Leak_audit.request_record

val is_audit_record : Json.t -> bool
(** Does this value look like an audit record (an object whose ["t"]
    member is ["frame"] or ["request"])?  Used to tell audit files from
    span streams and metric snapshots. *)

val of_json : Json.t -> t
(** @raise Failure on values that are not audit records. *)

val of_string : string -> t list
(** Parse a whole audit JSONL stream, in order.
    @raise Json.Parse_error @raise Failure *)

val read_file : string -> t list

val span_events : t list -> Zipchannel_obs.Obs.Trace.span_event list
(** Begin/end event pairs per record, grouped by stream (frames, in
    sequence order) then by connection (requests). *)

val trace_request : t list -> Json.t
(** {!Otlp.trace_request} of {!span_events}: the audit plane as an OTLP
    [ExportTraceServiceRequest]. *)
