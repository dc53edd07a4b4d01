(** Leak audit plane: per-frame leakage telemetry for the streaming
    compressors.

    The frame layer makes per-frame compressed lengths visible on the
    wire — exactly the observable a CRIME/BREACH-style adversary uses.
    {!Zipchannel_obs.Obs} measures {e performance};
    this module measures {e leakage}: one structured {!record} per
    emitted frame (lengths, length delta against a per-stream rolling
    baseline, encode wall time, trailer markers), written once, as one
    line, to a JSONL sink, with online estimators quantifying — live,
    in bits per frame — how much the length side channel gives away.

    The sink is the plane's only switch: with no sink set nothing is
    recorded.  Like Obs, the plane is strictly side-band: compressed
    output is byte-identical with auditing on or off, at any [jobs],
    and a stream pays one atomic load to learn that auditing is off. *)

val enabled : unit -> bool
(** Is a sink set?  Orthogonal to [Obs.set_enabled]: the [leak.*] Obs
    metrics the plane feeds are additionally gated on Obs being
    enabled, records are not. *)

val set_sink : out_channel option -> unit
(** [set_sink (Some oc)] turns auditing on: every record is written to
    [oc] as one JSON line and flushed.  [set_sink None] (the default)
    turns it off.  Frame streams decide when they start, so a stream
    that began with no sink stays unaudited. *)

(** {1 Audit records} *)

type tag = Data | Trailer

val tag_name : tag -> string
(** ["data"], ["trailer"]. *)

type record = {
  stream : int;  (** process-unique stream id, from {!Stream.create} *)
  seq : int;  (** frame index within the stream *)
  tag : tag;
  codec : string;
  ulen : int;  (** plaintext bytes in this frame *)
  clen : int;  (** compressed payload bytes — the on-wire observable *)
  delta : int;
      (** [clen] minus the stream's rolling baseline (an EWMA over the
          preceding data frames' [clen]); 0 on the first data frame *)
  bucket : int;
      (** attacker-controlled-prefix bucket of the stream ({!prefix_bucket}
          of its first plaintext bytes, or a caller-supplied key); [-1]
          when not yet known *)
  enc_ns : int;  (** wall time of this frame's compress call *)
  ts_ns : int;  (** monotonic timestamp at record creation *)
}

val jsonl_of_record : record -> string
(** One JSON object, [{"t": "frame", ...}], no trailing newline. *)

val prefix_bucket : ?n:int -> bytes -> len:int -> int
(** FNV-1a hash of the first [min 16 len] bytes, folded into [n]
    buckets (default {!n_prefix_buckets}).  This is the default
    per-stream key for the conditional estimators: two streams whose
    attacker-controlled prefixes differ land in different buckets with
    high probability. *)

val n_prefix_buckets : int
(** 64. *)

(** {1 Per-stream tracking} *)

(** One audited frame stream: owns the rolling [clen] baseline and the
    prefix bucket.  Created by {!Zipchannel_compress.Frame} once per
    stream while a sink is set. *)
module Stream : sig
  type t

  val create : ?bucket:int -> codec:string -> unit -> t
  (** [bucket] pre-keys the stream (e.g. the chunk oracle's candidate
      index); without it the first {!note_prefix} decides. *)

  val id : t -> int

  val note_prefix : t -> bytes -> len:int -> unit
  (** Derive the stream's bucket from its first plaintext bytes via
      {!prefix_bucket}, if no bucket is set yet.  No-op afterwards. *)

  val bucket : t -> int

  val on_frame : t -> seq:int -> tag:tag -> ulen:int -> clen:int -> enc_ns:int -> unit
  (** Record one emitted frame: computes the baseline delta, writes
      the record to the sink, feeds the [leak.audit.*] Obs metrics and
      the global estimator.  Callers must deliver
      frames of one stream in sequence order (the frame pipeline's
      in-order [consume] guarantees this even with reordering
      workers). *)
end

(** {1 Online estimators} *)

(** Conditional length-delta histograms keyed by an
    attacker-controlled-prefix bucket, with an incremental mutual-
    information / channel-capacity estimate in bits per frame.

    The model: each observation is one frame; the input symbol is the
    bucket (what the attacker chose), the output symbol is the observed
    length delta (binned, clamped to [±delta_range]).  The conditional
    histograms are the per-bucket delta distributions; mutual
    information uses the empirical input prior, and {!capacity_bits}
    maximises over input priors with Blahut–Arimoto — an estimate of
    the best rate, in bits per observed frame, an adversary could
    extract from this length channel. *)
module Estimator : sig
  type t

  val create : ?buckets:int -> ?delta_range:int -> unit -> t
  (** [buckets] input symbols (default {!n_prefix_buckets}); deltas are
      binned into [2 * delta_range + 1] bins (default range 32),
      clamping outliers into the end bins.  Thread-safe. *)

  val observe : t -> bucket:int -> delta:int -> unit

  val observations : t -> int

  val cond_histogram : t -> bucket:int -> (int * int) list
  (** [(delta_bin_value, count)] pairs with non-zero count, sorted by
      delta; bin values are clamped deltas. *)

  val delta_entropy_bits : t -> float
  (** Entropy of the marginal delta distribution. *)

  val mutual_information_bits : t -> float
  (** Plug-in I(bucket; delta) under the empirical bucket prior. *)

  val capacity_bits : t -> float
  (** Channel capacity of the empirical conditional distributions
      (Blahut–Arimoto, 60 iterations): bits per frame.  0 with fewer
      than two observed buckets. *)

  val clear : t -> unit
end

val global_estimator : Estimator.t
(** Fed by {!Stream.on_frame} for every data frame of a bucketed
    stream.  Its capacity estimate is republished to the
    [leak.capacity_bits_per_frame] / [leak.delta_entropy_bits] gauges
    every few frames, so a live scrape of a `zc serve --audit` daemon
    sees the channel-capacity estimate move as requests arrive. *)

val publish_estimate : unit -> unit
(** Recompute {!global_estimator}'s capacity and entropy and set the
    gauges now (also done automatically every few frames). *)

(** {1 Request-level telemetry (the daemon)} *)

type request_record = {
  conn : int;  (** connection ordinal *)
  op : string;  (** ["compress"] / ["decompress"] *)
  req_codec : string;
  frame_size : int;
  req_bytes : int;
  resp_bytes : int;
  frames : int;  (** audited frames this request emitted *)
  req_bucket : int;  (** prefix bucket of the request payload *)
  wall_ns : int;
  ts_ns : int;  (** monotonic timestamp at request completion *)
  status : string;  (** ["ok"] or a short error class *)
}

val jsonl_of_request : request_record -> string
(** One JSON object, [{"t": "request", ...}], no trailing newline. *)

val record_request : request_record -> unit
(** Write the record to the sink and feed the [leak.request*] Obs
    metrics.  No-op while no sink is set. *)
