(** A minimal JSON reader/writer — just enough for the telemetry formats
    this library consumes and produces (metric snapshots, JSONL span
    streams, BENCH files, threshold tables), with zero dependencies.

    Numbers are floats, as in JSON itself; object member order is
    preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse}/{!parse_many} with a message naming the offset. *)

val parse : string -> t
(** Parse exactly one JSON value (trailing whitespace allowed). *)

val parse_many : string -> t list
(** Parse a whitespace-separated stream of JSON values — e.g. a JSONL
    file, without requiring one value per line. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object member lookup; [None] on missing members and non-objects. *)

val to_num : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_arr : t -> t list option
val to_obj : t -> (string * t) list option

(** {1 Writing} *)

val quote : string -> string
(** [quote s] is [s] escaped ({!Zipchannel_obs.Obs.json_escape}) and
    wrapped in double quotes. *)

val to_string : t -> string
(** Compact serialization.  Integral numbers below 1e15 print without a
    fractional part; other numbers print with round-trip precision.
    Non-finite numbers (unrepresentable in JSON) print as [0]. *)
