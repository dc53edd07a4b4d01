(** Gzip-style single-stream container and a multi-entry archive over
    {!Deflate}.

    The framing mirrors gzip/zip structure — magic, method id, CRC-32 of
    the plaintext, size fields, per-entry directory — around raw RFC 1951
    bodies; [Stream]'s method byte 0x08 is ZIP's number for DEFLATE.  The
    framing itself is this library's own, so neither container claims
    interoperability; the integrity and API semantics are the point. *)

exception Corrupt of string
(** Raised by the decoders on malformed framing or checksum mismatch. *)

(** Single compressed stream with integrity checking, gzip-style. *)
module Stream : sig
  val pack : bytes -> bytes
  (** Header (magic, method), deflate body, CRC-32 + length trailer. *)

  val unpack : bytes -> bytes
  (** @raise Corrupt on bad magic, truncation or checksum mismatch. *)

  val unpack_result : bytes -> (bytes, Codec_error.t) result
  (** Safe decoder: every malformation {!unpack} reports via {!Corrupt}
      is an [Error]; no exception escapes. *)
end

(** Multi-entry archive, zip-style: named entries, per-entry CRC, central
    directory at the end. *)
module Archive : sig
  type entry = { name : string; data : bytes }

  val pack : ?jobs:int -> entry list -> bytes
  (** [jobs] (default 1) compresses member bodies on that many domains;
      the archive bytes are identical for every value.
      @raise Invalid_argument on duplicate or oversized (>65535 byte)
      names. *)

  val unpack : bytes -> entry list
  (** Entries in original order.  @raise Corrupt on framing or checksum
      errors (including a directory entry count larger than the archive
      could possibly hold). *)

  val unpack_result : bytes -> (entry list, Codec_error.t) result
  (** Safe decoder: every malformation {!unpack} reports via {!Corrupt}
      is an [Error]; no exception escapes. *)

  val names : bytes -> string list
  (** Read just the central directory. *)

  val extract : bytes -> string -> bytes
  (** One entry by name.  @raise Not_found if absent; @raise Corrupt on
      damage. *)
end
