(** Move-to-front transform over the byte alphabet.

    The stage between BWT and the zero-run encoder in the Bzip2 pipeline:
    each byte is replaced by its current position in a recency list, and
    the byte moves to the front. *)

val encode : bytes -> int array
(** Output values are in 0..255. *)

val encode_sub :
  ?arena:Zipchannel_buf.Arena.t -> bytes -> off:int -> len:int -> int array
(** {!encode} of [Bytes.sub input off len] without materializing the
    slice.  With [arena] the result is the arena's int slot 7: logical
    length [len], physical possibly longer, overwritten by the next
    encode using the same arena.
    @raise Invalid_argument if the slice is not inside [input]. *)

val decode_result : int array -> (bytes, Codec_error.t) result
(** Safe decoder: a symbol outside 0..255 is an [Error] whose offset is
    the index of the offending symbol. *)

val decode : int array -> bytes
(** @raise Invalid_argument on values outside 0..255. *)
