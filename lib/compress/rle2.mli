(** Bzip2's second-stage encoding: zero-run coding of MTF output.

    Runs of zeroes (the dominant MTF symbol after BWT) are written in
    bijective base 2 using the two symbols RUNA and RUNB; every other MTF
    symbol [s] is shifted to [s + 1].  The resulting alphabet is
    [0 .. 257] with 257 reserved for the end-of-block marker appended by
    {!encode}. *)

val runa : int
(** = 0 *)

val runb : int
(** = 1 *)

val eob : int
(** = 257, always the final symbol of {!encode}'s output. *)

val alphabet_size : int
(** = 258 *)

val encode : int array -> int array
(** MTF symbols (0..255) to the RLE2 alphabet, EOB-terminated. *)

val encode_sub :
  ?arena:Zipchannel_buf.Arena.t -> int array -> len:int -> int array * int
(** [encode_sub symbols ~len] is {!encode} of the prefix
    [symbols.(0 .. len - 1)], returned as [(buffer, n_syms)]: the first
    [n_syms] entries of [buffer] are the encoded stream.  With [arena]
    the buffer is the arena's int slot 8, overwritten by the next encode
    using the same arena. *)

val default_max_output : int
(** The default decoded-length cap: [max_int / 4], i.e. effectively
    unlimited while still leaving headroom so the run accumulator cannot
    overflow. *)

val decode_result :
  ?max_output:int -> ?len:int -> int array -> (int array, Codec_error.t) result
(** Safe inverse of {!encode} on the first [len] symbols (default: all
    of them); input must be EOB-terminated.
    [max_output] (default {!default_max_output}) bounds the decoded
    length: zero-run digits grow the pending run geometrically, so a few
    dozen adversarial symbols can demand 2^60 zeros — the cap rejects
    such streams before anything is materialised.  The [Error] offset is
    the index of the offending symbol. *)

val decode : ?max_output:int -> ?len:int -> int array -> int array
(** [Codec_error.unwrap] of {!decode_result}.
    @raise Failure on malformed input. *)
