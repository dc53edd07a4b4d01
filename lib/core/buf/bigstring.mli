(** Off-heap char buffers with unaligned word access.

    The zero-copy substrate under the compression kernels: a plain char
    [Bigarray.Array1] plus the compiler's bigstring primitives for
    unaligned 8/16/32/64-bit loads and stores.  All word helpers are
    native-endian and the library refuses to load on big-endian
    targets, so "low byte" always means "first byte in memory". *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Uninitialised buffer of the given length (contents arbitrary). *)

val length : t -> int

val get : t -> int -> char
(** Bounds-checked byte access. *)

val set : t -> int -> char -> unit

external unsafe_get : t -> int -> char = "%caml_ba_unsafe_ref_1"
(** Unchecked byte access: the caller owns the bounds proof. *)

external unsafe_set : t -> int -> char -> unit = "%caml_ba_unsafe_set_1"

external get16u : t -> int -> int = "%caml_bigstring_get16u"
(** Unaligned, unchecked 16-bit little-endian load. *)

external get32u : t -> int -> int32 = "%caml_bigstring_get32u"

external get64u : t -> int -> int64 = "%caml_bigstring_get64u"

external set16u : t -> int -> int -> unit = "%caml_bigstring_set16u"

external set32u : t -> int -> int32 -> unit = "%caml_bigstring_set32u"

external set64u : t -> int -> int64 -> unit = "%caml_bigstring_set64u"

external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
(** Unaligned, unchecked 64-bit load from [bytes] — the same primitive
    family, for readers that stay zero-copy over caller-owned buffers. *)

external bytes_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

external bswap64 : int64 -> int64 = "%bswap_int64"
(** The word's bytes in reverse order: a 64-bit load read as
    big-endian, first byte in memory most significant, for the
    MSB-first bit readers. *)

val blit_of_bytes : bytes -> src_off:int -> t -> dst_off:int -> len:int -> unit
(** Word-at-a-time copy from [bytes]; bounds-checked once up front. *)

val blit_to_bytes : t -> src_off:int -> bytes -> dst_off:int -> len:int -> unit

val blit : t -> src_off:int -> t -> dst_off:int -> len:int -> unit

val of_bytes : bytes -> t

val to_bytes : t -> off:int -> len:int -> bytes

val common_prefix : t -> int -> int -> limit:int -> int
(** [common_prefix t i j ~limit] is the length of the longest common
    prefix of the regions starting at [i] and [j], capped at [limit] —
    the memcmp-style 64-bit word-at-a-time comparison under the LZ77
    match extender.  Both regions must have [limit] bytes in bounds. *)
