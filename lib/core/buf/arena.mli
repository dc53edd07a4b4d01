(** Reusable scratch buffers for the block pipelines.

    A table of numbered slots, each holding one monotonically-growing
    buffer: asking for "slot [k], at least [n] elements" returns the
    same buffer on every block, reallocated (to the next power of two)
    only when a block outgrows it.  Contents beyond what the caller
    last wrote are stale — consumers must carry explicit lengths.

    Ownership rules: an arena has exactly one user at a time; a stage
    may hold several slots of the same arena simultaneously but two
    concurrent pipelines must use two arenas.  {!with_arena} enforces
    this per domain, so code running under the [lib/parallel] pool gets
    one arena per worker and reuses it across the blocks it claims.

    Retention is bounded by a constant, not by the largest input seen:
    a slot never keeps a buffer above 2 MiB (256K ints) — a larger
    request gets a fresh buffer that the arena does not keep — and a
    domain's free list keeps at most 4 arenas. *)

type t

val create : unit -> t

val bytes : t -> slot:int -> int -> bytes
(** [bytes t ~slot n] is slot [slot]'s byte buffer, grown to at least
    [n] bytes.  The suffix past the caller's own writes is garbage. *)

val ints : t -> slot:int -> int -> int array

val big : t -> slot:int -> int -> Bigstring.t

val footprint : t -> int
(** Bytes held by [t]'s slots. *)

val with_arena : (t -> 'a) -> 'a
(** Run [f] with a per-domain arena taken from a domain-local free
    list, returning it afterwards (also on exceptions).  Nested calls
    get distinct arenas; distinct domains never share one. *)
