(** Burrows–Wheeler transform over cyclic rotations.

    [transform] sorts all cyclic rotations of the input lexicographically
    and returns the last column together with the row index of the
    original string — exactly the object Bzip2's block sort computes.
    The built-in sorter uses prefix doubling (O(n log² n), no pathological
    inputs); Bzip2's budgeted [main_sort]/[fallback_sort] live in
    {!Block_sort} and can be injected through [transform_with]. *)

val sort_rotations : bytes -> int array
(** Permutation [p] such that rotation starting at [p.(k)] is the k-th
    smallest; ties between identical rotations are broken by start index.
    Comparison-free (counting-sort prefix doubling), so it has no work
    count: the production sorter behind [Bzip2.compress]. *)

val sort_rotations_sub :
  ?arena:Zipchannel_buf.Arena.t -> bytes -> off:int -> len:int -> int array
(** {!sort_rotations} of [Bytes.sub block off len] without materializing
    the slice.  With [arena], scratch tables and the returned permutation
    live in the arena's int slots 0 and 3..6: the permutation is slot 3
    or 5 (the two swap roles every doubling round), its physical length
    may exceed [len] (only the first [len] entries are meaningful) and it
    is overwritten by the next sort using the same arena.
    @raise Invalid_argument if the slice is not inside [block], or is
    2^31 bytes or longer, whose ranks do not pack. *)

val sort_rotations_work : bytes -> int array * int
(** Also returns the number of rank comparisons performed — a
    data-dependent run-time measure (repetitive input refines for more
    rounds), which is precisely the side channel Section VI's
    fingerprinting attack observes.  The count is bit-identical to the
    original tuple-keyed implementation, which the test suite keeps as
    its oracle: the fast path packs each rank pair into one int, so the
    sort runs the same comparison sequence without boxing.
    @raise Invalid_argument on blocks of 2^31 bytes or more, whose ranks
    do not pack. *)

val sort_rotations_work_sub :
  ?arena:Zipchannel_buf.Arena.t -> bytes -> off:int -> len:int -> int array * int
(** {!sort_rotations_work} of [Bytes.sub block off len] without
    materializing the slice.  With [arena], every scratch array — and
    the returned permutation — lives in the arena's slots: the
    permutation's physical length may exceed [len] (only the first [len]
    entries are meaningful) and it is overwritten by the next sort using
    the same arena.  Permutation entries and work count are identical to
    the whole-buffer entry points.
    @raise Invalid_argument if [len >= 2^31]. *)

val transform_with : perm:int array -> bytes -> bytes * int
(** Last column and primary index from a precomputed rotation order.
    @raise Invalid_argument if [perm] is not a permutation of the right
    length. *)

val transform : bytes -> bytes * int

val transform_with_sub :
  ?arena:Zipchannel_buf.Arena.t ->
  perm:int array ->
  bytes ->
  off:int ->
  len:int ->
  bytes * int
(** Pipeline-internal {!transform_with} over [Bytes.sub block off len].
    [perm] must order the slice's rotations (physical length >= [len];
    it is trusted, not re-validated — pass only permutations produced by
    the sorts above).  With [arena] the returned last column is the
    arena's bytes slot: logical length [len], physical possibly longer,
    overwritten by the next transform using the same arena. *)

val inverse : bytes -> int -> bytes
(** [inverse last_column primary_index] recovers the original string.
    @raise Invalid_argument if the index is out of range. *)
