(** The process-wide pool of worker domains and {!run}, the one
    scheduling primitive: {!map_array}, {!map_list} and
    {!Pipeline.run} are all built on it.

    [jobs] counts the calling domain, which always works too, and every
    entry point clamps it once with {!clamp}; [jobs <= 1] after the
    clamp runs entirely in the calling domain with no pool involvement,
    so sequential results (and any observable evaluation order) are
    exactly those of a plain [map].  Workers are spawned lazily — none
    until a call asks for [jobs > 1], never more than
    [available_jobs () - 1] — and then stay parked between calls, so
    back-to-back calls spawn no domain and a worker's domain-local state
    (its [Arena]s) survives from one call to the next.  Every parked
    domain still joins each collection's stop-the-world rendezvous, so
    spawning is lazy and a worker retires once no parallel call has
    posted or run work for two major cycles.  The window is counted in
    collections, not time: parallel calls spaced further apart than
    that spawn their workers again, as every call did before the pool
    persisted.  Parked workers never keep the process from exiting,
    but while one exists [Unix.fork] refuses to run
    ([Unix.create_process] still works).

    A caller claims its own call's items alongside the helpers and
    never waits on help it does not get, so calls nested in a worker's
    item or issued from concurrent systhreads cannot deadlock.

    The worker function must be safe to run concurrently with itself:
    no unsynchronized writes to shared mutable state.  The compression
    kernels used through this pool only read their input block and write
    their own output buffers. *)

val available_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the ceiling of {!clamp}. *)

val normalize_jobs : int -> (int, string) result
(** Validate a user-supplied job count: negative values are an [Error]
    with a usable message, [0] means "auto" and resolves to
    {!available_jobs}, anything else passes through.  The CLI routes
    its [--jobs] flags here so the policy stays in one place. *)

val clamp : int -> int
(** [clamp jobs] is [jobs] bounded to [1 .. available_jobs ()]: domains
    beyond the machine's cores only add scheduling and stop-the-world
    rendezvous.  The clamp never changes a result, only wall time. *)

val capacity : jobs:int -> ?capacity:int -> unit -> int
(** The window {!run} uses: 1 when [clamp jobs = 1], else [capacity]
    (default [2 * jobs]) clamped to at least [jobs + 1], so the caller
    can size a ring of reusable buffers to match. *)

val run :
  jobs:int ->
  ?capacity:int ->
  produce:(seq:int -> 'a option) ->
  work:('a -> 'b) ->
  consume:(seq:int -> 'b -> unit) ->
  unit ->
  unit
(** [run ~jobs ~produce ~work ~consume ()] drives a three-stage
    pipeline: the calling domain alternates between pulling items from
    [produce] and handing finished results to [consume], and [work] runs
    on up to [clamp jobs] domains — the caller, which runs any unclaimed
    item while it waits for the next result, and pool workers.  At most
    {!capacity} items are in flight at once (backpressure: production
    stops until the consumer drains), and [consume] sees results
    strictly in production order — so for pure [work] the observable
    output is byte-identical to the [jobs = 1] run, where everything
    happens sequentially in the calling domain.

    [produce ~seq] is called with consecutive sequence numbers starting
    at 0 and returns [None] at end of stream (after which it is never
    called again).  The sequence number lets a producer address a ring
    of [capacity] reusable buffers: slot [seq mod capacity] is
    guaranteed free, because the window invariant keeps sequence
    [seq - capacity] consumed before [seq] is produced.

    [work] must be safe to run concurrently with itself, [produce] and
    [consume]; [produce] and [consume] only ever run in the calling
    domain and may share state with each other freely.

    If any stage raises, the run drains (no further [work] or [consume]
    calls on other items), waits until no [work] call is running, and
    re-raises the first failure in the caller. *)

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map: a {!run} whose window holds every
    item.  If any application raises, the remaining items are skipped
    and the first failure is re-raised in the caller once no item is
    running. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_array] over a list, preserving order. *)
