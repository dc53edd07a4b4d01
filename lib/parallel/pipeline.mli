(** The frame codec's pipelined stage: {!Pool.run} plus two Obs
    metrics.

    [run] has {!Pool.run}'s contract — bounded in-flight window,
    results consumed strictly in production order, the caller working
    alongside the pool's workers, failures drained and re-raised — so
    for pure [work] the output is byte-identical at any [jobs], and a
    pipeline nested in a {!Pool.map_array} item (or the reverse), or
    several pipelines from concurrent systhreads, cannot deadlock.

    Obs metrics: [pipeline.items] counts items entering the pipeline
    and [pipeline.queue_depth] is a histogram of the in-flight count
    observed at each enqueue.  {!Pool.map_array} and {!Pool.map_list}
    record neither. *)

val capacity : jobs:int -> ?capacity:int -> unit -> int
(** {!Pool.capacity}. *)

val run :
  jobs:int ->
  ?capacity:int ->
  produce:(seq:int -> 'a option) ->
  work:('a -> 'b) ->
  consume:(seq:int -> 'b -> unit) ->
  unit ->
  unit
(** {!Pool.run}, recording the metrics above. *)
