(* {!Pool.run} with the pipeline's metrics (see pipeline.mli). *)

module Obs = Zipchannel_obs.Obs

let m_items = Obs.Metrics.counter "pipeline.items"
let m_depth = Obs.Metrics.histogram "pipeline.queue_depth"

let capacity = Pool.capacity

let run ~jobs ?capacity ~produce ~work ~consume () =
  (* [produce] and [consume] both run in the calling domain, so the
     in-flight count at an enqueue is [seq + 1] minus the results
     consumed so far. *)
  let consumed = ref 0 in
  let produce ~seq =
    let x = produce ~seq in
    if Option.is_some x then begin
      Obs.Metrics.incr m_items;
      Obs.Metrics.observe m_depth (seq + 1 - !consumed)
    end;
    x
  and consume ~seq y =
    incr consumed;
    consume ~seq y
  in
  Pool.run ~jobs ?capacity ~produce ~work ~consume ()
