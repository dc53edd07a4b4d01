(* The pool (see pool.mli for the contract): one queue of helper tasks,
   worker domains parked on [nonempty] while it is empty, and [run], the
   one way work reaches them.

   A call posts at most [jobs - 1] helpers.  A helper claims items of
   its call until none is left and returns; the caller claims items too
   and, while it waits for one a helper holds, runs any still unclaimed.
   So every call can finish with no help at all, and a helper that
   starts after its call has finished finds nothing to claim.

   A parked domain still joins every collection's stop-the-world
   rendezvous (on a 2-vCPU VM one made a single-domain 1 MiB inflate
   2-3x slower), so a worker retires once no task has been posted or run
   for [retire_cycles] major cycles.  A GC alarm counts the cycles and
   wakes parked workers to check; a process that stops collecting keeps
   its workers, which then cost nothing. *)

let available_jobs () = Domain.recommended_domain_count ()

let normalize_jobs j =
  if j < 0 then
    Error
      (Printf.sprintf
         "jobs must be a positive domain count (or 0 for auto), got %d" j)
  else if j = 0 then Ok (available_jobs ())
  else Ok j

let clamp jobs = max 1 (min jobs (available_jobs ()))

let m = Mutex.create ()
let nonempty = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let workers = ref 0

let retire_cycles = 2

(* Major cycles completed since the first spawn, and their count when a
   task was last posted or finished.  The alarm needs no lock: it may
   run inside any allocation, [m] held or not. *)
let cycles = Atomic.make 0
let busy_cycle = Atomic.make 0
let mark_busy () = Atomic.set busy_cycle (Atomic.get cycles)
let idle () = Atomic.get cycles - Atomic.get busy_cycle >= retire_cycles
let alarm_set = Atomic.make false

let start_alarm () =
  if Atomic.compare_and_set alarm_set false true then
    ignore
      (Gc.create_alarm (fun () ->
           Atomic.incr cycles;
           Condition.broadcast nonempty))

let rec worker_loop () =
  Mutex.lock m;
  while Queue.is_empty queue && not (idle ()) do
    Condition.wait nonempty m
  done;
  if Queue.is_empty queue then begin
    (* Retire: the domain ends here. *)
    decr workers;
    Mutex.unlock m
  end
  else begin
    let task = Queue.pop queue in
    Mutex.unlock m;
    (try task () with _ -> ());
    mark_busy ();
    worker_loop ()
  end

(* Spawn workers, outside the lock, until [jobs - 1] exist.  A failed
   spawn only leaves the pool smaller: no call depends on help. *)
let ensure_workers jobs =
  Mutex.lock m;
  let missing = max 0 (jobs - 1 - !workers) in
  workers := !workers + missing;
  Mutex.unlock m;
  if missing > 0 then start_alarm ();
  for _ = 1 to missing do
    match Domain.spawn worker_loop with
    | _ -> ()
    | exception _ ->
        Mutex.lock m;
        decr workers;
        Mutex.unlock m
  done

(* Queue [task] for a worker.  It must not raise, and is optional help:
   it may start after its call has finished without it.  With no worker
   (every spawn failed) it is dropped, not queued for good. *)
let post ~jobs task =
  mark_busy ();
  ensure_workers jobs;
  Mutex.lock m;
  if !workers > 0 then begin
    Queue.push task queue;
    Condition.signal nonempty
  end;
  Mutex.unlock m

(* ------------------------------------------------------------------ *)
(* [run]: the caller's loop alternates two phases: top up the window
   (enqueue until the ring is full or the producer reports end-of-stream),
   then wait until the *next in-order* result is done and consume it,
   running any item no helper has claimed while it waits.  Each enqueue
   posts a helper while fewer than [jobs - 1] are out.

   A slot [seq mod capacity] is reused by sequence [seq + capacity]
   only after [seq] has been consumed (the window invariant
   [seq_in - seq_out < capacity] guarantees it), so task payloads that
   point into caller-owned reusable buffers — the frame pipeline's
   chunk ring — are never overwritten while a helper still reads
   them. *)

type ('a, 'b) state = {
  sm : Mutex.t;
  changed : Condition.t;  (* caller: a result completed or work failed *)
  tasks : 'a option array;
  results : 'b option array;
  result_done : bool array;
  capacity : int;
  mutable seq_in : int;  (* next sequence to enqueue *)
  mutable seq_claim : int;  (* next sequence to claim *)
  mutable seq_out : int;  (* next sequence to consume *)
  mutable helpers : int;  (* helpers posted and not yet returned *)
  mutable running : int;  (* [work] calls in progress on helpers *)
  mutable failed : exn option;  (* first failure, any stage *)
}

exception Aborted
(* Internal: the caller's wait loop saw [failed] set; the real
   exception is re-raised once no helper runs [work] any more. *)

(* With [st.sm] held: take the next unclaimed item. *)
let claim st =
  let seq = st.seq_claim in
  st.seq_claim <- seq + 1;
  let slot = seq mod st.capacity in
  let x = Option.get st.tasks.(slot) in
  st.tasks.(slot) <- None;
  (slot, x)

(* With [st.sm] held: record an item's outcome. *)
let complete st slot = function
  | Ok y ->
      st.results.(slot) <- Some y;
      st.result_done.(slot) <- true;
      Condition.broadcast st.changed
  | Error e ->
      if st.failed = None then st.failed <- Some e;
      Condition.broadcast st.changed

(* Run one claimed item with [st.sm] released around [work]. *)
let run_item st work slot x =
  Mutex.unlock st.sm;
  let r = match work x with y -> Ok y | exception e -> Error e in
  Mutex.lock st.sm;
  complete st slot r

let helper st work () =
  Mutex.lock st.sm;
  while st.failed = None && st.seq_claim < st.seq_in do
    let slot, x = claim st in
    st.running <- st.running + 1;
    run_item st work slot x;
    st.running <- st.running - 1;
    if st.running = 0 then Condition.broadcast st.changed
  done;
  st.helpers <- st.helpers - 1;
  Mutex.unlock st.sm

let run_sequential ~produce ~work ~consume =
  let seq = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match produce ~seq:!seq with
    | None -> continue_ := false
    | Some x ->
        consume ~seq:!seq (work x);
        incr seq
  done

let capacity ~jobs ?capacity () =
  let jobs = clamp jobs in
  if jobs <= 1 then 1
  else match capacity with None -> 2 * jobs | Some c -> max c (jobs + 1)

let run ~jobs ?capacity:cap ~produce ~work ~consume () =
  let jobs = clamp jobs in
  if jobs <= 1 then run_sequential ~produce ~work ~consume
  else begin
    let capacity = capacity ~jobs ?capacity:cap () in
    let st =
      {
        sm = Mutex.create ();
        changed = Condition.create ();
        tasks = Array.make capacity None;
        results = Array.make capacity None;
        result_done = Array.make capacity false;
        capacity;
        seq_in = 0;
        seq_claim = 0;
        seq_out = 0;
        helpers = 0;
        running = 0;
        failed = None;
      }
    in
    let drive () =
      let eof = ref false in
      while not (!eof && st.seq_out = st.seq_in) do
        (* Top up the in-flight window. *)
        while (not !eof) && st.seq_in - st.seq_out < capacity do
          match produce ~seq:st.seq_in with
          | None -> eof := true
          | Some x ->
              Mutex.lock st.sm;
              st.tasks.(st.seq_in mod capacity) <- Some x;
              st.seq_in <- st.seq_in + 1;
              let more = st.helpers < jobs - 1 in
              if more then st.helpers <- st.helpers + 1;
              Mutex.unlock st.sm;
              if more then post ~jobs (helper st work)
        done;
        (* Wait for, then consume, the next in-order result, running
           unclaimed items meanwhile. *)
        if st.seq_out < st.seq_in then begin
          let slot = st.seq_out mod capacity in
          Mutex.lock st.sm;
          while (not st.result_done.(slot)) && st.failed = None do
            if st.seq_claim < st.seq_in then begin
              let slot, x = claim st in
              run_item st work slot x
            end
            else Condition.wait st.changed st.sm
          done;
          if st.failed <> None then begin
            Mutex.unlock st.sm;
            raise Aborted
          end;
          let y = Option.get st.results.(slot) in
          st.results.(slot) <- None;
          st.result_done.(slot) <- false;
          st.seq_out <- st.seq_out + 1;
          Mutex.unlock st.sm;
          consume ~seq:(st.seq_out - 1) y
        end
      done
    in
    let caller_exn = match drive () with () -> None | exception e -> Some e in
    (* Stop the helpers (on success there is nothing left to claim) and
       wait until none runs [work] before deciding what to raise. *)
    Mutex.lock st.sm;
    if caller_exn <> None && st.failed = None then
      (* Poison outstanding items: helpers return without running them. *)
      st.failed <- caller_exn;
    while st.running > 0 do
      Condition.wait st.changed st.sm
    done;
    Mutex.unlock st.sm;
    match caller_exn with
    | Some Aborted | None -> (
        match st.failed with Some e -> raise e | None -> ())
    | Some e -> raise e
  end

(* A map is a [run] whose window holds every item. *)
let map_array ~jobs f xs =
  let n = Array.length xs in
  if clamp jobs <= 1 || n <= 1 then Array.map f xs
  else begin
    let out = ref [] in
    run ~jobs ~capacity:n
      ~produce:(fun ~seq -> if seq < n then Some xs.(seq) else None)
      ~work:f
      ~consume:(fun ~seq:_ y -> out := y :: !out)
      ();
    Array.of_list (List.rev !out)
  end

let map_list ~jobs f xs =
  if clamp jobs <= 1 then List.map f xs
  else Array.to_list (map_array ~jobs f (Array.of_list xs))
