(* The leak audit plane.

   Everything here is side-band by construction: recording reads frame
   metadata (lengths, tags, wall time) and never touches payload bytes,
   so compressed output is byte-identical with auditing on or off.  The
   sink is the switch: a stream loads it once, at creation, and an
   unaudited stream does no more.

   Concurrency: sink writes and the estimators take their own locks, so
   the daemon's thread-per-connection model (many threads, one domain)
   is safe.  The per-stream rolling state is unsynchronised on purpose:
   a stream's frames are recorded by exactly one domain at a time (the
   frame pipeline's in-order consumer), which is also what keeps each
   stream's records in sequence order at any [jobs]. *)

module Obs = Zipchannel_obs.Obs

(* ------------------------------------------------------------------ *)
(* Records *)

type tag = Data | Trailer

let tag_name = function Data -> "data" | Trailer -> "trailer"

type record = {
  stream : int;
  seq : int;
  tag : tag;
  codec : string;
  ulen : int;
  clen : int;
  delta : int;
  bucket : int;
  enc_ns : int;
  ts_ns : int;
}

let jsonl_of_record r =
  Printf.sprintf
    "{\"t\": \"frame\", \"stream\": %d, \"seq\": %d, \"tag\": \"%s\", \
     \"codec\": \"%s\", \"ulen\": %d, \"clen\": %d, \"delta\": %d, \
     \"bucket\": %d, \"enc_ns\": %d, \"ts_ns\": %d}"
    r.stream r.seq (tag_name r.tag) (Obs.json_escape r.codec) r.ulen r.clen r.delta
    r.bucket r.enc_ns r.ts_ns

let n_prefix_buckets = 64

(* FNV-1a over the first bytes of an attacker-controlled prefix: stable,
   cheap, and spreads single-byte differences across buckets.  The
   offset basis is the 64-bit FNV one truncated to OCaml's native int. *)
let prefix_bucket ?(n = n_prefix_buckets) b ~len =
  let len = min len 16 in
  let h = ref 0x3f29ce484222325 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  (!h land max_int) mod n

(* ------------------------------------------------------------------ *)
(* Sink *)

let current_sink : out_channel option Atomic.t = Atomic.make None
let sink_lock = Mutex.create ()
let set_sink s = Atomic.set current_sink s
let enabled () = Option.is_some (Atomic.get current_sink)

let write_line line =
  match Atomic.get current_sink with
  | None -> ()
  | Some oc ->
      Mutex.lock sink_lock;
      output_string oc line;
      output_char oc '\n';
      flush oc;
      Mutex.unlock sink_lock

(* ------------------------------------------------------------------ *)
(* Obs metrics (registered once; recording additionally gated on Obs) *)

let m_frames = Obs.Metrics.counter "leak.audit.frames"
let m_streams = Obs.Metrics.counter "leak.audit.streams"
let m_delta_abs = Obs.Metrics.histogram "leak.audit.clen_delta_abs"
let m_enc_ns = Obs.Metrics.histogram "leak.audit.enc_ns"
let m_requests = Obs.Metrics.counter "leak.requests"
let m_request_frames = Obs.Metrics.histogram "leak.request_frames"
let g_capacity = Obs.Metrics.gauge "leak.capacity_bits_per_frame"
let g_entropy = Obs.Metrics.gauge "leak.delta_entropy_bits"

(* ------------------------------------------------------------------ *)
(* Estimator *)

module Estimator = struct
  type t = {
    n_buckets : int;
    delta_range : int;
    counts : int array array;  (* bucket -> delta bin -> count *)
    totals : int array;
    mutable total : int;
    mu : Mutex.t;
  }

  let create ?(buckets = n_prefix_buckets) ?(delta_range = 32) () =
    if buckets < 1 || delta_range < 1 then invalid_arg "Estimator.create";
    let bins = (2 * delta_range) + 1 in
    {
      n_buckets = buckets;
      delta_range;
      counts = Array.make_matrix buckets bins 0;
      totals = Array.make buckets 0;
      total = 0;
      mu = Mutex.create ();
    }

  let n_bins t = (2 * t.delta_range) + 1

  let bin_of t d =
    let d = max (-t.delta_range) (min t.delta_range d) in
    d + t.delta_range

  let observe t ~bucket ~delta =
    let b = ((bucket mod t.n_buckets) + t.n_buckets) mod t.n_buckets in
    let d = bin_of t delta in
    Mutex.lock t.mu;
    t.counts.(b).(d) <- t.counts.(b).(d) + 1;
    t.totals.(b) <- t.totals.(b) + 1;
    t.total <- t.total + 1;
    Mutex.unlock t.mu

  let observations t = t.total

  let cond_histogram t ~bucket =
    let b = ((bucket mod t.n_buckets) + t.n_buckets) mod t.n_buckets in
    Mutex.lock t.mu;
    let out = ref [] in
    for d = n_bins t - 1 downto 0 do
      let c = t.counts.(b).(d) in
      if c > 0 then out := (d - t.delta_range, c) :: !out
    done;
    Mutex.unlock t.mu;
    !out

  let clear t =
    Mutex.lock t.mu;
    Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.counts;
    Array.fill t.totals 0 t.n_buckets 0;
    t.total <- 0;
    Mutex.unlock t.mu

  (* Snapshot the counts so the math below runs lock-free. *)
  let snapshot t =
    Mutex.lock t.mu;
    let counts = Array.map Array.copy t.counts in
    let totals = Array.copy t.totals in
    let total = t.total in
    Mutex.unlock t.mu;
    (counts, totals, total)

  let log2 = Float.log2

  let entropy_of dist =
    Array.fold_left
      (fun acc p -> if p > 0. then acc -. (p *. log2 p) else acc)
      0. dist

  let marginal counts bins total =
    let m = Array.make bins 0. in
    Array.iter
      (fun row ->
        Array.iteri (fun d c -> m.(d) <- m.(d) +. float_of_int c) row)
      counts;
    Array.map (fun v -> v /. float_of_int total) m

  let delta_entropy_bits t =
    let counts, _, total = snapshot t in
    if total = 0 then 0.
    else entropy_of (marginal counts (n_bins t) total)

  (* Plug-in I(bucket; delta) = H(delta) - H(delta | bucket) under the
     empirical bucket prior. *)
  let mutual_information_bits t =
    let counts, totals, total = snapshot t in
    if total = 0 then 0.
    else begin
      let h_y = entropy_of (marginal counts (n_bins t) total) in
      let h_y_given_x = ref 0. in
      Array.iteri
        (fun b row ->
          if totals.(b) > 0 then begin
            let px = float_of_int totals.(b) /. float_of_int total in
            let cond =
              Array.map (fun c -> float_of_int c /. float_of_int totals.(b)) row
            in
            h_y_given_x := !h_y_given_x +. (px *. entropy_of cond)
          end)
        counts;
      Float.max 0. (h_y -. !h_y_given_x)
    end

  (* Blahut–Arimoto over the empirical conditionals W(delta | bucket):
     capacity = max over input priors of I(p; W).  Buckets with no
     observations are excluded (they carry no channel estimate). *)
  let capacity_bits t =
    let counts, totals, _ = snapshot t in
    let active =
      Array.of_list
        (List.filter
           (fun b -> totals.(b) > 0)
           (List.init t.n_buckets (fun b -> b)))
    in
    let k = Array.length active in
    if k < 2 then 0.
    else begin
      let bins = n_bins t in
      let w =
        Array.map
          (fun b ->
            Array.map
              (fun c -> float_of_int c /. float_of_int totals.(b))
              counts.(b))
          active
      in
      let p = Array.make k (1. /. float_of_int k) in
      let d = Array.make k 0. in
      let cap = ref 0. in
      for _ = 1 to 60 do
        let r = Array.make bins 0. in
        for x = 0 to k - 1 do
          for y = 0 to bins - 1 do
            r.(y) <- r.(y) +. (p.(x) *. w.(x).(y))
          done
        done;
        (* D(x) = KL(W(.|x) || r), in bits *)
        for x = 0 to k - 1 do
          let s = ref 0. in
          for y = 0 to bins - 1 do
            if w.(x).(y) > 0. && r.(y) > 0. then
              s := !s +. (w.(x).(y) *. log2 (w.(x).(y) /. r.(y)))
          done;
          d.(x) <- !s
        done;
        cap := 0.;
        Array.iteri (fun x px -> cap := !cap +. (px *. d.(x))) p;
        (* p'(x) ∝ p(x) 2^D(x) *)
        let z = ref 0. in
        for x = 0 to k - 1 do
          p.(x) <- p.(x) *. Float.exp2 d.(x);
          z := !z +. p.(x)
        done;
        if !z > 0. then
          for x = 0 to k - 1 do
            p.(x) <- p.(x) /. !z
          done
      done;
      Float.max 0. !cap
    end
end

let global_estimator = Estimator.create ()

let publish_estimate () =
  Obs.Metrics.set_gauge g_capacity (Estimator.capacity_bits global_estimator);
  Obs.Metrics.set_gauge g_entropy
    (Estimator.delta_entropy_bits global_estimator)

(* Republish the gauges every [publish_every] data frames so a live
   Prometheus scrape tracks the estimate without per-frame O(buckets ×
   bins) work. *)
let publish_every = 16
let frames_since_publish = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Streams *)

module Stream = struct
  type t = {
    id : int;
    codec : string;
    mutable bucket : int;
    mutable baseline8 : int;  (* EWMA of data-frame clen, scaled by 8 *)
    mutable data_frames : int;
  }

  let next_id = Atomic.make 0

  let create ?(bucket = -1) ~codec () =
    Obs.Metrics.incr m_streams;
    {
      id = Atomic.fetch_and_add next_id 1;
      codec;
      bucket;
      baseline8 = 0;
      data_frames = 0;
    }

  let id t = t.id
  let bucket t = t.bucket

  let note_prefix t b ~len =
    if t.bucket < 0 && len > 0 then t.bucket <- prefix_bucket b ~len

  let on_frame t ~seq ~tag ~ulen ~clen ~enc_ns =
    let delta =
      match tag with
      | Data when ulen > 0 ->
          let d =
            if t.data_frames = 0 then 0 else clen - ((t.baseline8 + 4) / 8)
          in
          (* EWMA with alpha = 1/8, in 1/8ths to stay integral *)
          if t.data_frames = 0 then t.baseline8 <- 8 * clen
          else t.baseline8 <- t.baseline8 + clen - ((t.baseline8 + 4) / 8);
          t.data_frames <- t.data_frames + 1;
          d
      | _ -> 0
    in
    let r =
      {
        stream = t.id;
        seq;
        tag;
        codec = t.codec;
        ulen;
        clen;
        delta;
        bucket = t.bucket;
        enc_ns;
        ts_ns = Obs.now_ns ();
      }
    in
    write_line (jsonl_of_record r);
    if tag = Data then Obs.Metrics.incr m_frames;
    if tag <> Trailer && ulen > 0 then begin
      Obs.Metrics.observe m_delta_abs (abs delta);
      Obs.Metrics.observe m_enc_ns enc_ns;
      if t.bucket >= 0 then begin
        Estimator.observe global_estimator ~bucket:t.bucket ~delta;
        if Atomic.fetch_and_add frames_since_publish 1 mod publish_every = 0
        then publish_estimate ()
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Request records *)

type request_record = {
  conn : int;
  op : string;
  req_codec : string;
  frame_size : int;
  req_bytes : int;
  resp_bytes : int;
  frames : int;
  req_bucket : int;
  wall_ns : int;
  ts_ns : int;
  status : string;
}

let jsonl_of_request r =
  Printf.sprintf
    "{\"t\": \"request\", \"conn\": %d, \"op\": \"%s\", \"codec\": \"%s\", \
     \"frame_size\": %d, \"req_bytes\": %d, \"resp_bytes\": %d, \
     \"frames\": %d, \"bucket\": %d, \"wall_ns\": %d, \"ts_ns\": %d, \
     \"status\": \"%s\"}"
    r.conn (Obs.json_escape r.op)
    (Obs.json_escape r.req_codec)
    r.frame_size r.req_bytes r.resp_bytes r.frames r.req_bucket r.wall_ns
    r.ts_ns
    (Obs.json_escape r.status)

let record_request r =
  if enabled () then begin
    write_line (jsonl_of_request r);
    Obs.Metrics.incr m_requests;
    Obs.Metrics.observe m_request_frames r.frames;
    publish_estimate ()
  end
