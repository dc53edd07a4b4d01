(* Memory-compression (ZRAM-style) ratio/timing oracle, after "Practical
   Timing Side Channel Attacks on Memory Compression" (Schwarzl et al.):
   a page-compression store compresses 4-KiB pages with LZ4 on swap-out,
   and an attacker who co-locates controlled data with a secret in the
   same page learns from the page's compressed size — or from the
   size-dependent swap latency — whether its guess extended a match into
   the secret.  Byte-at-a-time recovery, exactly the CRIME/BREACH loop of
   {!Chunk_oracle} transplanted from the network to the OS memory
   subsystem. *)

module Compress = Zipchannel_compress
module Timing = Zipchannel_cache.Timing
module Obs = Zipchannel_obs.Obs
module Leak_audit = Zipchannel_obs_leak.Leak_audit
module Prng = Zipchannel_util.Prng
module Pool = Zipchannel_parallel.Pool
module Mlp = Zipchannel_classifier.Mlp
module Dataset = Zipchannel_classifier.Dataset

let page_size = 4096
let alphabet = "0123456789abcdef"

let m_probes = Obs.Metrics.counter "leak.memcomp.probes"
let m_recovered = Obs.Metrics.counter "leak.memcomp.bytes_recovered"
let g_capacity = Obs.Metrics.gauge "leak.memcomp.capacity_bits"
let g_rate = Obs.Metrics.gauge "leak.memcomp.recovery_rate"
let g_classifier = Obs.Metrics.gauge "leak.memcomp.classifier_accuracy"

type oracle = Ratio | Timing

(* ------------------------------------------------------------------ *)
(* The victim page *)

(* Filler stays clear of 'k', '=', '|' and '~' so neither the victim's
   [key=] marker nor the attacker's separators can occur in it by
   accident; hex digits and '&' keep it query-string-shaped and nearly
   incompressible under LZ4 (no entropy coder to exploit symbol bias). *)
let filler_alphabet = "0123456789abcdef&"

(* Charset pollution as in {!Chunk_oracle}: every candidate appears once
   in the attacker region whichever candidate is probed, separated so the
   pollution itself cannot form a 4-byte match with the secret. *)
let pollution =
  String.concat "~" (List.map (String.make 1) (List.init 16 (fun i -> alphabet.[i])))
  ^ "~"

module Page = struct
  type t = {
    secret : string;
    head : string;  (** filler before the secret *)
    gap : string;  (** filler between the secret and the attacker region *)
    junk : string;  (** attacker's incompressible padding pool *)
    tail : string;  (** filler after the attacker region, page-sized *)
    region_len : int;  (** bytes the attacker controls *)
  }

  let fill rng n =
    String.init n (fun _ ->
        filler_alphabet.[Prng.int rng (String.length filler_alphabet)])

  let create ?(seed = 7) ?(secret_len = 16) ?(region_len = 512) () =
    if secret_len < 1 then invalid_arg "Memcomp.Page.create";
    let rng = Prng.create ~seed () in
    let secret =
      String.init secret_len (fun _ ->
          alphabet.[Prng.int rng (String.length alphabet)])
    in
    (* The attacker sits just after the secret: grooming the physical
       co-location is the attacker's job in the Schwarzl attack, and a
       short gap keeps the match-finder's hash slots for the secret's
       quads from being evicted before the guess probes them. *)
    let head = fill rng 1536 in
    let gap = fill rng 64 in
    let junk = fill rng (region_len + 128) in
    let tail = fill rng page_size in
    { secret; head; gap; junk; tail; region_len }

  let secret t = t.secret

  (* The full 4-KiB page for one probe: victim data, the secret at its
     fixed offset, then the attacker region (pollution + reflected guess
     + junk shifted by the padding step [pad]), then tail filler.  The
     length is always exactly [page_size] whatever the guess, so only
     content — never size — varies between candidates. *)
  let render t ~guess ~pad =
    let b = Buffer.create page_size in
    Buffer.add_string b t.head;
    Buffer.add_string b "key=";
    Buffer.add_string b t.secret;
    Buffer.add_char b '&';
    Buffer.add_string b t.gap;
    Buffer.add_string b pollution;
    Buffer.add_string b "key=";
    Buffer.add_string b guess;
    Buffer.add_char b '|';
    let used =
      String.length pollution + 4 + String.length guess + 1
    in
    if used + pad > t.region_len then invalid_arg "Memcomp.Page.render: guess";
    Buffer.add_string b (String.sub t.junk pad (t.region_len - used));
    let tail = page_size - Buffer.length b in
    if tail < 0 then invalid_arg "Memcomp.Page.render: overflow";
    Buffer.add_string b (String.sub t.tail 0 tail);
    Buffer.to_bytes b
end

(* ------------------------------------------------------------------ *)
(* The store's observables *)

(* Swap-out latency, modeled as one cache-hit write per compressed byte
   plus the Timing model's outlier tail, aggregated through the CLT: the
   mean grows linearly in the compressed size and the noise with its
   square root.  This is the same per-access cost model Timer_attack's
   Prime+Probe channel draws from, collapsed analytically so a probe is
   one gaussian instead of ~4096. *)
let swap_latency (timing : Timing.t) prng ~csize =
  let n = float_of_int csize in
  let mean =
    n *. (timing.Timing.hit_mean
         +. (timing.Timing.outlier_prob *. timing.Timing.outlier_cycles))
  in
  let stddev = timing.Timing.stddev *. Float.sqrt n in
  Float.max 1.0 (Prng.gaussian prng ~mean ~stddev)

(* Per-probe PRNG derivation, FNV-1a over the probe coordinates: noise
   depends only on (seed, trial, position, candidate, pad), never on
   which domain ran the probe — the whole run is byte-identical at any
   [jobs]. *)
let probe_seed ~seed ~trial ~position ~candidate ~pad =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    h := Int64.logxor !h (Int64.of_int v);
    h := Int64.mul !h 0x100000001b3L
  in
  mix seed;
  mix trial;
  mix position;
  mix candidate;
  mix pad;
  Int64.to_int !h land max_int

(* ------------------------------------------------------------------ *)
(* Recovery *)

type result = {
  oracle : oracle;
  secret : string;
  recovered : string;
  per_byte_correct : int;
  positions : int;
  probes : int;
  per_byte_rate : float;
  chained_rate : float;
  capacity_bits : float;
  mi_bits : float;
  classifier_accuracy : float;
}

let run ?(seed = 7) ?(secret_len = 16) ?(trials = 1) ?(tries = 8)
    ?(measurements = 400) ?(oracle = Timing) ?(jobs = 1)
    ?(timing = Timer_attack.default_config.Timer_attack.timing) () =
  if trials < 1 then invalid_arg "Memcomp.run: trials";
  if tries < 1 then invalid_arg "Memcomp.run: tries";
  if measurements < 1 then invalid_arg "Memcomp.run: measurements";
  let k = String.length alphabet in
  (* Probes run on the pool's domains: the count must be atomic, or
     concurrent increments get lost at [jobs] > 1. *)
  let probes = Atomic.make 0 in
  let est = Leak_audit.Estimator.create ~buckets:2 ~delta_range:64 () in
  let per_byte_correct = ref 0 in
  let positions = ref 0 in
  let chained_sum = ref 0. in
  let first_secret = ref "" in
  let first_recovered = ref "" in
  let samples = ref [] (* classifier training pairs, built per position *) in
  for trial = 0 to trials - 1 do
    let page = Page.create ~seed:(seed + (9973 * trial)) ~secret_len () in
    let secret = Page.secret page in
    let n = String.length secret in
    (* One probe: compress the page the store would write out and read
       the observable — the exact compressed size (ratio oracle) or the
       simulated swap-out latency averaged over [measurements] swap
       cycles (timing oracle). *)
    let score_candidate ~position ~prefix c =
      let total = ref 0. in
      for pad = 0 to tries - 1 do
        Atomic.incr probes;
        Obs.Metrics.incr m_probes;
        let guess = prefix ^ String.make 1 alphabet.[c] in
        let rendered = Page.render page ~guess ~pad in
        let csize = Bytes.length (Compress.Lz4.compress rendered) in
        match oracle with
        | Ratio -> total := !total +. float_of_int csize
        | Timing ->
            let prng =
              Prng.create
                ~seed:(probe_seed ~seed ~trial ~position ~candidate:c ~pad)
                ()
            in
            let sum = ref 0. in
            for _ = 1 to measurements do
              sum := !sum +. swap_latency timing prng ~csize
            done;
            total := !total +. (!sum /. float_of_int measurements)
      done;
      !total
    in
    (* Candidates fan out over the pool; scores come back in candidate
       order, so aggregation below is order-stable. *)
    let scores ~position prefix =
      Array.of_list
        (Pool.map_list ~jobs
           (fun c -> score_candidate ~position ~prefix c)
           (List.init k Fun.id))
    in
    let cache : (string, float array) Hashtbl.t = Hashtbl.create 64 in
    let scores_cached ~position prefix =
      match Hashtbl.find_opt cache prefix with
      | Some s -> s
      | None ->
          let s = scores ~position prefix in
          Hashtbl.add cache prefix s;
          s
    in
    let argmin (a : float array) =
      let best = ref 0 in
      Array.iteri (fun i s -> if s < a.(!best) then best := i) a;
      !best
    in
    (* The delta fed to the capacity estimator, in compressed-byte units
       whichever oracle produced it. *)
    let delta_unit =
      match oracle with
      | Ratio -> float_of_int tries
      | Timing ->
          float_of_int tries
          *. (timing.Timing.hit_mean
             +. (timing.Timing.outlier_prob *. timing.Timing.outlier_cycles))
    in
    let recovered = Buffer.create n in
    for i = 0 to n - 1 do
      (* Oracle accuracy at this position: probe from the true prefix. *)
      let s = scores_cached ~position:i (String.sub secret 0 i) in
      let best = argmin s in
      if alphabet.[best] = secret.[i] then incr per_byte_correct;
      let mean = Array.fold_left ( +. ) 0. s /. float_of_int k in
      let sq = Array.fold_left (fun a v -> a +. ((v -. mean) ** 2.)) 0. s in
      let std = Float.max 1e-9 (Float.sqrt (sq /. float_of_int k)) in
      let rank c =
        let r = ref 0 in
        Array.iteri (fun j v -> if v < s.(c) || (v = s.(c) && j < c) then incr r) s;
        float_of_int !r /. float_of_int (k - 1)
      in
      Array.iteri
        (fun c sc ->
          let bucket = if alphabet.[c] = secret.[i] then 1 else 0 in
          let delta =
            int_of_float (Float.round ((sc -. s.(best)) /. delta_unit))
          in
          Leak_audit.Estimator.observe est ~bucket ~delta)
        s;
      (* Balanced classifier samples: the true candidate against the
         best-scoring wrong one, features (z-score, rank). *)
      let ci = String.index alphabet secret.[i] in
      let wrong =
        let w = ref (if ci = 0 then 1 else 0) in
        Array.iteri
          (fun j v -> if j <> ci && v < s.(!w) then w := j)
          s;
        !w
      in
      let feat c = [| (s.(c) -. mean) /. std; rank c |] in
      samples := (feat ci, 1) :: (feat wrong, 0) :: !samples;
      (* Chained recovery: the attacker only has their own prefix; while
         it matches the true prefix the probe cache makes this free. *)
      let sc = scores_cached ~position:i (Buffer.contents recovered) in
      Buffer.add_char recovered alphabet.[argmin sc]
    done;
    let recovered = Buffer.contents recovered in
    let exact_prefix =
      let i = ref 0 in
      while !i < n && recovered.[!i] = secret.[!i] do
        incr i
      done;
      !i
    in
    positions := !positions + n;
    chained_sum :=
      !chained_sum +. (float_of_int exact_prefix /. float_of_int n);
    if trial = 0 then begin
      first_secret := secret;
      first_recovered := recovered
    end
  done;
  (* A learned match/non-match separator over the score features, the
     role the DNN plays in the paper's noisy-oracle settings: held-out
     accuracy is the quality of the timing side channel as a binary
     classifier. *)
  let classifier_accuracy =
    let ds = Dataset.make (List.rev !samples) in
    let ds = Dataset.shuffle (Prng.create ~seed:(seed + 1) ()) ds in
    let train, test = Dataset.split ds ~train_fraction:0.6 in
    if Array.length train.Dataset.x = 0 || Array.length test.Dataset.x = 0
    then 0.
    else begin
      let mlp = Mlp.create ~seed:(seed + 2) ~layers:[ 2; 8; 2 ] () in
      Mlp.train ~epochs:40 mlp ~x:train.Dataset.x ~y:train.Dataset.y;
      Mlp.accuracy mlp ~x:test.Dataset.x ~y:test.Dataset.y
    end
  in
  let r =
    {
      oracle;
      secret = !first_secret;
      recovered = !first_recovered;
      per_byte_correct = !per_byte_correct;
      positions = !positions;
      probes = Atomic.get probes;
      per_byte_rate =
        float_of_int !per_byte_correct /. float_of_int !positions;
      chained_rate = !chained_sum /. float_of_int trials;
      capacity_bits = Leak_audit.Estimator.capacity_bits est;
      mi_bits = Leak_audit.Estimator.mutual_information_bits est;
      classifier_accuracy;
    }
  in
  Obs.Metrics.add m_recovered r.per_byte_correct;
  Obs.Metrics.set_gauge g_capacity r.capacity_bits;
  Obs.Metrics.set_gauge g_rate r.per_byte_rate;
  Obs.Metrics.set_gauge g_classifier r.classifier_accuracy;
  r
