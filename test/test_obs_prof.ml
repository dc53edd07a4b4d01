(* Zipchannel.Obs_prof: the sampling profiler.  Publication slots, the
   deterministic sample_once plane, folded/self accumulation, the
   runtime.* metrics, the ticker domain, and the side-band
   guarantee: compressed output is byte-identical with the sampler on
   or off, at any --jobs. *)

module Obs = Zipchannel_obs.Obs
module Prof = Zipchannel.Obs_prof
module Frame = Zipchannel.Frame
module Prng = Zipchannel.Util.Prng

let with_publishing f =
  Obs.Prof.set_publishing true;
  Fun.protect ~finally:(fun () -> Obs.Prof.set_publishing false) f

(* ------------------------------------------------------------------ *)
(* Publication slots: with_span maintains the per-domain path *)

let test_slot_paths () =
  with_publishing @@ fun () ->
  Alcotest.(check string) "idle slot is empty" "" (Obs.Prof.current_path ());
  Obs.with_span "outer" (fun () ->
      Alcotest.(check string) "root span published" "outer"
        (Obs.Prof.current_path ());
      Obs.with_span "inner" (fun () ->
          Alcotest.(check string) "nested path joins with ;" "outer;inner"
            (Obs.Prof.current_path ()));
      Alcotest.(check string) "pop restores the parent" "outer"
        (Obs.Prof.current_path ()));
  Alcotest.(check string) "leaving the root clears the slot" ""
    (Obs.Prof.current_path ());
  (try Obs.with_span "raises" (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check string) "a raising body still pops" ""
    (Obs.Prof.current_path ())

let test_publishing_off () =
  Obs.Prof.set_publishing false;
  Obs.with_span "quiet" (fun () ->
      Alcotest.(check string) "no publication when off" ""
        (Obs.Prof.current_path ()));
  (* turning publication off clears any stale slot contents *)
  Obs.Prof.set_publishing true;
  Alcotest.(check bool) "publishing readable" true (Obs.Prof.publishing ());
  Obs.Prof.set_publishing false;
  Alcotest.(check bool) "all slots empty after disable" true
    (Array.for_all (( = ) "") (Obs.Prof.current_paths ()))

(* Domain ids only grow and the pools spawn fresh domains per call, so
   a live worker's id can equal this domain's mod 16.  Its span path
   must land in a slot of its own, not overwrite this domain's, and its
   slot must come free when it exits. *)
let test_slot_no_alias () =
  with_publishing @@ fun () ->
  Obs.with_span "main.outer" (fun () ->
      let me = (Domain.self () :> int) land 15 in
      let rec burn () =
        let d = Domain.spawn ignore in
        let id = (Domain.get_id d :> int) in
        Domain.join d;
        if (id + 1) land 15 <> me then burn ()
      in
      burn ();
      let worker =
        Domain.spawn (fun () ->
            let paths =
              Obs.with_span "worker" (fun () ->
                  Array.to_list (Obs.Prof.current_paths ()))
            in
            ((Domain.self () :> int), Obs.Slot.get (), paths))
      in
      let id, worker_slot, paths = Domain.join worker in
      Alcotest.(check int) "worker id aliases this domain mod 16" me
        (id land 15);
      Alcotest.(check bool) "both paths published while both are live" true
        (List.mem "main.outer" paths && List.mem "worker" paths);
      Alcotest.(check string) "the worker's pop leaves this slot alone"
        "main.outer" (Obs.Prof.current_path ());
      Alcotest.(check int) "an exited domain's slot is reused" worker_slot
        (Domain.join (Domain.spawn Obs.Slot.get)))

(* ------------------------------------------------------------------ *)
(* Deterministic accumulation via sample_once *)

let test_sample_once () =
  with_publishing @@ fun () ->
  Prof.reset ();
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () ->
          Prof.sample_once ();
          Prof.sample_once ()));
  Obs.with_span "outer" (fun () -> Prof.sample_once ());
  let r = Prof.report () in
  Alcotest.(check int) "three ticks" 3 r.Prof.ticks;
  Alcotest.(check int) "three non-idle samples" 3 r.Prof.total_samples;
  let key suffix = Printf.sprintf "domain-%d;%s" (Obs.Slot.get ()) suffix in
  Alcotest.(check (option int)) "folded outer;inner" (Some 2)
    (List.assoc_opt (key "outer;inner") r.Prof.folded);
  Alcotest.(check (option int)) "folded outer" (Some 1)
    (List.assoc_opt (key "outer") r.Prof.folded);
  let find name =
    List.find_opt (fun (n, _, _) -> n = name) r.Prof.self
  in
  (match find "inner" with
  | Some (_, self, total) ->
      Alcotest.(check int) "inner self" 2 self;
      Alcotest.(check int) "inner total" 2 total
  | None -> Alcotest.fail "no self entry for inner");
  match find "outer" with
  | Some (_, self, total) ->
      Alcotest.(check int) "outer self counts leaf ticks only" 1 self;
      Alcotest.(check int) "outer total counts nested ticks" 3 total
  | None -> Alcotest.fail "no self entry for outer"

let test_metrics_publication () =
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  with_publishing @@ fun () ->
  Prof.reset ();
  Obs.with_span "leafy" (fun () -> Prof.sample_once ());
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (option int)) "prof.samples counter" (Some 1)
    (List.assoc_opt "prof.samples" snap.Obs.Metrics.counters);
  Alcotest.(check (option int)) "prof.ticks counter" (Some 1)
    (List.assoc_opt "prof.ticks" snap.Obs.Metrics.counters);
  Alcotest.(check (option int)) "per-leaf self counter" (Some 1)
    (List.assoc_opt "prof.self.leafy" snap.Obs.Metrics.counters);
  Alcotest.(check bool) "runtime.heap_mb gauge exported" true
    (List.mem_assoc "runtime.heap_mb" snap.Obs.Metrics.gauges)

(* ------------------------------------------------------------------ *)
(* Runtime (GC) telemetry *)

let test_runtime_plane () =
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  Prof.reset ();
  Prof.sample_once ();
  (* ~4 MB in blocks well under [Max_young_wosize] (256 words), so every
     one is allocated on the minor heap (larger blocks go straight to the
     major heap).  That is twice the default 256 K-word minor heap, so at
     least one minor collection runs, and OCaml 5 folds allocated words
     into [Gc.quick_stat]'s [minor_words] only at a collection. *)
  let junk = ref [] in
  for _ = 1 to 4000 do
    junk := Bytes.create 1000 :: !junk
  done;
  ignore (Sys.opaque_identity !junk);
  Prof.sample_once ();
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters)
  in
  let minor_mb = float_of_int (counter "runtime.minor_words") *. 8. /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "runtime.minor_words sees the allocation (%.2f MB)" minor_mb)
    true (minor_mb > 0.5);
  Alcotest.(check bool) "runtime.minor_collections counted" true
    (counter "runtime.minor_collections" >= 1);
  let rate () =
    Obs.Metrics.gauge_value (Obs.Metrics.gauge "runtime.alloc_mb_per_s")
  in
  Alcotest.(check bool) "runtime.alloc_mb_per_s positive" true (rate () > 0.);
  (* A tick that sees no new collection holds the rate it has: its
     window's minor-heap words have not reached [Gc.quick_stat] yet. *)
  Prof.sample_once ();
  Alcotest.(check bool) "runtime.alloc_mb_per_s held without a collection"
    true (rate () > 0.)

(* ------------------------------------------------------------------ *)
(* The ticker domain samples a busy span without cooperation *)

let test_ticker () =
  Prof.reset ();
  Prof.start ~interval_us:500 ();
  Alcotest.(check bool) "running after start" true (Prof.running ());
  Alcotest.(check bool) "start turns publishing on" true
    (Obs.Prof.publishing ());
  let t0 = Obs.now_ns () in
  while Obs.now_ns () - t0 < 80_000_000 do
    Obs.with_span "busy" (fun () ->
        ignore (Sys.opaque_identity (Bytes.create 4096)))
  done;
  Prof.stop ();
  Alcotest.(check bool) "stopped" false (Prof.running ());
  Alcotest.(check bool) "stop turns publishing off" false
    (Obs.Prof.publishing ());
  let r = Prof.report () in
  Alcotest.(check bool) "ticker collected samples" true
    (r.Prof.total_samples > 0);
  Alcotest.(check bool) "busy span dominates the self table" true
    (match r.Prof.self with ("busy", _, _) :: _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* The report's self table and its folded-stack text *)

let test_self_and_folded () =
  with_publishing @@ fun () ->
  Prof.reset ();
  Obs.with_span "a" (fun () ->
      Obs.with_span "b" (fun () -> Prof.sample_once ()));
  let r = Prof.report () in
  Alcotest.(check int) "samples" 1 r.Prof.total_samples;
  Alcotest.(check (list (triple string int int))) "self table"
    [ ("b", 1, 1); ("a", 0, 1) ]
    r.Prof.self;
  let folded = Prof.folded_lines ~prefix:"case" r in
  Alcotest.(check string) "folded line carries prefix and count"
    (Printf.sprintf "case;domain-%d;a;b 1\n" (Obs.Slot.get ()))
    folded

(* ------------------------------------------------------------------ *)
(* Side-band guarantee: sampler on/off never changes compressed bytes *)

let compress_sampled ~sampler ~jobs data =
  if sampler then begin
    Prof.reset ();
    Prof.start ~interval_us:500 ()
  end;
  Fun.protect
    ~finally:(fun () -> if sampler then Prof.stop ())
    (fun () -> Frame.compress ~frame_size:16_384 ~jobs ~codec:Frame.Deflate data)

let test_sideband_fixture () =
  let prng = Prng.create ~seed:77 () in
  let data =
    Bytes.of_string
      (Zipchannel.Util.Lipsum.repetitive_file prng ~level:4 ~size:200_000)
  in
  let baseline = compress_sampled ~sampler:false ~jobs:1 data in
  List.iter
    (fun jobs ->
      let on = compress_sampled ~sampler:true ~jobs data in
      let off = compress_sampled ~sampler:false ~jobs data in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: sampler on = sampler off" jobs)
        true
        (Bytes.equal on off);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: identical to jobs=1 baseline" jobs)
        true (Bytes.equal on baseline))
    [ 1; 4 ]

let qcheck_sideband =
  QCheck.Test.make ~name:"sampler on/off byte-identity (random inputs)"
    ~count:15
    QCheck.(
      pair
        (string_gen_of_size Gen.(0 -- 8192) Gen.printable)
        (int_bound 1))
    (fun (s, jobs_flag) ->
      let jobs = if jobs_flag = 0 then 1 else 4 in
      let data = Bytes.of_string s in
      let on = compress_sampled ~sampler:true ~jobs data in
      let off = compress_sampled ~sampler:false ~jobs data in
      Bytes.equal on off)

let suite =
  ( "obs_prof",
    [
      Alcotest.test_case "publication slot paths" `Quick test_slot_paths;
      Alcotest.test_case "publishing off: slots stay empty" `Quick
        test_publishing_off;
      Alcotest.test_case "live domains never share a slot" `Quick
        test_slot_no_alias;
      Alcotest.test_case "sample_once folds deterministically" `Quick
        test_sample_once;
      Alcotest.test_case "prof.* / runtime.* metric publication" `Quick
        test_metrics_publication;
      Alcotest.test_case "runtime plane sees allocation" `Quick
        test_runtime_plane;
      Alcotest.test_case "ticker domain samples a busy span" `Slow test_ticker;
      Alcotest.test_case "self table & folded lines" `Quick test_self_and_folded;
      Alcotest.test_case "side-band: fixture byte-identity (jobs 1 & 4)"
        `Quick test_sideband_fixture;
      QCheck_alcotest.to_alcotest qcheck_sideband;
    ] )
