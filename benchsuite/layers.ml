(* The layer battery of the traced run.

   Bench code calls each layer's public functions on the seeded shapes
   (64 KiB each) and times them, and reads the counters the library
   already keeps ([kernel.*], [pipeline.*], [taint.*], [cache.*], ...)
   from a separate pass with metrics on, so the timings never pay for
   counting.  No span or counter is added inside the library.  The
   battery is the same for every workload; which end-to-end metric each
   number should move, and on which workload, is in README.md. *)

open Zipchannel
module C = Compress

let now = Obs.now_ns

(* Median ns of [f]: at least [reps] runs, more while [budget_ns]
   lasts. *)
let time_ns ?(reps = 3) ?(budget_ns = 25_000_000) f =
  let t_start = now () and samples = ref [] in
  let rec go k =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    samples := float_of_int (now () - t0) :: !samples;
    if k + 1 < reps || (now () - t_start < budget_ns && k < 100) then go (k + 1)
  in
  go 0;
  Sample.median (Array.of_list !samples)

(* One run of [f]: its result and ns. *)
let once f =
  let t0 = now () in
  let r = f () in
  (r, float_of_int (now () - t0))

let mb_s bytes ns = float_of_int bytes *. 1e3 /. ns

let counting f =
  Obs.set_enabled true;
  let before = Obs.Metrics.snapshot () in
  let r = f () in
  let after = Obs.Metrics.snapshot () in
  Obs.set_enabled false;
  (r, Obs.Metrics.delta ~before ~after)

let counter d name = float_of_int (Option.value ~default:0 (List.assoc_opt name d.Obs.Metrics.counters))

let hist_mean d name =
  match List.assoc_opt name d.Obs.Metrics.histograms with
  | Some h when h.Obs.Metrics.count > 0 -> float_of_int h.sum /. float_of_int h.count
  | _ -> 0.

let total xs = List.fold_left ( +. ) 0. xs

(* 10 kB blocks, the bzip2 block size the paper describes. *)
let blocks ?(limit = max_int) b =
  let n = Bytes.length b and bs = C.Bzip2.default_block_size in
  List.init (min limit ((n + bs - 1) / bs)) (fun i -> Bytes.sub b (i * bs) (min bs (n - (i * bs))))

(* Two connections, ten 64 KiB compress requests each, against a
   daemon with the leak-audit plane and span tracing on. *)
let serve_probe ~scratch plain =
  let audit = Filename.concat scratch "probe-audit.jsonl" and trace = Filename.concat scratch "probe-trace.jsonl" in
  let d = Daemon.start ~extra:[ "--audit"; audit; "--trace"; trace ] () in
  let expect = Frame.compress ~codec:Frame.Deflate plain in
  let wire = Daemon.wire ~op:Corpus.Compress ~frame_size:Frame.default_frame_size plain in
  let m0 = Daemon.metrics d in
  let mu = Mutex.create () and phases = ref [] and failed = ref 0 in
  let client () =
    for _ = 1 to 10 do
      let r =
        match Daemon.request ~port:d.Daemon.port wire with
        | Ok body, ph when Bytes.equal body expect -> Some ph
        | _ -> None
        | exception (Unix.Unix_error _ | Failure _) -> None
      in
      Mutex.protect mu (fun () ->
          match r with Some ph -> phases := ph :: !phases | None -> incr failed)
    done
  in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create client ()));
  let m1 = Daemon.metrics d in
  if Daemon.stop d <> Ok () then incr failed;
  let records =
    if Sys.file_exists audit then
      In_channel.with_open_bin audit In_channel.input_all
      |> String.split_on_char '\n' |> List.filter (( <> ) "") |> List.length
    else 0
  in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ audit; trace ];
  let ph = Array.of_list !phases in
  let p50 f = Sample.median (Array.map (fun p -> float_of_int (f p) /. 1e6) ph) in
  let delta f name = f m1 name -. f m0 name in
  let server_ms = delta Daemon.hist_sum "serve.request_ns" /. delta Daemon.hist_count "serve.request_ns" /. 1e6 in
  let client_ms = Array.fold_left (fun a p -> a +. (float_of_int p.Daemon.done_ /. 1e6)) 0. ph /. float_of_int (Array.length ph) in
  ( [
      ("serve.connect_ms_p50", "ms", p50 (fun p -> p.Daemon.connected));
      ("serve.upload_ms_p50", "ms", p50 (fun p -> p.Daemon.uploaded - p.connected));
      ("serve.ttfb_ms_p50", "ms", p50 (fun p -> p.Daemon.first_byte));
      ("serve.download_ms_p50", "ms", p50 (fun p -> p.Daemon.done_ - p.first_byte));
      ("serve.server_ms_mean", "ms", server_ms);
      ("serve.queue_ms_mean", "ms", client_ms -. server_ms);
      ("serve.gc_minor", "count", delta Daemon.counter "runtime.minor_collections");
      ("leak_audit.records", "count", float_of_int records);
    ],
    !failed )

(* Every per-layer metric except the four the traced window itself
   gives, plus the number of failed checks. *)
let run ~seed ~scratch =
  let shapes = List.map (fun s -> (Corpus.shape_name s, Corpus.make ~seed s ~size:65536)) Corpus.shapes in
  let plain_bytes = List.fold_left (fun a (_, p) -> a + Bytes.length p) 0 shapes in
  let failed = ref 0 in
  let check b = if not b then incr failed in
  let out = ref [] in
  let add name unit v = out := (name, unit, v) :: !out in
  (* Throughput of [f] over every shape: total bytes over summed
     median times. *)
  let rate ?reps f = mb_s plain_bytes (total (List.map (fun (_, p) -> time_ns ?reps (fun () -> f p)) shapes)) in
  let random = List.assoc "random" shapes and prose = List.assoc "prose" shapes in
  (* Lz77 *)
  add "lz77.tokenize_mb_s" "MB/s" (rate (fun p -> C.Lz77.tokenize_array p));
  let (), d = counting (fun () -> List.iter (fun (_, p) -> ignore (C.Lz77.tokenize_array p)) shapes) in
  add "lz77.matches" "count" (counter d "kernel.lz77.matches");
  add "lz77.literals" "count" (counter d "kernel.lz77.literals");
  add "lz77.match_len_mean" "bytes" (hist_mean d "kernel.lz77.match_len");
  (* Huffman, bit I/O *)
  add "huffman.encode_mb_s" "MB/s" (rate C.Huffman.encode);
  let decode_rate enc dec =
    mb_s plain_bytes (total (List.map (fun (_, p) -> let c = enc p in time_ns (fun () -> dec c)) shapes))
  in
  add "huffman.decode_mb_s" "MB/s" (decode_rate C.Huffman.encode C.Huffman.decode);
  add "deflate.decode_tokens_mb_s" "MB/s" (decode_rate (fun p -> C.Deflate.compress p) C.Deflate.decode_tokens);
  (* Whole-buffer codecs, one value per shape *)
  let codecs =
    [
      ("deflate", (fun b -> C.Deflate.compress b), C.Deflate.decompress, 3);
      ("lzw", C.Lzw.compress, C.Lzw.decompress, 3);
      ("lz4", C.Lz4.compress, C.Lz4.decompress, 3);
      ("snappy", C.Snappy.compress, C.Snappy.decompress, 3);
      ("bzip2", (fun b -> C.Bzip2.compress b), C.Bzip2.decompress, 1);
      ("huffman", C.Huffman.encode, C.Huffman.decode, 0);
      ("frame", (fun b -> Frame.compress ~codec:Frame.Deflate b), Frame.decompress, 0);
    ]
  in
  let bzip2_ns = ref [] in
  List.iter
    (fun (name, enc, dec, reps) ->
      let clen = ref 0 in
      List.iter
        (fun (shape, p) ->
          let c = enc p in
          clen := !clen + Bytes.length c;
          check (Bytes.equal (dec c) p);
          if reps > 0 then begin
            let ns = time_ns ~reps (fun () -> enc p) in
            if name = "bzip2" then bzip2_ns := ns :: !bzip2_ns;
            add (Printf.sprintf "%s.compress_mb_s.%s" name shape) "MB/s" (mb_s (Bytes.length p) ns);
            add (Printf.sprintf "%s.decompress_mb_s.%s" name shape) "MB/s"
              (mb_s (Bytes.length p) (time_ns ~reps (fun () -> dec c)))
          end)
        shapes;
      add ("compress_ratio." ^ name) "ratio" (float_of_int !clen /. float_of_int plain_bytes))
    codecs;
  let (), d = counting (fun () -> List.iter (fun (_, p) -> ignore (C.Lzw.compress p)) shapes) in
  add "lzw.htab_probes" "count" (counter d "kernel.lzw.htab_probes");
  (* Checksum *)
  add "crc32.mb_s" "MB/s" (rate C.Checksum.Crc32.digest);
  (* Frame, Pipeline: the shapes back to back, several frames long *)
  let all = Bytes.concat Bytes.empty (List.map snd shapes) in
  let jobs = Domain.recommended_domain_count () in
  let j1 = time_ns (fun () -> Frame.compress ~jobs:1 ~codec:Frame.Deflate all)
  and jn = time_ns (fun () -> Frame.compress ~jobs ~codec:Frame.Deflate all) in
  let framed = Frame.compress ~codec:Frame.Deflate all in
  add "frame.compress_mb_s.jobs1" "MB/s" (mb_s plain_bytes j1);
  add "frame.compress_mb_s.jobsN" "MB/s" (mb_s plain_bytes jn);
  add "frame.decompress_mb_s" "MB/s" (mb_s plain_bytes (time_ns (fun () -> Frame.decompress framed)));
  add "pipeline.speedup" "ratio" (j1 /. jn);
  let _, d = counting (fun () -> Frame.compress ~jobs ~codec:Frame.Deflate all) in
  add "pipeline.items" "count" (counter d "pipeline.items");
  add "pipeline.queue_depth_mean" "items" (hist_mean d "pipeline.queue_depth");
  (* Bwt, Mtf, Rle: the first three 10 kB blocks of each shape *)
  let bwts = List.concat_map (fun (_, p) -> List.map (fun b -> (b, C.Bwt.transform b)) (blocks ~limit:3 p)) shapes in
  let blk_bytes = List.fold_left (fun a (b, _) -> a + Bytes.length b) 0 bwts in
  let over f = mb_s blk_bytes (total (List.map f bwts)) in
  add "bwt.transform_mb_s" "MB/s" (over (fun (b, _) -> time_ns (fun () -> C.Bwt.transform b)));
  add "bwt.inverse_mb_s" "MB/s" (over (fun (_, (last, primary)) -> time_ns (fun () -> C.Bwt.inverse last primary)));
  add "bwt.work" "count" (float_of_int (List.fold_left (fun a (b, _) -> a + snd (C.Bwt.sort_rotations_work b)) 0 bwts));
  add "mtf.encode_mb_s" "MB/s" (over (fun (_, (last, _)) -> time_ns (fun () -> C.Mtf.encode last)));
  add "mtf.decode_mb_s" "MB/s"
    (over (fun (_, (last, _)) ->
         let syms = C.Mtf.encode last in
         time_ns (fun () -> C.Mtf.decode syms)));
  add "rle.mb_s" "MB/s" (rate C.Rle1.encode);
  (* Bzip2 stage replay, each stage once per block, against the
     whole-buffer compress timed above: (sort ns, all stages ns) *)
  let stage_ns =
    List.map
      (fun (_, p) ->
        let data, rle1 = once (fun () -> C.Rle1.encode p) in
        List.fold_left
          (fun (sort, all) b ->
            let full_block = Bytes.length b = C.Bzip2.default_block_size in
            let (perm, _), t_sort = once (fun () -> C.Block_sort.block_sort ~full_block b) in
            let (last, _), t_bwt = once (fun () -> C.Bwt.transform_with ~perm b) in
            let mtf, t_mtf = once (fun () -> C.Mtf.encode last) in
            let _, t_rle2 = once (fun () -> C.Rle2.encode mtf) in
            (sort +. t_sort, all +. t_sort +. t_bwt +. t_mtf +. t_rle2))
          (0., rle1) (blocks data))
      shapes
  in
  let compress = total !bzip2_ns in
  add "bwt.sort_share" "fraction" (total (List.map fst stage_ns) /. compress);
  add "bzip2.other_share" "fraction" (1. -. (total (List.map snd stage_ns) /. compress));
  let (), d = counting (fun () -> List.iter (fun (_, p) -> ignore (C.Bzip2.compress p)) shapes) in
  add "bzip2.blocks" "count" (counter d "kernel.bzip2.blocks");
  (* Taint engine, survey: each family on a 1 KiB secret *)
  let module S = Taintchannel.Survey in
  let secret = Bytes.sub random 0 1024 in
  let stats =
    List.map
      (fun target ->
        let case = S.case target secret in
        let engine = ref None in
        let ns = time_ns ~reps:1 ~budget_ns:50_000_000 (fun () -> engine := Some (S.run_case case)) in
        add ("survey.case_ms." ^ case.S.label) "ms" (ns /. 1e6);
        Taintchannel.Engine.stats (Option.get !engine))
      S.[ Zlib; Lzw; Bzip2; Lz4; Snappy ]
  in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  let open Taintchannel.Engine in
  add "taint.instructions" "count" (sum (fun s -> s.instructions));
  add "taint.tlb_hit_rate" "fraction" (sum (fun s -> s.tlb_hits) /. sum (fun s -> s.tlb_hits + s.tlb_misses));
  add "taint.shadow_pages" "count" (sum (fun s -> s.shadow_pages));
  (* Cache, Prime+Probe, SGX, Recovery: one 10 KiB block *)
  let block = Bytes.sub random 0 10240 in
  let _, ns = once (fun () -> Attack.Sgx_attack.run block) in
  let r, d = counting (fun () -> Attack.Sgx_attack.run block) in
  check (r.Attack.Sgx_attack.bit_accuracy >= 0.99);
  add "sgx.ms_per_kb" "ms" (ns /. 1e6 /. 10.24);
  add "sgx.faults" "count" (float_of_int r.faults);
  add "sgx.bit_accuracy" "fraction" r.bit_accuracy;
  add "cache.misses" "count" (counter d "cache.misses");
  add "prime_probe.probes" "count" (counter d "prime_probe.probes");
  add "recovery.bzip2.ambiguous" "count" (counter d "recovery.bzip2.ambiguous");
  (* Serve, Obs, Leak_audit *)
  let serve, serve_failed = serve_probe ~scratch prose in
  failed := !failed + serve_failed;
  (List.rev !out @ serve, !failed)
