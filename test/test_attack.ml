open Zipchannel_util
open Zipchannel_attack
module Block_sort = Zipchannel_compress.Block_sort
module Lz77 = Zipchannel_compress.Lz77
module Lzw = Zipchannel_compress.Lzw

let prng () = Prng.create ~seed:0xA77 ()

(* ------------------------------------------------------------------ *)
(* Victim model *)

let test_victim_program_shape () =
  let input = Bytes.of_string "hello world" in
  let program = Victim.program input in
  Alcotest.(check int) "3 events per byte" (3 * 11) (Array.length program);
  (* First iteration touches i = n-1. *)
  let open Zipchannel_trace.Event in
  Alcotest.(check int) "quadrant first" (Victim.quadrant_base + (2 * 10))
    program.(0).addr;
  Alcotest.(check int) "block second" (Victim.block_base + 10) program.(1).addr;
  Alcotest.(check bool) "ftab third is a write" true
    (program.(2).kind = Write)

let test_victim_ftab_addresses_match_indices () =
  let input = Prng.bytes (prng ()) 40 in
  let addrs = Victim.ftab_addresses input in
  let js = Block_sort.ftab_indices input in
  Array.iteri
    (fun k j ->
      Alcotest.(check int) "addr = base + 4j" (Victim.ftab_base + (4 * j))
        addrs.(k))
    js

let test_victim_layout_covers_program () =
  let input = Prng.bytes (prng ()) 64 in
  let layout = Victim.layout ~n:64 in
  Array.iter
    (fun ev ->
      match Zipchannel_trace.Layout.find_addr layout ev.Zipchannel_trace.Event.addr with
      | Some _ -> ()
      | None -> Alcotest.failf "event outside layout: 0x%x" ev.addr)
    (Victim.program input)

(* ------------------------------------------------------------------ *)
(* Recovery: Zlib *)

let test_zlib_direct_bits_exact () =
  let input = Prng.bytes (prng ()) 500 in
  let head_base = 0x7f43da500000 in
  let observed =
    Array.map
      (fun h -> Recovery.zlib_observe ~head_base ~ins_h:h)
      (Lz77.hash_head_trace input)
  in
  let bits = Recovery.zlib_direct_bits ~head_base observed in
  Array.iteri
    (fun k v ->
      Alcotest.(check int) "bits 3-4 of middle byte"
        ((Char.code (Bytes.get input (k + 1)) lsr 3) land 0x3)
        v)
    bits

let test_zlib_lowercase_recovery () =
  let t = prng () in
  let input = Bytes.of_string (Prng.lowercase_string t 300) in
  let head_base = 0x7f43da500000 in
  let observed =
    Array.map
      (fun h -> Recovery.zlib_observe ~head_base ~ins_h:h)
      (Lz77.hash_head_trace input)
  in
  let recovered =
    Recovery.zlib_recover_lowercase ~head_base ~n:300 observed
  in
  (* Everything but the final byte is exact. *)
  Alcotest.(check bool) "all but last byte" true
    (Bytes.sub recovered 0 299 = Bytes.sub input 0 299)

let test_zlib_lowercase_other_class () =
  (* The high-bits assumption is a parameter: uppercase text works with
     high_bits = 0b010. *)
  let input = Bytes.of_string "ATTACKATDAWNBRINGKEYS" in
  let head_base = 0x7f43da500000 in
  let observed =
    Array.map
      (fun h -> Recovery.zlib_observe ~head_base ~ins_h:h)
      (Lz77.hash_head_trace input)
  in
  let n = Bytes.length input in
  let recovered =
    Recovery.zlib_recover_lowercase ~high_bits:0b010 ~head_base ~n observed
  in
  Alcotest.(check bool) "uppercase recovered" true
    (Bytes.sub recovered 0 (n - 1) = Bytes.sub input 0 (n - 1))

(* ------------------------------------------------------------------ *)
(* Recovery: LZW *)

let lzw_first_probe_trace htab_base input =
  let _, probes = Lzw.compress_with_probes input in
  Array.of_list
    (List.filter_map
       (fun p ->
         if p.Lzw.first then
           Some (Recovery.lzw_observe ~htab_base ~hp:p.Lzw.hp)
         else None)
       probes)

let test_lzw_candidates_include_truth () =
  let input = Bytes.of_string "kilroy was here" in
  let htab_base = 0x7f88a0000000 in
  let observed = lzw_first_probe_trace htab_base input in
  let candidates = Recovery.lzw_candidate_firsts ~htab_base observed in
  Alcotest.(check int) "8 candidates" 8 (List.length candidates);
  Alcotest.(check bool) "truth among them" true
    (List.mem (Char.code 'k') candidates)

let test_lzw_recover_with_known_first () =
  let t = prng () in
  let input = Bytes.of_string (Lipsum.paragraph t) in
  let htab_base = 0x7f88a0000000 in
  let observed = lzw_first_probe_trace htab_base input in
  let recovered =
    Recovery.lzw_recover ~htab_base ~first:(Char.code (Bytes.get input 0))
      observed
  in
  Alcotest.(check bool) "exact" true (Bytes.equal recovered input)

let test_lzw_consistency_separates_candidates () =
  let input = Bytes.of_string "mississippi river runs deep and wide" in
  let htab_base = 0x7f88a0000000 in
  let observed = lzw_first_probe_trace htab_base input in
  let truth = Char.code 'm' in
  let good = Recovery.lzw_consistency ~htab_base ~first:truth observed in
  Alcotest.(check (float 1e-9)) "correct first is fully consistent" 1.0 good;
  (* A candidate wrong in an observable bit (3 and up) is caught
     immediately; the low 3 bits are below line granularity and remain the
     paper's 2^3 ambiguity. *)
  let wrong = Recovery.lzw_consistency ~htab_base ~first:(truth lxor 0x18) observed in
  Alcotest.(check bool) "observably-wrong first scores lower" true (wrong < good)

let test_lzw_recover_auto () =
  let t = prng () in
  let input = Bytes.of_string (Lipsum.repetitive_file t ~level:3 ~size:600) in
  let htab_base = 0x7f88a0000000 in
  let observed = lzw_first_probe_trace htab_base input in
  let recovered = Recovery.lzw_recover_auto ~htab_base observed in
  Alcotest.(check bool) "suffix fully recovered" true
    (Bytes.sub recovered 1 599 = Bytes.sub input 1 599);
  Alcotest.(check int) "first byte top 5 bits"
    (Char.code (Bytes.get input 0) land 0xf8)
    (Char.code (Bytes.get recovered 0) land 0xf8)

let test_lzw_recover_random_data () =
  let t = prng () in
  let input = Prng.bytes t 1500 in
  let htab_base = 0x7f88a0000000 in
  let observed = lzw_first_probe_trace htab_base input in
  let recovered = Recovery.lzw_recover_auto ~htab_base observed in
  (* Everything after byte 0 is exact; byte 0 keeps its observable top 5
     bits but its low 3 bits are ambiguous for random data. *)
  Alcotest.(check bool) "suffix exact" true
    (Bytes.sub recovered 1 1499 = Bytes.sub input 1 1499);
  Alcotest.(check int) "first byte top 5 bits"
    (Char.code (Bytes.get input 0) land 0xf8)
    (Char.code (Bytes.get recovered 0) land 0xf8)

(* ------------------------------------------------------------------ *)
(* Recovery: Bzip2 *)

let bzip2_clean_trace ftab_base input =
  Array.map
    (fun j -> Some (Recovery.bzip2_observe ~ftab_base ~j))
    (Block_sort.ftab_indices input)

let test_bzip2_window_contains_truth () =
  let ftab_base = 0x7ff944c40030 in
  for j = 0 to 2000 do
    let obs = Recovery.bzip2_observe ~ftab_base ~j in
    let jmin, jmax = Recovery.bzip2_window ~ftab_base obs in
    if not (j >= jmin && j <= jmax) then
      Alcotest.failf "j=%d outside window [%d,%d]" j jmin jmax
  done

let test_bzip2_recover_clean_trace () =
  let t = prng () in
  let input = Prng.bytes t 800 in
  let ftab_base = 0x7ff944c40030 in
  let recovered =
    Recovery.bzip2_recover ~ftab_base ~n:800 (bzip2_clean_trace ftab_base input)
  in
  Alcotest.(check bool) "perfect on clean trace" true (Bytes.equal recovered input)

let test_bzip2_recover_aligned_ftab () =
  (* With a line-aligned ftab there is no off-by-one ambiguity at all. *)
  let t = prng () in
  let input = Prng.bytes t 500 in
  let ftab_base = 0x7ff944c40000 in
  let recovered =
    Recovery.bzip2_recover ~ftab_base ~n:500 (bzip2_clean_trace ftab_base input)
  in
  Alcotest.(check bool) "perfect" true (Bytes.equal recovered input)

let test_bzip2_recover_with_losses () =
  let t = prng () in
  let input = Prng.bytes t 600 in
  let ftab_base = 0x7ff944c40030 in
  let trace = bzip2_clean_trace ftab_base input in
  (* Drop 5% of readings. *)
  Array.iteri (fun k _ -> if Prng.int t 20 = 0 then trace.(k) <- None) trace;
  let recovered = Recovery.bzip2_recover ~ftab_base ~n:600 trace in
  Alcotest.(check bool) "still above 97% of bits" true
    (Stats.bit_accuracy recovered input > 0.97)

let test_bzip2_recover_with_spurious_candidates () =
  let t = prng () in
  let input = Prng.bytes t 600 in
  let ftab_base = 0x7ff944c40030 in
  let candidates =
    Array.map
      (fun j ->
        let true_obs = Recovery.bzip2_observe ~ftab_base ~j in
        (* 10% of readings come with one spurious extra line. *)
        if Prng.int t 10 = 0 then
          [ true_obs; Recovery.bzip2_observe ~ftab_base ~j:(Prng.int t 0x10000) ]
        else [ true_obs ])
      (Block_sort.ftab_indices input)
  in
  let recovered =
    Recovery.bzip2_recover_candidates ~ftab_base ~n:600 candidates
  in
  Alcotest.(check bool) "chain disambiguates" true
    (Stats.bit_accuracy recovered input > 0.99)

let test_bzip2_recover_empty_trace () =
  let recovered =
    Recovery.bzip2_recover ~ftab_base:0x1000 ~n:4 [| None; None; None; None |]
  in
  Alcotest.(check int) "length preserved" 4 (Bytes.length recovered)

let qcheck_bzip2_recover_roundtrip =
  QCheck.Test.make ~name:"bzip2 recovery inverts clean traces" ~count:50
    QCheck.(string_of_size QCheck.Gen.(10 -- 300))
    (fun s ->
      let input = Bytes.of_string s in
      let ftab_base = 0x7ff944c40030 in
      let recovered =
        Recovery.bzip2_recover ~ftab_base ~n:(Bytes.length input)
          (bzip2_clean_trace ftab_base input)
      in
      Bytes.equal recovered input)

let qcheck_lzw_recover_roundtrip =
  QCheck.Test.make ~name:"lzw recovery inverts first-probe traces" ~count:50
    QCheck.(string_of_size QCheck.Gen.(2 -- 300))
    (fun s ->
      let input = Bytes.of_string s in
      let htab_base = 0x7f88a0000000 in
      let observed = lzw_first_probe_trace htab_base input in
      let recovered =
        Recovery.lzw_recover ~htab_base
          ~first:(Char.code (Bytes.get input 0))
          observed
      in
      Bytes.equal recovered input)

(* ------------------------------------------------------------------ *)
(* Noise *)

let test_noise_transition_targets_fixed_sets () =
  let cache = Zipchannel_cache.Cache.create Zipchannel_cache.Cache.default_config in
  let noise = Noise.create ~cache ~prng:(prng ()) () in
  let sets = Noise.transition_sets noise in
  Alcotest.(check bool) "bounded working set" true
    (List.length sets <= Noise.default_config.Noise.transition_lines);
  Noise.on_transition noise;
  (* After a transition only System-owned lines appear, all within the
     working set's sets. *)
  List.iter
    (fun set ->
      let n = Zipchannel_cache.Cache.owner_in_set cache ~set Zipchannel_cache.Cache.System in
      Alcotest.(check bool) "at most the working set" true (n >= 0))
    sets

let test_noise_background_uses_cos () =
  let cache = Zipchannel_cache.Cache.create Zipchannel_cache.Cache.small_config in
  Zipchannel_cache.Cache.set_cat_mask cache ~cos:0 ~mask:0b0001;
  Zipchannel_cache.Cache.set_cat_mask cache ~cos:1 ~mask:0b1110;
  (* Pin an attacker line in way 0 of every set, then hammer background
     traffic in cos 1: the attacker lines must survive. *)
  let attacker_addr = 0x0 in
  ignore (Zipchannel_cache.Cache.access cache ~cos:0
            ~owner:Zipchannel_cache.Cache.Attacker attacker_addr);
  let noise =
    Noise.create
      ~config:{ Noise.default_config with Noise.background_per_window = 2000 }
      ~cache ~prng:(prng ()) ()
  in
  Noise.background noise ~cos:1;
  Alcotest.(check bool) "CAT shields way 0" true
    (Zipchannel_cache.Cache.is_cached cache attacker_addr)

(* ------------------------------------------------------------------ *)
(* End-to-end SGX attack *)

let test_sgx_attack_full_accuracy () =
  let input = Prng.bytes (prng ()) 1500 in
  let r = Sgx_attack.run input in
  Alcotest.(check bool) "paper-level accuracy (>99% of bits)" true
    (r.Sgx_attack.bit_accuracy > 0.99);
  Alcotest.(check int) "3 faults per iteration" (3 * 1500) r.faults

let test_sgx_attack_empty_input () =
  let r = Sgx_attack.run Bytes.empty in
  Alcotest.(check int) "empty recovered" 0 (Bytes.length r.Sgx_attack.recovered)

let test_sgx_attack_deterministic () =
  let input = Prng.bytes (prng ()) 300 in
  let a = Sgx_attack.run input and b = Sgx_attack.run input in
  Alcotest.(check bool) "same recovery" true
    (Bytes.equal a.Sgx_attack.recovered b.Sgx_attack.recovered)

let test_sgx_attack_ablation_ordering () =
  let input = Prng.bytes (prng ()) 1200 in
  let d = Sgx_attack.default_config in
  let full = Sgx_attack.run ~config:d input in
  let no_cat =
    Sgx_attack.run ~config:{ d with Sgx_attack.use_cat = false } input
  in
  Alcotest.(check bool) "CAT helps" true
    (full.Sgx_attack.bit_accuracy >= no_cat.Sgx_attack.bit_accuracy);
  Alcotest.(check bool) "no-CAT still leaks most bits" true
    (no_cat.Sgx_attack.bit_accuracy > 0.75)

let test_sgx_attack_noiseless_is_perfect () =
  (* Without timing noise, background traffic or transition pollution the
     channel is exact except for the inherent line-granularity ambiguity,
     which the chain recovery resolves completely. *)
  let input = Prng.bytes (prng ()) 700 in
  let config =
    {
      Sgx_attack.default_config with
      Sgx_attack.timing = Zipchannel_cache.Timing.noiseless;
      background_noise = false;
      noise_config =
        { Noise.default_config with Noise.transition_touch_prob = 0.0 };
    }
  in
  let r = Sgx_attack.run ~config input in
  Alcotest.(check bool) "perfect recovery" true
    (Bytes.equal r.Sgx_attack.recovered input)

(* ------------------------------------------------------------------ *)
(* Fingerprinting *)

let test_fingerprint_timeline_structure () =
  let t = prng () in
  let random = Prng.bytes t 25_000 in
  let segs = Fingerprint.timeline random in
  (* Random data: two full main-sorted blocks plus a short fallback one. *)
  let funcs = List.map (fun s -> s.Block_sort.func) segs in
  Alcotest.(check (list bool)) "main main fallback"
    [ true; true; false ]
    (List.map (fun f -> f = Block_sort.Main_sort) funcs)

let test_fingerprint_collect_sees_activity () =
  let t = prng () in
  let input = Prng.bytes t 15_000 in
  let main_trace, fallback_trace = Fingerprint.collect ~prng:t input in
  Alcotest.(check bool) "mainSort observed" true
    (Array.exists (fun b -> b) main_trace);
  Alcotest.(check bool) "fallbackSort observed (short last block)" true
    (Array.exists (fun b -> b) fallback_trace)

let test_fingerprint_silent_trace_encodes_timeout () =
  let f = Fingerprint.features (Array.make 10 false, Array.make 10 false) in
  Array.iter
    (fun v -> Alcotest.(check (float 1e-12)) "timeout value 2.0" 2.0 v)
    f

let test_fingerprint_features_dimension () =
  let t = prng () in
  let input = Prng.bytes t 12_000 in
  let f = Fingerprint.collect_features ~prng:t input in
  Alcotest.(check int) "2 x bins"
    (2 * Fingerprint.default_config.Fingerprint.bins)
    (Array.length f)

let test_corpus_shapes () =
  let t = prng () in
  let brotli = Corpus.brotli_like t in
  Alcotest.(check int) "21 files" 21 (List.length brotli);
  let names = List.map fst brotli in
  Alcotest.(check int) "distinct names" 21
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "has the x file" true
    (List.exists (fun (n, d) -> n = "x" && Bytes.length d = 1) brotli);
  let rep = Corpus.repetitiveness t in
  Alcotest.(check int) "5 files" 5 (List.length rep);
  List.iter
    (fun (_, d) -> Alcotest.(check int) "20000 bytes" 20_000 (Bytes.length d))
    rep

(* ------------------------------------------------------------------ *)
(* LZW SGX attack *)

let test_lzw_sgx_program_shape () =
  let input = Bytes.of_string "abcab" in
  let program = Lzw_sgx_attack.program input in
  (* input[0] + per further byte: one read, >= 1 probe, insert on miss. *)
  Alcotest.(check bool) "enough events" true (Array.length program >= 1 + (4 * 2));
  let open Zipchannel_trace.Event in
  Alcotest.(check int) "starts at input[0]" Lzw_sgx_attack.input_base
    program.(0).addr;
  Alcotest.(check bool) "has htab probes" true
    (Array.exists (fun e -> e.label = "htab[hp]") program)

let test_lzw_sgx_attack_text () =
  let t = prng () in
  let input = Bytes.of_string (Lipsum.repetitive_file t ~level:4 ~size:1200) in
  let r = Lzw_sgx_attack.run input in
  Alcotest.(check bool) "full text extraction" true
    (r.Lzw_sgx_attack.byte_accuracy > 0.995);
  Alcotest.(check int) "one lookup per byte" 1199 r.lookups

let test_lzw_sgx_attack_random () =
  let t = prng () in
  let input = Prng.bytes t 1200 in
  let r = Lzw_sgx_attack.run input in
  Alcotest.(check bool) "random data extraction" true
    (r.Lzw_sgx_attack.bit_accuracy > 0.99)

let test_lzw_sgx_attack_edges () =
  Alcotest.(check int) "empty" 0
    (Bytes.length (Lzw_sgx_attack.run Bytes.empty).Lzw_sgx_attack.recovered);
  Alcotest.(check int) "single byte" 1
    (Bytes.length (Lzw_sgx_attack.run (Bytes.of_string "x")).Lzw_sgx_attack.recovered)

let test_lzw_recover_candidates_with_losses () =
  (* Clean trace with some readings dropped or polluted with a spurious
     candidate: repair must keep the suffix intact. *)
  let t = prng () in
  let input = Prng.bytes t 800 in
  let htab_base = 0x720000000000 in
  let _, probes = Lzw.compress_with_probes input in
  let observed =
    Array.of_list
      (List.filter_map
         (fun p ->
           if p.Lzw.first then
             Some (Recovery.lzw_observe ~htab_base ~hp:p.Lzw.hp)
           else None)
         probes)
  in
  let candidates =
    Array.map
      (fun obs ->
        if Prng.int t 50 = 0 then [] (* lost *)
        else if Prng.int t 25 = 0 then
          [ obs; Recovery.lzw_observe ~htab_base ~hp:(Prng.int t 131072) ]
        else [ obs ])
      observed
  in
  let recovered = Recovery.lzw_recover_candidates_auto ~htab_base candidates in
  Alcotest.(check bool) "repairable" true
    (Stats.bit_accuracy recovered input > 0.98)

(* ------------------------------------------------------------------ *)
(* Zlib SGX attack *)

let test_zlib_sgx_program_shape () =
  let input = Bytes.of_string "abcdef" in
  let program = Zlib_sgx_attack.program input in
  (* 2 seed reads + (read, store) per window. *)
  Alcotest.(check int) "event count" (2 + (2 * 4)) (Array.length program);
  let open Zipchannel_trace.Event in
  Alcotest.(check bool) "stores into head" true
    (Array.exists
       (fun e -> e.kind = Write && e.addr >= Zlib_sgx_attack.head_base)
       program)

let test_zlib_sgx_attack_lowercase () =
  let t = prng () in
  let input = Bytes.of_string (Prng.lowercase_string t 1000) in
  let r = Zlib_sgx_attack.run input in
  Alcotest.(check bool) "near-full recovery" true
    (r.Zlib_sgx_attack.byte_accuracy > 0.99)

let test_zlib_sgx_attack_direct_bits () =
  let t = prng () in
  let input = Prng.bytes t 1000 in
  let r = Zlib_sgx_attack.run input in
  Alcotest.(check bool) "25% unconditional leak read" true
    (r.Zlib_sgx_attack.direct_bits_accuracy > 0.98)

let test_zlib_sgx_attack_edges () =
  Alcotest.(check int) "empty" 0
    (Bytes.length (Zlib_sgx_attack.run Bytes.empty).Zlib_sgx_attack.recovered);
  Alcotest.(check int) "two bytes" 2
    (Bytes.length (Zlib_sgx_attack.run (Bytes.of_string "ab")).Zlib_sgx_attack.recovered)

let test_zlib_resolve_candidates () =
  let t = prng () in
  let input = Prng.bytes t 400 in
  let head_base = Zlib_sgx_attack.head_base in
  let truth =
    Array.map
      (fun h -> Recovery.zlib_observe ~head_base ~ins_h:h)
      (Lz77.hash_head_trace input)
  in
  let noisy =
    Array.map
      (fun obs ->
        if Prng.int t 12 = 0 then
          [ obs; Recovery.zlib_observe ~head_base ~ins_h:(Prng.int t 0x8000) ]
        else [ obs ])
      truth
  in
  let resolved = Recovery.zlib_resolve_candidates ~head_base noisy in
  let ok = ref 0 in
  Array.iteri
    (fun k r -> if r = Some truth.(k) then incr ok)
    resolved;
  Alcotest.(check bool) "overlap redundancy resolves nearly all" true
    (float_of_int !ok /. float_of_int (Array.length truth) > 0.98)

(* ------------------------------------------------------------------ *)
(* Timer-stepping baseline *)

let test_timer_attack_runs () =
  let input = Prng.bytes (prng ()) 250 in
  let r = Timer_attack.run input in
  Alcotest.(check int) "recovers a full-length guess" 250
    (Bytes.length r.Timer_attack.recovered);
  Alcotest.(check bool) "took interrupts" true (r.Timer_attack.windows > 0)

let test_timer_attack_periodic_beats_jittery () =
  let input = Prng.bytes (prng ()) 300 in
  let run jitter =
    Timer_attack.run
      ~config:
        { Timer_attack.default_config with Timer_attack.interval_jitter = jitter }
      input
  in
  let periodic = run 0.0 and jittery = run 1.5 in
  Alcotest.(check bool) "periodic timer is informative" true
    (periodic.Timer_attack.bit_accuracy > 0.75);
  Alcotest.(check bool) "jitter degrades the channel" true
    (jittery.Timer_attack.bit_accuracy < periodic.Timer_attack.bit_accuracy)

let test_timer_attack_below_controlled_channel () =
  let input = Prng.bytes (prng ()) 300 in
  let timer = Timer_attack.run input in
  let ctrl = Sgx_attack.run input in
  Alcotest.(check bool) "controlled channel wins" true
    (ctrl.Sgx_attack.bit_accuracy > timer.Timer_attack.bit_accuracy)

(* ------------------------------------------------------------------ *)
(* Memory-compression oracle (E19) *)

let test_memcomp_page_separates_truth () =
  (* A page reflecting the true secret byte must compress strictly
     smaller than one reflecting a wrong guess: the "key=<byte>" probe
     extends an LZ4 match into the secret marker. *)
  let page = Memcomp.Page.create ~seed:11 () in
  let secret = Memcomp.Page.secret page in
  let truth = String.make 1 secret.[0] in
  let wrong = if truth = "0" then "1" else "0" in
  let size g =
    Bytes.length
      (Zipchannel_compress.Lz4.compress
         (Memcomp.Page.render page ~guess:g ~pad:0))
  in
  Alcotest.(check bool) "true guess compresses smaller" true
    (size truth < size wrong)

let test_memcomp_ratio_recovery () =
  let r = Memcomp.run ~seed:7 ~secret_len:8 ~oracle:Memcomp.Ratio () in
  Alcotest.(check int) "all positions probed" 8 r.Memcomp.positions;
  Alcotest.(check bool) "recovers >= 75% of bytes" true
    (r.Memcomp.per_byte_rate >= 0.75);
  Alcotest.(check int) "recovered string is full length" 8
    (String.length r.Memcomp.recovered)

let test_memcomp_timing_recovery () =
  let r = Memcomp.run ~seed:7 ~secret_len:8 ~oracle:Memcomp.Timing () in
  Alcotest.(check bool) "noisy oracle still recovers >= 75%" true
    (r.Memcomp.per_byte_rate >= 0.75);
  Alcotest.(check bool) "channel carries information" true
    (r.Memcomp.capacity_bits > 0.)

let test_memcomp_jobs_invariant () =
  (* Probe noise is keyed by probe coordinates, not a shared stream, so
     the whole result record is identical at any fan-out. *)
  let run jobs =
    Memcomp.run ~seed:3 ~secret_len:4 ~oracle:Memcomp.Timing ~jobs ()
  in
  Alcotest.(check bool) "jobs 1 = jobs 4" true (run 1 = run 4)

let test_memcomp_seed_changes_secret () =
  let secret seed = Memcomp.Page.secret (Memcomp.Page.create ~seed ()) in
  Alcotest.(check bool) "different seeds, different secrets" false
    (secret 1 = secret 2);
  Alcotest.(check bool) "same seed, same secret" true (secret 5 = secret 5)

(* The per-frame length oracle against framed RFC 1951 deflate, at the
   CI daemon smoke's settings but in process: 64-byte frames leak every
   digit of a 4-digit secret. *)
let test_chunk_oracle_recovers () =
  match
    Chunk_oracle.sweep ~seed:7 ~secret_len:4 ~body_len:2048 ~trials:1
      ~frame_sizes:[ 64 ]
      ~mk_probe:(fun ~frame_size ->
        Chunk_oracle.local_probe ~codec:Zipchannel_compress.Frame.Deflate
          ~frame_size ())
      ()
  with
  | [ r ] ->
      Alcotest.(check (pair int int)) "positions recovered" (4, 4)
        (r.Chunk_oracle.per_byte_correct, r.Chunk_oracle.positions);
      Alcotest.(check bool) "channel carries information" true
        (r.Chunk_oracle.capacity_bits > 0.)
  | l -> Alcotest.failf "%d results for one frame size" (List.length l)

let test_corpus_deterministic () =
  let a = Corpus.repetitiveness (Prng.create ~seed:5 ()) in
  let b = Corpus.repetitiveness (Prng.create ~seed:5 ()) in
  List.iter2
    (fun (_, x) (_, y) ->
      Alcotest.(check bool) "same contents" true (Bytes.equal x y))
    a b

let suite =
  ( "attack",
    [
      Alcotest.test_case "victim program shape" `Quick test_victim_program_shape;
      Alcotest.test_case "victim ftab addresses" `Quick test_victim_ftab_addresses_match_indices;
      Alcotest.test_case "victim layout" `Quick test_victim_layout_covers_program;
      Alcotest.test_case "zlib direct bits" `Quick test_zlib_direct_bits_exact;
      Alcotest.test_case "zlib lowercase recovery" `Quick test_zlib_lowercase_recovery;
      Alcotest.test_case "zlib uppercase recovery" `Quick test_zlib_lowercase_other_class;
      Alcotest.test_case "lzw candidates" `Quick test_lzw_candidates_include_truth;
      Alcotest.test_case "lzw recover known first" `Quick test_lzw_recover_with_known_first;
      Alcotest.test_case "lzw consistency" `Quick test_lzw_consistency_separates_candidates;
      Alcotest.test_case "lzw recover auto" `Quick test_lzw_recover_auto;
      Alcotest.test_case "lzw recover random" `Quick test_lzw_recover_random_data;
      Alcotest.test_case "bzip2 window" `Quick test_bzip2_window_contains_truth;
      Alcotest.test_case "bzip2 recover clean" `Quick test_bzip2_recover_clean_trace;
      Alcotest.test_case "bzip2 recover aligned" `Quick test_bzip2_recover_aligned_ftab;
      Alcotest.test_case "bzip2 recover losses" `Quick test_bzip2_recover_with_losses;
      Alcotest.test_case "bzip2 recover spurious" `Quick test_bzip2_recover_with_spurious_candidates;
      Alcotest.test_case "bzip2 recover empty" `Quick test_bzip2_recover_empty_trace;
      QCheck_alcotest.to_alcotest qcheck_bzip2_recover_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_lzw_recover_roundtrip;
      Alcotest.test_case "noise transition sets" `Quick test_noise_transition_targets_fixed_sets;
      Alcotest.test_case "noise background cos" `Quick test_noise_background_uses_cos;
      Alcotest.test_case "sgx attack accuracy" `Quick test_sgx_attack_full_accuracy;
      Alcotest.test_case "sgx attack empty" `Quick test_sgx_attack_empty_input;
      Alcotest.test_case "sgx attack deterministic" `Quick test_sgx_attack_deterministic;
      Alcotest.test_case "sgx ablation ordering" `Quick test_sgx_attack_ablation_ordering;
      Alcotest.test_case "sgx noiseless perfect" `Quick test_sgx_attack_noiseless_is_perfect;
      Alcotest.test_case "fingerprint timeline" `Quick test_fingerprint_timeline_structure;
      Alcotest.test_case "fingerprint activity" `Quick test_fingerprint_collect_sees_activity;
      Alcotest.test_case "fingerprint timeout" `Quick test_fingerprint_silent_trace_encodes_timeout;
      Alcotest.test_case "fingerprint features" `Quick test_fingerprint_features_dimension;
      Alcotest.test_case "corpus shapes" `Quick test_corpus_shapes;
      Alcotest.test_case "corpus deterministic" `Quick test_corpus_deterministic;
      Alcotest.test_case "zlib sgx program" `Quick test_zlib_sgx_program_shape;
      Alcotest.test_case "zlib sgx lowercase" `Quick test_zlib_sgx_attack_lowercase;
      Alcotest.test_case "zlib sgx direct bits" `Quick test_zlib_sgx_attack_direct_bits;
      Alcotest.test_case "zlib sgx edges" `Quick test_zlib_sgx_attack_edges;
      Alcotest.test_case "zlib resolve candidates" `Quick test_zlib_resolve_candidates;
      Alcotest.test_case "lzw sgx program" `Quick test_lzw_sgx_program_shape;
      Alcotest.test_case "lzw sgx text" `Quick test_lzw_sgx_attack_text;
      Alcotest.test_case "lzw sgx random" `Quick test_lzw_sgx_attack_random;
      Alcotest.test_case "lzw sgx edges" `Quick test_lzw_sgx_attack_edges;
      Alcotest.test_case "lzw candidates repair" `Quick
        test_lzw_recover_candidates_with_losses;
      Alcotest.test_case "timer attack runs" `Quick test_timer_attack_runs;
      Alcotest.test_case "timer periodic vs jittery" `Quick
        test_timer_attack_periodic_beats_jittery;
      Alcotest.test_case "timer below controlled channel" `Quick
        test_timer_attack_below_controlled_channel;
      Alcotest.test_case "memcomp page separates truth" `Quick
        test_memcomp_page_separates_truth;
      Alcotest.test_case "memcomp ratio recovery" `Quick
        test_memcomp_ratio_recovery;
      Alcotest.test_case "memcomp timing recovery" `Quick
        test_memcomp_timing_recovery;
      Alcotest.test_case "memcomp jobs invariant" `Quick
        test_memcomp_jobs_invariant;
      Alcotest.test_case "memcomp seed changes secret" `Quick
        test_memcomp_seed_changes_secret;
      Alcotest.test_case "chunk oracle recovers 64-byte frames" `Quick
        test_chunk_oracle_recovers;
    ] )
