(* The optimized kernels must be observationally identical to the
   reference implementations: same bytes out of the bit writers, same
   values out of the readers, same permutation AND work count out of the
   BWT, same tokens out of LZ77, and the same compressed bytes whatever
   [jobs] count the block pipeline runs with. *)

open Zipchannel_util
open Zipchannel_compress
module Pool = Zipchannel_parallel.Pool

let bytes_testable =
  Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%d bytes" (Bytes.length b))
    Bytes.equal

(* ------------------------------------------------------------------ *)
(* Bit-by-bit reference model for Bitio (the seed implementation). *)

module Ref_bits = struct
  (* A stream is a bool list; packing conventions mirror bitio.mli. *)
  let bits_msb value count =
    List.init count (fun i -> (value lsr (count - 1 - i)) land 1 = 1)

  let bits_lsb value count = List.init count (fun i -> (value lsr i) land 1 = 1)

  let pack_msb bits =
    let n = List.length bits in
    let out = Bytes.make ((n + 7) / 8) '\000' in
    List.iteri
      (fun k b ->
        if b then
          Bytes.set out (k / 8)
            (Char.chr (Char.code (Bytes.get out (k / 8)) lor (0x80 lsr (k mod 8)))))
      bits;
    out

  let pack_lsb bits =
    let n = List.length bits in
    let out = Bytes.make ((n + 7) / 8) '\000' in
    List.iteri
      (fun k b ->
        if b then
          Bytes.set out (k / 8)
            (Char.chr (Char.code (Bytes.get out (k / 8)) lor (1 lsl (k mod 8)))))
      bits;
    out
end

(* Ops: (value, count, use_lsb_order).  Interleaving MSB- and LSB-ordered
   appends exercises the accumulator across every internal alignment. *)
let ops_gen =
  QCheck.small_list
    QCheck.(triple (int_bound 0xffff) (int_range 0 16) bool)

let clip (v, c, lsb) = (v land ((1 lsl c) - 1), c, lsb)

let qcheck_writer_matches_reference =
  QCheck.Test.make ~name:"bitio word writer = per-bit reference" ~count:500
    ops_gen (fun ops ->
      let ops = List.map clip ops in
      let w = Bitio.Writer.create () in
      List.iter
        (fun (value, count, lsb) ->
          if lsb then Bitio.Writer.add_bits_lsb w ~value ~count
          else Bitio.Writer.add_bits_msb w ~value ~count)
        ops;
      let expected =
        Ref_bits.pack_msb
          (List.concat_map
             (fun (v, c, lsb) ->
               if lsb then Ref_bits.bits_lsb v c else Ref_bits.bits_msb v c)
             ops)
      in
      Bytes.equal (Bitio.Writer.to_bytes w) expected)

let qcheck_writer_append_matches_contiguous =
  QCheck.Test.make ~name:"bitio writer append = contiguous writes" ~count:500
    QCheck.(pair ops_gen ops_gen)
    (fun (a, b) ->
      let a = List.map clip a and b = List.map clip b in
      let write w ops =
        List.iter
          (fun (value, count, lsb) ->
            if lsb then Bitio.Writer.add_bits_lsb w ~value ~count
            else Bitio.Writer.add_bits_msb w ~value ~count)
          ops
      in
      let contiguous = Bitio.Writer.create () in
      write contiguous a;
      write contiguous b;
      let spliced = Bitio.Writer.create () in
      write spliced a;
      let sub = Bitio.Writer.create () in
      write sub b;
      Bitio.Writer.append spliced sub;
      Bitio.Writer.bit_length spliced = Bitio.Writer.bit_length contiguous
      && Bytes.equal
           (Bitio.Writer.to_bytes spliced)
           (Bitio.Writer.to_bytes contiguous))

let qcheck_msb_reader_matches_reference =
  QCheck.Test.make ~name:"bitio word reader = per-bit reference" ~count:500
    QCheck.(
      pair (small_list (int_range 0 16)) (string_of_size Gen.(0 -- 64)))
    (fun (counts, data) ->
      let data = Bytes.of_string data in
      (* Reference: one bit at a time through read_bit. *)
      let ref_reader counts =
        let r = Bitio.Reader.create data in
        List.map
          (fun c ->
            let msb = ref 0 and lsb = ref 0 in
            (try
               for i = 0 to c - 1 do
                 let b = if Bitio.Reader.read_bit r then 1 else 0 in
                 msb := (!msb lsl 1) lor b;
                 lsb := !lsb lor (b lsl i)
               done
             with Bitio.Reader.Out_of_bits -> ());
            (!msb, !lsb))
          counts
      in
      (* Readers under test, stopping at the first exhaustion like the
         reference loop does. *)
      let fast_reader order counts =
        let r = Bitio.Reader.create data in
        List.map
          (fun c ->
            match order c r with v -> Some v | exception Bitio.Reader.Out_of_bits -> None)
          counts
      in
      let msb = fast_reader (fun c r -> Bitio.Reader.read_bits_msb r c) counts in
      let lsb = fast_reader (fun c r -> Bitio.Reader.read_bits_lsb r c) counts in
      let expected = ref_reader counts in
      List.for_all2
        (fun got (want_msb, _) ->
          match got with Some v -> v = want_msb | None -> true)
        msb expected
      && List.for_all2
           (fun got (_, want_lsb) ->
             match got with Some v -> v = want_lsb | None -> true)
           lsb expected)

let qcheck_lsb_reader_matches_reference =
  QCheck.Test.make ~name:"bitio lsb word reader = per-bit reference"
    ~count:500
    QCheck.(
      pair (small_list (int_range 0 16)) (string_of_size Gen.(0 -- 64)))
    (fun (counts, data) ->
      let data = Bytes.of_string data in
      let r_fast = Bitio.Lsb_reader.create data in
      let r_ref = Bitio.Lsb_reader.create data in
      List.for_all
        (fun c ->
          let want =
            let v = ref 0 in
            try
              for i = 0 to c - 1 do
                if Bitio.Lsb_reader.read_bit r_ref then v := !v lor (1 lsl i)
              done;
              Some !v
            with Bitio.Lsb_reader.Out_of_bits -> None
          in
          let got =
            match Bitio.Lsb_reader.read_bits r_fast c with
            | v -> Some v
            | exception Bitio.Lsb_reader.Out_of_bits -> None
          in
          got = want
          && Bitio.Lsb_reader.bits_remaining r_fast
             = Bitio.Lsb_reader.bits_remaining r_ref)
        counts)

(* ------------------------------------------------------------------ *)
(* BWT: fast paths vs the tuple-keyed reference. *)

let bwt_agrees input =
  let b = Bytes.of_string input in
  let ref_perm, ref_work = Oracles.Bwt_ref.sort_rotations_work b in
  let perm, work = Bwt.sort_rotations_work b in
  let radix_perm = Bwt.sort_rotations b in
  perm = ref_perm && work = ref_work && radix_perm = ref_perm

let qcheck_bwt_fast_matches_reference =
  QCheck.Test.make ~name:"fast bwt perm+work = reference" ~count:200
    QCheck.(string_of_size Gen.(0 -- 400))
    bwt_agrees

let qcheck_bwt_fast_matches_reference_low_alphabet =
  QCheck.Test.make ~name:"fast bwt perm+work = reference (low alphabet)"
    ~count:200
    QCheck.(string_gen_of_size Gen.(0 -- 400) (Gen.oneofl [ 'a'; 'b'; 'c' ]))
    bwt_agrees

(* The short strings are periodic.  The 10,000-byte ones need many
   doubling rounds: the paper's Fig. 8 files at every repetition level,
   a period-4 string, whose rotations repeat, and a period-3 one, whose
   rotations do not (3 does not divide 10,000). *)
let test_bwt_periodic_inputs () =
  let prng = Prng.create ~seed:0xB075 () in
  let periodic unit = String.init 10_000 (fun i -> unit.[i mod String.length unit]) in
  List.iter
    (fun (label, s) ->
      Alcotest.(check bool) ("agrees on " ^ label) true (bwt_agrees s))
    (List.map
       (fun s -> (Printf.sprintf "%S" s, s))
       [
         "";
         "a";
         "aa";
         "abab";
         "abcabcabc";
         String.make 257 'x';
         String.concat "" (List.init 64 (fun _ -> "na"));
       ]
    @ List.map
        (fun level ->
          ( Printf.sprintf "a 10,000-byte file at level %d" level,
            Lipsum.repetitive_file prng ~level ~size:10_000 ))
        [ 1; 2; 3; 4; 5 ]
    @ [
        ("10,000 bytes of period 4", periodic "abcd");
        ("10,000 bytes of period 3", periodic "abc");
      ])

(* ------------------------------------------------------------------ *)
(* LZ77 on large inputs. *)

let test_lz77_roundtrip_100k () =
  let prng = Prng.create ~seed:0xFA57 () in
  List.iter
    (fun (name, input, strategy) ->
      let tokens = Lz77.tokenize_array ~strategy input in
      Alcotest.check bytes_testable name input (Oracles.detokenize tokens))
    [
      ( "100k text greedy",
        Bytes.of_string (Lipsum.repetitive_file prng ~level:4 ~size:100_000),
        Lz77.Greedy );
      ( "100k text lazy",
        Bytes.of_string (Lipsum.repetitive_file prng ~level:4 ~size:100_000),
        Lz77.Lazy );
      ("100k random greedy", Prng.bytes prng 100_000, Lz77.Greedy);
      ("100k runs lazy", Bytes.make 100_000 'r', Lz77.Lazy);
    ]

let qcheck_lz77_roundtrip =
  QCheck.Test.make ~name:"lz77 fast tokenize roundtrips" ~count:100
    QCheck.(
      pair bool (string_gen_of_size Gen.(0 -- 2000) (Gen.oneofl [ 'a'; 'b'; 'z' ])))
    (fun (lazy_strategy, s) ->
      let strategy = if lazy_strategy then Lz77.Lazy else Lz77.Greedy in
      let b = Bytes.of_string s in
      Bytes.equal b (Oracles.detokenize (Lz77.tokenize_array ~strategy b)))

(* ------------------------------------------------------------------ *)
(* Parallel pipeline: jobs > 1 must be byte-identical to jobs = 1. *)

let test_pool_map_order () =
  let xs = Array.init 100 (fun i -> i) in
  let doubled = Pool.map_array ~jobs:4 (fun x -> 2 * x) xs in
  Alcotest.(check (array int)) "order preserved"
    (Array.map (fun x -> 2 * x) xs)
    doubled;
  Alcotest.(check (list int)) "list map"
    [ 2; 4; 6 ]
    (Pool.map_list ~jobs:3 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_pool_exception_propagates () =
  Alcotest.check_raises "exception surfaces" (Failure "boom") (fun () ->
      ignore
        (Pool.map_array ~jobs:4
           (fun x -> if x = 13 then failwith "boom" else x)
           (Array.init 64 (fun i -> i))))

let test_bzip2_jobs_equal () =
  let prng = Prng.create ~seed:0x0B21 () in
  (* Several blocks, mixing repetitive (abandons mainSort) and random. *)
  let text = Bytes.of_string (Lipsum.repetitive_file prng ~level:5 ~size:35_000) in
  let random = Prng.bytes prng 25_000 in
  List.iter
    (fun (name, input) ->
      let seq, seq_info = Bzip2.compress_with_info input in
      let par, par_info = Bzip2.compress_with_info ~jobs:4 input in
      Alcotest.check bytes_testable (name ^ " bytes") seq par;
      Alcotest.(check bool) (name ^ " block infos") true (seq_info = par_info);
      Alcotest.check bytes_testable (name ^ " roundtrip") input
        (Bzip2.decompress par))
    [ ("repetitive", text); ("random", random) ]

let test_archive_jobs_equal () =
  let prng = Prng.create ~seed:0xA6C4 () in
  let entries =
    List.init 9 (fun i ->
        {
          Container.Archive.name = Printf.sprintf "member-%d" i;
          data =
            (if i mod 2 = 0 then Prng.bytes prng 4_000
             else Bytes.of_string (Lipsum.repetitive_file prng ~level:3 ~size:6_000));
        })
  in
  let seq = Container.Archive.pack entries in
  let par = Container.Archive.pack ~jobs:4 entries in
  Alcotest.check bytes_testable "archive bytes" seq par;
  Alcotest.(check bool) "unpack restores entries" true
    (List.for_all2
       (fun a b ->
         a.Container.Archive.name = b.Container.Archive.name
         && Bytes.equal a.Container.Archive.data b.Container.Archive.data)
       entries
       (Container.Archive.unpack par))

let suite =
  ( "fastpath",
    [
      QCheck_alcotest.to_alcotest qcheck_writer_matches_reference;
      QCheck_alcotest.to_alcotest qcheck_writer_append_matches_contiguous;
      QCheck_alcotest.to_alcotest qcheck_msb_reader_matches_reference;
      QCheck_alcotest.to_alcotest qcheck_lsb_reader_matches_reference;
      QCheck_alcotest.to_alcotest qcheck_bwt_fast_matches_reference;
      QCheck_alcotest.to_alcotest qcheck_bwt_fast_matches_reference_low_alphabet;
      Alcotest.test_case "bwt periodic inputs" `Quick test_bwt_periodic_inputs;
      Alcotest.test_case "lz77 100k roundtrips" `Quick test_lz77_roundtrip_100k;
      QCheck_alcotest.to_alcotest qcheck_lz77_roundtrip;
      Alcotest.test_case "pool map order" `Quick test_pool_map_order;
      Alcotest.test_case "pool exceptions" `Quick test_pool_exception_propagates;
      Alcotest.test_case "bzip2 jobs=4 = jobs=1" `Quick test_bzip2_jobs_equal;
      Alcotest.test_case "archive jobs=4 = jobs=1" `Quick test_archive_jobs_equal;
    ] )
