(* The bzip2 production path against its references.

   [Bzip2.compress] sorts blocks with the comparison-free
   [Bwt.sort_rotations_sub]; [compress_with_info] and [compress_ref] run
   the [Block_sort] victim model.  Both sorters break ties between
   identical rotations by start index, so the three must agree byte for
   byte — periodic blocks, where whole classes of rotations tie and the
   tie order sets the primary index, are the inputs that could tell them
   apart.  The block body's Huffman lengths and MTF are checked against
   the boxed versions they replaced (oracles.ml). *)

open Zipchannel_util
open Zipchannel_compress
module Arena = Zipchannel_buf.Arena

(* ------------------------------------------------------------------ *)
(* Production sorter vs victim model *)

(* Periodic text over [period] distinct bytes from a random start; with
   [period = 1] one repeated byte.  Block sizes 16, 64 and 10000 are
   divisible by 2 but not by 3 or 7; 777 is divisible by 3 and 7 but not
   by 2 (RLE1 turns a repeated byte into period-5 runs first). *)
let periodic_gen max_len =
  QCheck.Gen.(
    map3
      (fun period first len ->
        Bytes.init len (fun i -> Char.chr ((first + (i mod period)) land 0xff)))
      (oneofl [ 1; 2; 3; 7 ]) (int_bound 255) (0 -- max_len))

let input_gen ?(max_len = 12_000) () =
  QCheck.Gen.(
    frequency
      [
        (3, periodic_gen max_len);
        ( 1,
          map Bytes.of_string
            (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'z' ])
               (0 -- min 3000 max_len)) );
        (1, map Bytes.of_string (string_size (0 -- min 3000 max_len)));
      ])

let qcheck_sorters_agree =
  QCheck.Test.make ~name:"compress = compress_with_info = compress_ref"
    ~count:40
    (QCheck.make
       ~print:(fun (bs, jobs, b) ->
         Printf.sprintf "block_size %d, jobs %d, %d bytes %S" bs jobs
           (Bytes.length b)
           (Bytes.sub_string b 0 (min 32 (Bytes.length b))))
       QCheck.Gen.(
         (* The victim model clears a 64 K-entry ftab per block, so the
            small block sizes get proportionally short inputs (up to 40
            blocks). *)
         oneofl [ 16; 64; 777; 10_000 ] >>= fun block_size ->
         map2
           (fun jobs input -> (block_size, jobs, input))
           (oneofl [ 1; 4 ])
           (input_gen ~max_len:(min 12_000 (40 * block_size)) ())))
    (fun (block_size, jobs, input) ->
      let reference = Bzip2.compress_ref ~block_size input in
      let production = Bzip2.compress ~block_size ~jobs input in
      let victim, infos = Bzip2.compress_with_info ~block_size ~jobs input in
      Bytes.equal reference production
      && Bytes.equal reference victim
      && List.length infos
         = (Bytes.length (Rle1.encode input) + block_size - 1) / block_size
      && Bytes.equal input (Bzip2.decompress production))

(* The same agreement on every (block size, jobs, period) combination,
   whatever the qcheck seed draws: full blocks plus a short last one. *)
let test_sorters_agree_sweep () =
  List.iter
    (fun block_size ->
      List.iter
        (fun period ->
          let len = min 12_000 ((2 * block_size) + 5) in
          let input =
            Bytes.init len (fun i -> Char.chr (0x61 + (i mod period)))
          in
          let reference = Bzip2.compress_ref ~block_size input in
          List.iter
            (fun jobs ->
              let name =
                Printf.sprintf "block %d, period %d, jobs %d" block_size period
                  jobs
              in
              Alcotest.(check bool) name true
                (Bytes.equal reference (Bzip2.compress ~block_size ~jobs input)
                && Bytes.equal reference
                     (fst (Bzip2.compress_with_info ~block_size ~jobs input))))
            [ 1; 4 ])
        [ 1; 2; 3; 7 ])
    [ 16; 64; 777; 10_000 ]

(* The victim model's control flow, pinned: which sort functions ran and
   how much work each did.  The fingerprinting attack and E-experiments
   read exactly these values. *)
let test_victim_paths_pinned () =
  let segments input =
    let _, infos = Bzip2.compress_with_info input in
    List.map
      (fun (i : Bzip2.block_info) ->
        ( i.length,
          i.path.Block_sort.abandoned,
          List.map
            (fun (s : Block_sort.segment) ->
              ( (match s.func with
                | Block_sort.Main_sort -> "main"
                | Fallback_sort -> "fallback"),
                s.work ))
            i.path.segments ))
      infos
  in
  let check name input expected =
    Alcotest.(check (list (triple int bool (list (pair string int)))))
      name expected (segments input)
  in
  check "random 25k"
    (Prng.bytes (Prng.create ~seed:0x5047 ()) 25_000)
    [
      (10_000, false, [ ("main", 10_762) ]);
      (10_000, false, [ ("main", 10_814) ]);
      (5_000, false, [ ("fallback", 337_644) ]);
    ];
  check "text 20k"
    (Bytes.of_string
       (Lipsum.repetitive_file (Prng.create ~seed:0x5048 ()) ~level:4
          ~size:20_000))
    [
      (10_000, true, [ ("main", 300_001); ("fallback", 2_890_290) ]);
      (10_000, true, [ ("main", 300_001); ("fallback", 2_890_172) ]);
    ];
  check "period 3, 12k"
    (Bytes.init 12_000 (fun i -> "xyz".[i mod 3]))
    [
      (10_000, true, [ ("main", 300_001); ("fallback", 5_107_792) ]);
      (2_000, false, [ ("fallback", 681_026) ]);
    ];
  check "period 2, 10k"
    (Bytes.init 10_000 (fun i -> "xy".[i mod 2]))
    [ (10_000, true, [ ("main", 300_001); ("fallback", 5_266_459) ]) ]

(* The slice-and-arena sorter against the whole-buffer one, through one
   arena on shrinking slices, so every sort runs in scratch a larger
   predecessor left dirty. *)
let qcheck_sort_rotations_sub =
  QCheck.Test.make ~name:"Bwt.sort_rotations_sub = sort_rotations" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 4)
        (pair (int_bound 50) (make ~print:Bytes.to_string (input_gen ()))))
    (fun cases ->
      let cases =
        List.sort
          (fun (_, a) (_, b) -> compare (Bytes.length b) (Bytes.length a))
          cases
      in
      Arena.with_arena (fun arena ->
          List.for_all
            (fun (off, block) ->
              let off = min off (Bytes.length block) in
              let len = Bytes.length block - off in
              let expected = Bwt.sort_rotations (Bytes.sub block off len) in
              let perm = Bwt.sort_rotations_sub ~arena block ~off ~len in
              expected = Array.sub perm 0 len)
            cases))

(* Both slice entries read with unchecked loads, so a slice outside the
   buffer must be refused up front. *)
let test_slice_bounds () =
  let b = Bytes.make 10 'x' in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises "sort_rotations_sub"
        (Invalid_argument "Bwt.sort_rotations_sub") (fun () ->
          ignore (Bwt.sort_rotations_sub b ~off ~len));
      Alcotest.check_raises "Mtf.encode_sub" (Invalid_argument "Mtf.encode_sub")
        (fun () -> ignore (Mtf.encode_sub b ~off ~len)))
    [ (-1, 2); (0, 11); (8, 3); (3, -1) ]

(* ------------------------------------------------------------------ *)
(* Huffman code lengths vs the tuple heap *)

let qcheck_lengths_of_freqs =
  QCheck.Test.make ~name:"lengths_of_freqs = tuple-heap oracle" ~count:500
    QCheck.(
      pair (oneofl [ 5; 7; 9; 15 ])
        (array_of_size Gen.(0 -- 300)
           (make
              Gen.(
                frequency
                  [ (2, return 0); (3, 1 -- 4); (3, 1 -- 1000); (1, 1 -- 100_000) ]))))
    (fun (max_length, freqs) ->
      let used = Array.fold_left (fun a f -> if f > 0 then a + 1 else a) 0 freqs in
      QCheck.assume (used <= 1 lsl max_length);
      let expected = Oracles.Huffman_ref.lengths_of_freqs ~max_length freqs in
      (* The in-place variant at an offset into wider tables, with stale
         scratch, writes only its own range. *)
      let n = Array.length freqs and off = 3 in
      let wide = Array.make (n + 6) 7 and lengths = Array.make (n + 6) 99 in
      Array.blit freqs 0 wide off n;
      let scratch = Array.make (Huffman.scratch_size n) (-5) in
      Huffman.lengths_of_freqs_into ~max_length wide ~off ~len:n ~scratch ~lengths;
      Huffman.lengths_of_freqs ~max_length freqs = expected
      && Array.sub lengths off n = expected
      && Array.sub lengths 0 off = [| 99; 99; 99 |]
      && Array.sub lengths (off + n) 3 = [| 99; 99; 99 |])

(* Fibonacci weights build the deepest possible tree: [k] symbols reach
   depth [k - 1], so a small [max_length] forces the overflow repair. *)
let test_overflow_repair () =
  let fib k =
    let a = Array.make k 1 in
    for i = 2 to k - 1 do
      a.(i) <- a.(i - 1) + a.(i - 2)
    done;
    a
  in
  let deepest = Array.fold_left max 0 in
  let kraft ~max_length lengths =
    Array.fold_left
      (fun acc l -> if l > 0 then acc + (1 lsl (max_length - l)) else acc)
      0 lengths
  in
  List.iter
    (fun (k, max_length) ->
      let freqs = fib k in
      let name = Printf.sprintf "fib %d, max_length %d" k max_length in
      let lengths = Huffman.lengths_of_freqs ~max_length freqs in
      Alcotest.(check (array int)) name
        (Oracles.Huffman_ref.lengths_of_freqs ~max_length freqs)
        lengths;
      Alcotest.(check int) (name ^ ": capped") max_length (deepest lengths);
      Alcotest.(check int) (name ^ ": Kraft-complete") (1 lsl max_length)
        (kraft ~max_length lengths);
      (* Shuffled symbol order and zero-frequency gaps change tie order
         and node numbering, not the agreement. *)
      let gappy = Array.make (3 * k) 0 in
      Array.iteri (fun i f -> gappy.((i * 7) mod (3 * k)) <- f) freqs;
      Alcotest.(check (array int)) (name ^ ", gappy")
        (Oracles.Huffman_ref.lengths_of_freqs ~max_length gappy)
        (Huffman.lengths_of_freqs ~max_length gappy))
    [ (19, 7); (12, 7); (30, 15); (25, 9) ];
  (* Uncapped Fibonacci lengths are the tree depths, untouched. *)
  Alcotest.(check int) "fib 12 uncapped" 11
    (deepest (Huffman.lengths_of_freqs ~max_length:15 (fib 12)))

(* ------------------------------------------------------------------ *)
(* The decode table vs the bit-serial canonical decoder *)

(* Length arrays of every shape: complete codes from frequencies,
   incomplete ones (a complete code with symbols dropped), and arbitrary
   lengths, which are mostly oversubscribed. *)
let lengths_gen =
  QCheck.Gen.(
    int_range 1 15 >>= fun max_length ->
    int_range 1 288 >>= fun n ->
    let complete =
      array_size (return n) (frequency [ (1, return 0); (3, 1 -- 1000) ])
      >|= fun freqs ->
      let used = Array.fold_left (fun a f -> if f > 0 then a + 1 else a) 0 freqs in
      (* keep the used symbols within what [max_length] bits can code *)
      let excess = ref (used - (1 lsl max_length)) in
      Array.iteri
        (fun s f -> if f > 0 && !excess > 0 then begin freqs.(s) <- 0; decr excess end)
        freqs;
      Huffman.lengths_of_freqs ~max_length freqs
    in
    frequency
      [
        (2, complete);
        ( 2,
          pair complete (array_size (return n) bool) >|= fun (lengths, drop) ->
          Array.mapi (fun s l -> if drop.(s) then 0 else l) lengths );
        (2, array_size (return n) (0 -- max_length));
      ])

(* Every symbol, failure and reader position of one decoder over one
   stream, until it fails. *)
type step = Sym of int * int | Fail of string * int | Out_of_bits of int

let trace ~read ~remaining =
  let rec go acc =
    match read () with
    | s -> go (Sym (s, remaining ()) :: acc)
    | exception Failure m -> List.rev (Fail (m, remaining ()) :: acc)
    | exception (Bitio.Reader.Out_of_bits | Bitio.Lsb_reader.Out_of_bits) ->
        List.rev (Out_of_bits (remaining ()) :: acc)
  in
  go []

let qcheck_decode_table =
  QCheck.Test.make ~name:"decode table = bit-serial decoder" ~count:1000
    QCheck.(
      triple (make lengths_gen)
        (string_of_size Gen.(0 -- 80))
        (pair (int_bound 8) (int_bound 8)))
    (fun (lengths, s, (cut_front, cut_back)) ->
      let b = Bytes.of_string s in
      (* A slice of the buffer, so that the bytes past its end are not
         zero and a peek past the end must mask them. *)
      let start = min cut_front (Bytes.length b) in
      let len = max 0 (Bytes.length b - start - cut_back) in
      let table = Huffman.decoder_of_lengths lengths in
      let lsb_table = Huffman.lsb_decoder_of_lengths lengths in
      let oracle = Oracles.Huffman_ref.decoder_of_lengths lengths in
      let msb () =
        let r = Bitio.Reader.create ~start ~len b in
        let r' = Bitio.Reader.create ~start ~len b in
        ( trace
            ~read:(fun () -> Huffman.read_symbol r table)
            ~remaining:(fun () -> Bitio.Reader.bits_remaining r),
          trace
            ~read:(fun () ->
              Oracles.Huffman_ref.read_symbol_bits
                (fun () -> Bitio.Reader.read_bit r')
                oracle)
            ~remaining:(fun () -> Bitio.Reader.bits_remaining r') )
      in
      let lsb () =
        let r = Bitio.Lsb_reader.create ~start ~len b in
        let r' = Bitio.Lsb_reader.create ~start ~len b in
        ( trace
            ~read:(fun () -> Huffman.read_symbol_lsb r lsb_table)
            ~remaining:(fun () -> Bitio.Lsb_reader.bits_remaining r),
          trace
            ~read:(fun () ->
              Oracles.Huffman_ref.read_symbol_bits
                (fun () -> Bitio.Lsb_reader.read_bit r')
                oracle)
            ~remaining:(fun () -> Bitio.Lsb_reader.bits_remaining r') )
      in
      let got, want = msb () in
      let got', want' = lsb () in
      got = want && got' = want')

(* [Huffman.read_symbols] against the bit-serial decoder: runs of
   [run] symbols that end early at [stop] give the oracle's symbols in
   order, its reader position after each run, and its failure and
   final position.  Streams up to 200 bytes reach the register loop,
   which stops 8 bytes before the end of the slice. *)
let qcheck_symbol_runs =
  QCheck.Test.make ~name:"symbol runs = bit-serial decoder" ~count:1000
    QCheck.(
      triple (make lengths_gen)
        (string_of_size Gen.(0 -- 200))
        (triple (int_bound 8) (int_bound 8) (pair (int_range 1 60) (int_bound 300))))
    (fun (lengths, s, (cut_front, cut_back, (run, stop))) ->
      let b = Bytes.of_string s in
      let start = min cut_front (Bytes.length b) in
      let len = max 0 (Bytes.length b - start - cut_back) in
      let table = Huffman.decoder_of_lengths lengths in
      let oracle = Oracles.Huffman_ref.decoder_of_lengths lengths in
      let r' = Bitio.Reader.create ~start ~len b in
      let want =
        trace
          ~read:(fun () ->
            Oracles.Huffman_ref.read_symbol_bits
              (fun () -> Bitio.Reader.read_bit r')
              oracle)
          ~remaining:(fun () -> Bitio.Reader.bits_remaining r')
      in
      (* The oracle's trace as whole runs, each ending after [run]
         symbols or after [stop], with the position kept only where a
         run ends; a run that fails returns none of its symbols. *)
      let rec at_run_ends pending = function
        | Sym (s, rem) :: rest ->
            if List.length pending + 1 = run || s = stop then
              List.rev (Sym (s, rem) :: pending) @ at_run_ends [] rest
            else at_run_ends (Sym (s, -1) :: pending) rest
        | last -> last
      in
      let r = Bitio.Reader.create ~start ~len b in
      let dst = Array.make run 0 in
      let rec go acc =
        match Huffman.read_symbols r table dst ~at:0 ~count:run ~stop with
        | got ->
            let rem = Bitio.Reader.bits_remaining r in
            go
              (List.rev_append
                 (List.init got (fun k -> Sym (dst.(k), if k = got - 1 then rem else -1)))
                 acc)
        | exception Failure m -> List.rev (Fail (m, Bitio.Reader.bits_remaining r) :: acc)
        | exception Bitio.Reader.Out_of_bits ->
            List.rev (Out_of_bits (Bitio.Reader.bits_remaining r) :: acc)
      in
      go [] = at_run_ends [] want)

(* ------------------------------------------------------------------ *)
(* MTF vs the int-array recency list *)

let qcheck_mtf_encode =
  QCheck.Test.make ~name:"Mtf.encode = int-array oracle" ~count:300
    QCheck.(
      oneof
        [
          string_of_size Gen.(0 -- 4000);
          string_gen_of_size Gen.(0 -- 4000) (Gen.oneofl [ 'a'; 'b'; '\000'; '\255' ]);
        ])
    (fun s ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let off = n / 3 in
      let expected = Oracles.Mtf_ref.encode b in
      Mtf.encode b = expected
      && Array.sub (Mtf.encode_sub b ~off ~len:(n - off)) 0 (n - off)
         = Oracles.Mtf_ref.encode (Bytes.sub b off (n - off))
      && Bytes.equal (Mtf.decode expected) b)

let qcheck_mtf_decode =
  QCheck.Test.make ~name:"Mtf.decode = int-array oracle" ~count:300
    QCheck.(array_of_size Gen.(0 -- 4000) (int_bound 255))
    (fun symbols ->
      Bytes.equal (Mtf.decode symbols) (Oracles.Mtf_ref.decode symbols))

let qcheck_rle1_encode =
  QCheck.Test.make ~name:"Rle1.encode = Buffer oracle" ~count:300
    QCheck.(
      oneof
        [
          string_of_size Gen.(0 -- 2000);
          (* Runs of every length around 4 and 255, of a few bytes. *)
          map
            (fun runs ->
              String.concat ""
                (List.map (fun (c, len) -> String.make len c) runs))
            (small_list
               (pair
                  (make (Gen.oneofl [ 'a'; 'b'; '\000' ]))
                  (make
                     Gen.(
                       frequency
                         [ (3, 1 -- 6); (1, 250 -- 262); (1, 500 -- 520) ]))));
        ])
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal (Rle1.encode b) (Oracles.Rle1_ref.encode b))

(* The packed code table and the symbol-run writer write the bits of
   [canonical_codes] and one [write_symbol] per symbol, from any bit
   position of the writer; a symbol without a code stops both with the
   same error after the same bits. *)
let qcheck_symbol_writer =
  QCheck.Test.make ~name:"write_symbols = write_symbol per symbol" ~count:300
    QCheck.(
      triple (int_bound 7)
        (array_of_size Gen.(2 -- 300) (make Gen.(frequency [ (1, return 0); (3, 1 -- 1000) ])))
        (small_list (int_bound 1_000_000)))
    (fun (lead, freqs, picks) ->
      let n = Array.length freqs in
      let lengths = Huffman.lengths_of_freqs freqs in
      let coded = List.filter (fun s -> lengths.(s) > 0) (List.init n Fun.id) in
      QCheck.assume (coded <> []);
      let coded = Array.of_list coded in
      let symbols =
        Array.of_list (List.map (fun p -> coded.(p mod Array.length coded)) picks)
      in
      let off = 2 and base = 5 in
      let packed = Array.make (base + n) (-1) in
      Huffman.packed_codes_into (Array.append (Array.make base 0) lengths)
        ~off:base ~len:n packed;
      let one = Bitio.Writer.create () and run = Bitio.Writer.create () in
      List.iter
        (fun w -> Bitio.Writer.add_bits_msb w ~value:0 ~count:lead)
        [ one; run ];
      let symbols =
        match List.find_opt (fun s -> lengths.(s) = 0) (List.init n Fun.id) with
        | Some s -> Array.append symbols [| s |]
        | None -> symbols
      in
      let outcome f =
        match f () with () -> "ok" | exception Invalid_argument e -> e
      in
      let codes = Huffman.canonical_codes lengths in
      let one_result =
        outcome (fun () -> Array.iter (Huffman.write_symbol one codes) symbols)
      in
      let run_result =
        outcome (fun () ->
            Huffman.write_symbols run packed ~base
              (Array.append [| 0; 0 |] symbols)
              ~off ~len:(Array.length symbols))
      in
      one_result = run_result
      && Bytes.equal (Bitio.Writer.to_bytes one) (Bitio.Writer.to_bytes run)
      && Bitio.Writer.bit_length one = Bitio.Writer.bit_length run)

let suite =
  ( "oracles",
    [
      QCheck_alcotest.to_alcotest qcheck_sorters_agree;
      Alcotest.test_case "sorters agree: sizes x jobs x periods" `Quick
        test_sorters_agree_sweep;
      Alcotest.test_case "victim model paths pinned" `Quick
        test_victim_paths_pinned;
      QCheck_alcotest.to_alcotest qcheck_sort_rotations_sub;
      Alcotest.test_case "slice bounds checked" `Quick test_slice_bounds;
      QCheck_alcotest.to_alcotest qcheck_lengths_of_freqs;
      Alcotest.test_case "overflow repair (Fibonacci weights)" `Quick
        test_overflow_repair;
      QCheck_alcotest.to_alcotest qcheck_mtf_encode;
      QCheck_alcotest.to_alcotest qcheck_mtf_decode;
      QCheck_alcotest.to_alcotest qcheck_decode_table;
      QCheck_alcotest.to_alcotest qcheck_symbol_runs;
      QCheck_alcotest.to_alcotest qcheck_rle1_encode;
      QCheck_alcotest.to_alcotest qcheck_symbol_writer;
    ] )
