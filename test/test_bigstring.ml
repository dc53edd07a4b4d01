(* Differential suite for the zero-copy bigstring pipeline.

   The optimized word-level paths (Bigstring, the bigstring-backed
   Bitio, the array-emitting LZ77, and the arena-driven bzip2 chain)
   must be byte-identical to the retained reference implementations
   (Bitio_ref, Oracles.Lz77_ref, Bzip2.compress_ref) on arbitrary
   inputs, at every block size and jobs count.  The arena tests pin the
   reuse discipline: same slot, same buffer, across blocks and after
   exceptions. *)

open Zipchannel_util
open Zipchannel_compress
module Bigstring = Zipchannel_buf.Bigstring
module Arena = Zipchannel_buf.Arena

let bytes_testable =
  Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%d bytes" (Bytes.length b))
    Bytes.equal

(* ------------------------------------------------------------------ *)
(* Bigstring word operations. *)

let test_word_roundtrips () =
  let big = Bigstring.create 64 in
  for i = 0 to 63 do
    Bigstring.set big i '\000'
  done;
  (* Unaligned offsets on purpose: the primitives must not assume
     alignment. *)
  Bigstring.set16u big 3 0xBEEF;
  Alcotest.(check int) "get16u" 0xBEEF (Bigstring.get16u big 3);
  Bigstring.set32u big 9 0xDEADBEEFl;
  Alcotest.(check int32) "get32u" 0xDEADBEEFl (Bigstring.get32u big 9);
  Bigstring.set64u big 17 0x0123456789ABCDEFL;
  Alcotest.(check int64) "get64u" 0x0123456789ABCDEFL (Bigstring.get64u big 17);
  (* Little-endian byte order: the low byte is first in memory. *)
  Alcotest.(check char) "16u low byte first" '\xEF' (Bigstring.get big 3);
  Alcotest.(check char) "16u high byte second" '\xBE' (Bigstring.get big 4);
  Alcotest.(check char) "64u low byte first" '\xEF' (Bigstring.get big 17);
  Alcotest.(check char) "64u high byte last" '\x01' (Bigstring.get big 24)

let test_bytes_word_roundtrip () =
  let b = Bytes.make 32 '\000' in
  Bigstring.bytes_set64u b 5 0x1122334455667788L;
  Alcotest.(check int64) "bytes_get64u" 0x1122334455667788L
    (Bigstring.bytes_get64u b 5);
  Alcotest.(check char) "low byte first" '\x88' (Bytes.get b 5)

let test_blit_roundtrip () =
  let src = Bytes.init 100 (fun i -> Char.chr (i * 7 mod 256)) in
  let big = Bigstring.create 120 in
  Bigstring.blit_of_bytes src ~src_off:10 big ~dst_off:3 ~len:80;
  let back = Bytes.make 80 '\000' in
  Bigstring.blit_to_bytes big ~src_off:3 back ~dst_off:0 ~len:80;
  Alcotest.check bytes_testable "blit roundtrip" (Bytes.sub src 10 80) back;
  let big2 = Bigstring.create 80 in
  Bigstring.blit big ~src_off:3 big2 ~dst_off:0 ~len:80;
  Alcotest.check bytes_testable "big-to-big blit"
    (Bytes.sub src 10 80)
    (Bigstring.to_bytes big2 ~off:0 ~len:80)

(* Naive reference for the word-at-a-time comparison. *)
let naive_common_prefix b i j ~limit =
  let k = ref 0 in
  while !k < limit && Bytes.get b (i + !k) = Bytes.get b (j + !k) do
    incr k
  done;
  !k

let qcheck_common_prefix =
  QCheck.Test.make ~name:"bigstring common_prefix = naive" ~count:500
    QCheck.(
      pair
        (string_gen_of_size Gen.(2 -- 300) (Gen.oneofl [ 'a'; 'b'; 'c' ]))
        (pair small_nat small_nat))
    (fun (s, (x, y)) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let i = x mod n and j = y mod n in
      let limit = n - max i j in
      let big = Bigstring.of_bytes b in
      Bigstring.common_prefix big i j ~limit = naive_common_prefix b i j ~limit)

(* A mismatch inside a word must cost no allocation: the LZ77 match
   extender ends every candidate on one, so a boxed intermediate there is
   a few words per input byte.  One differing byte at 3000; comparing
   offset 0 with [2200 - k] meets it at [800 + k], byte [k] of a
   word. *)
let test_common_prefix_allocation () =
  let b = Bytes.make 4096 'a' in
  Bytes.set b 3000 'b';
  let big = Bigstring.of_bytes b in
  let sum = ref 0 in
  let run () =
    for c = 0 to 9_999 do
      let k = c land 7 in
      sum := !sum + Bigstring.common_prefix big 0 (2200 - k) ~limit:900
    done
  in
  run ();
  Alcotest.(check int) "every call stops at the mismatch"
    (10_000 * 800 + (1250 * 28)) !sum;
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "10k mismatching common_prefix calls allocated %.0f minor words"
      words

(* ------------------------------------------------------------------ *)
(* Bitio vs Bitio_ref: writers on arbitrary op sequences, readers on
   arbitrary byte strings and read schedules. *)

let clip (v, c, lsb) = (v land ((1 lsl c) - 1), c, lsb)

let writer_ops_gen =
  QCheck.small_list QCheck.(triple (int_bound 0xffff) (int_range 0 16) bool)

let qcheck_writer_matches_ref =
  QCheck.Test.make ~name:"Bitio.Writer = Bitio_ref.Writer" ~count:500
    writer_ops_gen (fun ops ->
      let ops = List.map clip ops in
      let w = Bitio.Writer.create () in
      let r = Bitio_ref.Writer.create () in
      List.iter
        (fun (value, count, lsb) ->
          if lsb then begin
            Bitio.Writer.add_bits_lsb w ~value ~count;
            Bitio_ref.Writer.add_bits_lsb r ~value ~count
          end
          else begin
            Bitio.Writer.add_bits_msb w ~value ~count;
            Bitio_ref.Writer.add_bits_msb r ~value ~count
          end)
        ops;
      Bitio.Writer.bit_length w = Bitio_ref.Writer.bit_length r
      && Bytes.equal (Bitio.Writer.to_bytes w) (Bitio_ref.Writer.to_bytes r))

let qcheck_lsb_writer_matches_ref =
  QCheck.Test.make ~name:"Bitio.Lsb_writer = Bitio_ref.Lsb_writer" ~count:500
    (QCheck.small_list QCheck.(pair (int_bound 0xffff) (int_range 0 16)))
    (fun ops ->
      let w = Bitio.Lsb_writer.create () in
      let r = Bitio_ref.Lsb_writer.create () in
      List.iter
        (fun (v, count) ->
          let value = v land ((1 lsl count) - 1) in
          Bitio.Lsb_writer.add_bits w ~value ~count;
          Bitio_ref.Lsb_writer.add_bits r ~value ~count)
        ops;
      Bytes.equal (Bitio.Lsb_writer.to_bytes w) (Bitio_ref.Lsb_writer.to_bytes r))

(* A read schedule: bit counts (0..16) consumed alternately MSB/LSB
   from the same byte string by both readers, including reads that run
   off the end — Out_of_bits must fire at the same op. *)
let qcheck_reader_matches_ref =
  QCheck.Test.make ~name:"Bitio.Reader = Bitio_ref.Reader" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 40)) (small_list (int_range 0 16)))
    (fun (s, counts) ->
      let b = Bytes.of_string s in
      let fast = Bitio.Reader.create b in
      let ref_ = Bitio_ref.Reader.create b in
      List.for_all
        (fun c ->
          let lsb = c land 1 = 1 in
          let want =
            match
              if lsb then Bitio_ref.Reader.read_bits_lsb ref_ c
              else Bitio_ref.Reader.read_bits_msb ref_ c
            with
            | v -> Some v
            | exception Bitio_ref.Reader.Out_of_bits -> None
          in
          let got =
            match
              if lsb then Bitio.Reader.read_bits_lsb fast c
              else Bitio.Reader.read_bits_msb fast c
            with
            | v -> Some v
            | exception Bitio.Reader.Out_of_bits -> None
          in
          got = want
          && Bitio.Reader.bits_remaining fast
             = Bitio_ref.Reader.bits_remaining ref_)
        counts)

let qcheck_lsb_reader_matches_ref =
  QCheck.Test.make ~name:"Bitio.Lsb_reader = Bitio_ref.Lsb_reader" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 40)) (small_list (int_range 0 16)))
    (fun (s, counts) ->
      let b = Bytes.of_string s in
      let fast = Bitio.Lsb_reader.create b in
      let ref_ = Bitio_ref.Lsb_reader.create b in
      List.for_all
        (fun c ->
          let want =
            match Bitio_ref.Lsb_reader.read_bits ref_ c with
            | v -> Some v
            | exception Bitio_ref.Lsb_reader.Out_of_bits -> None
          in
          let got =
            match Bitio.Lsb_reader.read_bits fast c with
            | v -> Some v
            | exception Bitio.Lsb_reader.Out_of_bits -> None
          in
          got = want
          && Bitio.Lsb_reader.bits_remaining fast
             = Bitio_ref.Lsb_reader.bits_remaining ref_)
        counts)

(* ------------------------------------------------------------------ *)
(* LZ77: the bigstring tokenizer vs the retained Bytes reference. *)

let lz77_input_gen =
  (* Low alphabet maximizes matches (the interesting path); mixing in a
     plain string generator covers literal-heavy inputs.  The 40-140 KiB
     inputs cross the 32 KiB window, so the chains wrap [prev]'s ring:
     low-alphabet ones keep every chain full, periodic ones with a
     period near 32768 put the best match just inside or just outside
     the window.  Each case is tokenized whole and then cut to a second
     size, so the second run reads arena tables the first one left
     stale. *)
  let open QCheck.Gen in
  let low = oneofl [ 'a'; 'b'; 'z' ] and large = int_range 40_960 143_360 in
  let periodic =
    int_range 32_760 32_776 >>= fun period ->
    map2
      (fun n block -> String.init n (fun i -> block.[i mod period]))
      large
      (string_size ~gen:char (return period))
  in
  let input =
    frequency
      [
        (4, string_size ~gen:low (0 -- 2000));
        (2, string_size ~gen:char (0 -- 500));
        (1, string_size ~gen:low large);
        (1, periodic);
      ]
  in
  QCheck.make
    ~print:(fun (lazy_strategy, (s, cut)) ->
      Printf.sprintf "(lazy %b, %d bytes cut to %d)" lazy_strategy
        (String.length s) cut)
    (pair bool (input >>= fun s -> map (fun cut -> (s, cut)) (0 -- String.length s)))

let qcheck_lz77_matches_ref =
  QCheck.Test.make ~name:"Lz77.tokenize = tokenize_ref" ~count:300
    lz77_input_gen (fun (lazy_strategy, (s, cut)) ->
      let strategy = if lazy_strategy then Lz77.Lazy else Lz77.Greedy in
      List.for_all
        (fun b ->
          Array.to_list (Lz77.tokenize_array ~strategy b)
          = Oracles.Lz77_ref.tokenize ~strategy b)
        [ Bytes.of_string s; Bytes.of_string (String.sub s 0 cut) ])

(* ------------------------------------------------------------------ *)
(* Bzip2: the arena pipeline vs the sequential Bytes-copy reference,
   across block sizes (forcing 1..n blocks) and jobs counts. *)

let qcheck_bzip2_matches_ref =
  QCheck.Test.make ~name:"Bzip2.compress = compress_ref" ~count:60
    QCheck.(
      pair
        (oneofl [ 16; 64; 1024; 10_000 ])
        (string_gen_of_size Gen.(0 -- 3000) (Gen.oneofl [ 'a'; 'b'; 'c'; 'z' ])))
    (fun (block_size, s) ->
      let input = Bytes.of_string s in
      let reference = Bzip2.compress_ref ~block_size input in
      Bytes.equal reference (Bzip2.compress ~block_size input)
      && Bytes.equal reference (Bzip2.compress ~block_size ~jobs:4 input)
      && Bytes.equal input (Bzip2.decompress reference))

let test_bzip2_matches_ref_corpus () =
  let prng = Prng.create ~seed:0xB16 () in
  let text = Bytes.of_string (Lipsum.repetitive_file prng ~level:4 ~size:30_000) in
  let random = Prng.bytes prng 20_000 in
  List.iter
    (fun (name, input) ->
      List.iter
        (fun jobs ->
          Alcotest.check bytes_testable
            (Printf.sprintf "%s jobs=%d" name jobs)
            (Bzip2.compress_ref input)
            (Bzip2.compress ~jobs input))
        [ 1; 4 ])
    [ ("repetitive 30k", text); ("random 20k", random) ]

(* ------------------------------------------------------------------ *)
(* Arena discipline. *)

let test_arena_slot_reuse () =
  Arena.with_arena (fun arena ->
      let a = Arena.ints arena ~slot:0 100 in
      a.(0) <- 41;
      (* Same slot, fitting request: the same buffer comes back, stale
         contents intact. *)
      let b = Arena.ints arena ~slot:0 50 in
      Alcotest.(check bool) "same buffer when it fits" true (a == b);
      Alcotest.(check int) "stale contents visible" 41 b.(0);
      (* Outgrowing the slot reallocates. *)
      let c = Arena.ints arena ~slot:0 (Array.length a + 1) in
      Alcotest.(check bool) "grown buffer is fresh" false (a == c);
      Alcotest.(check bool) "grown to at least n"
        true
        (Array.length c >= Array.length a + 1);
      (* Distinct slots never alias. *)
      let d = Arena.ints arena ~slot:1 10 in
      Alcotest.(check bool) "distinct slots distinct buffers" false (c == d);
      let by = Arena.bytes arena ~slot:0 64 in
      let bz = Arena.bytes arena ~slot:0 32 in
      Alcotest.(check bool) "bytes slot reused" true (by == bz);
      let g = Arena.big arena ~slot:0 64 in
      let h = Arena.big arena ~slot:0 16 in
      Alcotest.(check bool) "big slot reused" true (g == h))

let test_arena_nesting_and_reuse () =
  let outer = ref [||] in
  Arena.with_arena (fun a ->
      outer := Arena.ints a ~slot:0 32;
      Arena.with_arena (fun b ->
          let inner = Arena.ints b ~slot:0 32 in
          Alcotest.(check bool) "nested arenas are distinct" false
            (!outer == inner)));
  (* The arena went back to the free list: the next user of this domain
     gets the same underlying buffers. *)
  Arena.with_arena (fun a ->
      let again = Arena.ints a ~slot:0 32 in
      Alcotest.(check bool) "arena recycled after release" true (!outer == again))

let test_arena_released_on_exception () =
  let first = ref [||] in
  (try
     Arena.with_arena (fun a ->
         first := Arena.ints a ~slot:0 16;
         failwith "boom")
   with Failure _ -> ());
  Arena.with_arena (fun a ->
      let again = Arena.ints a ~slot:0 16 in
      Alcotest.(check bool) "arena recycled after exception" true
        (!first == again))

(* Sustained reuse: many different blocks through one domain's arena
   must keep producing reference-identical output (stale suffixes from
   larger earlier blocks must never leak into smaller later ones). *)
let test_arena_reuse_stress () =
  let prng = Prng.create ~seed:0x5713 () in
  for trial = 1 to 12 do
    (* Shrinking sizes force each block to run inside buffers dirtied by
       a strictly larger predecessor. *)
    let size = 400 + ((13 - trial) * 700) in
    let input =
      if trial mod 2 = 0 then Prng.bytes prng size
      else Bytes.of_string (Lipsum.repetitive_file prng ~level:3 ~size)
    in
    let block_size = if trial mod 3 = 0 then 512 else Bzip2.default_block_size in
    Alcotest.check bytes_testable
      (Printf.sprintf "trial %d (%d bytes)" trial size)
      (Bzip2.compress_ref ~block_size input)
      (Bzip2.compress ~block_size input)
  done

let suite =
  ( "bigstring",
    [
      Alcotest.test_case "word roundtrips" `Quick test_word_roundtrips;
      Alcotest.test_case "bytes word roundtrip" `Quick test_bytes_word_roundtrip;
      Alcotest.test_case "blit roundtrips" `Quick test_blit_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_common_prefix;
      Alcotest.test_case "common_prefix mismatch allocates nothing" `Quick
        test_common_prefix_allocation;
      QCheck_alcotest.to_alcotest qcheck_writer_matches_ref;
      QCheck_alcotest.to_alcotest qcheck_lsb_writer_matches_ref;
      QCheck_alcotest.to_alcotest qcheck_reader_matches_ref;
      QCheck_alcotest.to_alcotest qcheck_lsb_reader_matches_ref;
      QCheck_alcotest.to_alcotest qcheck_lz77_matches_ref;
      QCheck_alcotest.to_alcotest qcheck_bzip2_matches_ref;
      Alcotest.test_case "bzip2 = ref on corpus" `Quick
        test_bzip2_matches_ref_corpus;
      Alcotest.test_case "arena slot reuse" `Quick test_arena_slot_reuse;
      Alcotest.test_case "arena nesting + recycle" `Quick
        test_arena_nesting_and_reuse;
      Alcotest.test_case "arena recycle on exception" `Quick
        test_arena_released_on_exception;
      Alcotest.test_case "arena reuse stress" `Quick test_arena_reuse_stress;
    ] )
