open Zipchannel_util
open Zipchannel_compress

let prng () = Prng.create ~seed:0xC0FFEE ()

let bytes_testable =
  Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%S" (Bytes.to_string b))
    Bytes.equal

let roundtrip name compress decompress input =
  Alcotest.check bytes_testable name input (decompress (compress input))

(* ------------------------------------------------------------------ *)
(* Bitio *)

let test_bitio_msb_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits_msb w ~value:0x5 ~count:3;
  Bitio.Writer.add_bits_msb w ~value:0x1ff ~count:9;
  Bitio.Writer.add_bits_msb w ~value:0 ~count:1;
  let r = Bitio.Reader.create (Bitio.Writer.to_bytes w) in
  Alcotest.(check int) "first" 0x5 (Bitio.Reader.read_bits_msb r 3);
  Alcotest.(check int) "second" 0x1ff (Bitio.Reader.read_bits_msb r 9);
  Alcotest.(check int) "third" 0 (Bitio.Reader.read_bits_msb r 1)

let test_bitio_lsb_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits_lsb w ~value:0x123 ~count:9;
  Bitio.Writer.add_bits_lsb w ~value:0x45 ~count:7;
  let r = Bitio.Reader.create (Bitio.Writer.to_bytes w) in
  Alcotest.(check int) "first" 0x123 (Bitio.Reader.read_bits_lsb r 9);
  Alcotest.(check int) "second" 0x45 (Bitio.Reader.read_bits_lsb r 7)

let test_bitio_align () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bit w true;
  Bitio.Writer.align_byte w;
  Alcotest.(check int) "aligned to 8" 8 (Bitio.Writer.bit_length w);
  Bitio.Writer.add_bits_msb w ~value:0xab ~count:8;
  let r = Bitio.Reader.create (Bitio.Writer.to_bytes w) in
  ignore (Bitio.Reader.read_bit r);
  Bitio.Reader.align_byte r;
  Alcotest.(check int) "post-align byte" 0xab (Bitio.Reader.read_bits_msb r 8)

let test_bitio_out_of_bits () =
  let r = Bitio.Reader.create (Bytes.of_string "a") in
  ignore (Bitio.Reader.read_bits_msb r 8);
  Alcotest.check_raises "eof" Bitio.Reader.Out_of_bits (fun () ->
      ignore (Bitio.Reader.read_bit r))

let test_bitio_value_too_wide () =
  let w = Bitio.Writer.create () in
  Alcotest.check_raises "wide value"
    (Invalid_argument "Bitio.add_bits_msb: value too wide") (fun () ->
      Bitio.Writer.add_bits_msb w ~value:8 ~count:3)

let test_bitio_lsb_writer_reader () =
  let w = Bitio.Lsb_writer.create () in
  Bitio.Lsb_writer.add_bits w ~value:0x5 ~count:3;
  Bitio.Lsb_writer.add_bits w ~value:0x1a3 ~count:9;
  Bitio.Lsb_writer.add_bits w ~value:1 ~count:1;
  let r = Bitio.Lsb_reader.create (Bitio.Lsb_writer.to_bytes w) in
  Alcotest.(check int) "first" 0x5 (Bitio.Lsb_reader.read_bits r 3);
  Alcotest.(check int) "second" 0x1a3 (Bitio.Lsb_reader.read_bits r 9);
  Alcotest.(check int) "third" 1 (Bitio.Lsb_reader.read_bits r 1)

let test_bitio_lsb_byte_layout () =
  (* RFC 1951 convention: the first stream bit is the LSB of byte 0. *)
  let w = Bitio.Lsb_writer.create () in
  Bitio.Lsb_writer.add_bits w ~value:1 ~count:1;
  Bitio.Lsb_writer.add_bits w ~value:0 ~count:7;
  Alcotest.(check int) "bit 0 is the LSB" 1
    (Char.code (Bytes.get (Bitio.Lsb_writer.to_bytes w) 0))

let test_bitio_lsb_huffman_reversal () =
  (* A Huffman code is stored most significant bit first in the LSB-first
     stream: after the header bits 1, 1, 0, the fixed code 10010001 of 'a'
     and the 7 zero bits of end-of-block pack into zlib's bytes. *)
  Alcotest.(check string) "fixed block of \"a\"" "\x4b\x04\x00"
    (Bytes.to_string (Deflate.compress ~kind:Deflate.Fixed (Bytes.of_string "a")))

let test_bitio_lsb_align () =
  let w = Bitio.Lsb_writer.create () in
  Bitio.Lsb_writer.add_bits w ~value:1 ~count:1;
  Bitio.Lsb_writer.align_byte w;
  Bitio.Lsb_writer.add_bits w ~value:0xab ~count:8;
  let r = Bitio.Lsb_reader.create (Bitio.Lsb_writer.to_bytes w) in
  ignore (Bitio.Lsb_reader.read_bits r 1);
  Bitio.Lsb_reader.align_byte r;
  Alcotest.(check int) "aligned byte" 0xab (Bitio.Lsb_reader.read_bits r 8);
  Alcotest.(check int) "position" 2 (Bitio.Lsb_reader.byte_position r)

let test_bitio_lsb_out_of_bits () =
  let r = Bitio.Lsb_reader.create (Bytes.of_string "z") in
  ignore (Bitio.Lsb_reader.read_bits r 8);
  Alcotest.check_raises "eof" Bitio.Lsb_reader.Out_of_bits (fun () ->
      ignore (Bitio.Lsb_reader.read_bit r))

let qcheck_bitio_lsb =
  QCheck.Test.make ~name:"lsb bitio roundtrips value lists" ~count:200
    QCheck.(small_list (pair (int_bound 0xffff) (int_range 1 16)))
    (fun pairs ->
      let pairs = List.map (fun (v, c) -> (v land ((1 lsl c) - 1), c)) pairs in
      let w = Bitio.Lsb_writer.create () in
      List.iter (fun (v, c) -> Bitio.Lsb_writer.add_bits w ~value:v ~count:c) pairs;
      let r = Bitio.Lsb_reader.create (Bitio.Lsb_writer.to_bytes w) in
      List.for_all (fun (v, c) -> Bitio.Lsb_reader.read_bits r c = v) pairs)

let qcheck_bitio_msb =
  QCheck.Test.make ~name:"bitio msb roundtrips value lists" ~count:200
    QCheck.(small_list (pair (int_bound 0xffff) (int_range 1 16)))
    (fun pairs ->
      let pairs = List.map (fun (v, c) -> (v land ((1 lsl c) - 1), c)) pairs in
      let w = Bitio.Writer.create () in
      List.iter (fun (v, c) -> Bitio.Writer.add_bits_msb w ~value:v ~count:c) pairs;
      let r = Bitio.Reader.create (Bitio.Writer.to_bytes w) in
      List.for_all (fun (v, c) -> Bitio.Reader.read_bits_msb r c = v) pairs)

(* ------------------------------------------------------------------ *)
(* RLE1 *)

let test_rle1_short_runs_literal () =
  let input = Bytes.of_string "aaabbbcc" in
  Alcotest.check bytes_testable "unchanged" input (Rle1.encode input)

let test_rle1_long_run () =
  let input = Bytes.make 10 'x' in
  let enc = Rle1.encode input in
  Alcotest.check bytes_testable "xxxx + count 6" (Bytes.of_string "xxxx\x06") enc;
  Alcotest.check bytes_testable "roundtrip" input (Rle1.decode enc)

let test_rle1_exact_four () =
  let input = Bytes.of_string "yyyy" in
  let enc = Rle1.encode input in
  Alcotest.check bytes_testable "yyyy + 0" (Bytes.of_string "yyyy\x00") enc;
  Alcotest.check bytes_testable "roundtrip" input (Rle1.decode enc)

let test_rle1_max_run () =
  let input = Bytes.make 600 'z' in
  roundtrip "run of 600" Rle1.encode Rle1.decode input

let test_rle1_empty () = roundtrip "empty" Rle1.encode Rle1.decode Bytes.empty

let test_rle1_truncated () =
  Alcotest.check_raises "truncated" (Failure "Rle1.decode: truncated run")
    (fun () -> ignore (Rle1.decode (Bytes.of_string "aaaa")))

let qcheck_rle1 =
  QCheck.Test.make ~name:"rle1 roundtrip" ~count:300
    QCheck.(string_of_size Gen.(0 -- 400))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Rle1.decode (Rle1.encode b)))

let qcheck_rle1_runs =
  QCheck.Test.make ~name:"rle1 roundtrip on run-heavy input" ~count:200
    QCheck.(small_list (pair (int_bound 255) (int_range 1 300)))
    (fun runs ->
      let buf = Buffer.create 64 in
      List.iter
        (fun (c, n) -> Buffer.add_string buf (String.make n (Char.chr c)))
        runs;
      let b = Buffer.to_bytes buf in
      Bytes.equal b (Rle1.decode (Rle1.encode b)))

(* ------------------------------------------------------------------ *)
(* MTF / RLE2 *)

let test_mtf_known () =
  (* First occurrence of byte 0 is at list position 0. *)
  let out = Mtf.encode (Bytes.of_string "\x00\x00\x01") in
  Alcotest.(check (array int)) "positions" [| 0; 0; 1 |] out

let test_mtf_roundtrip_all_bytes () =
  let input = Bytes.init 256 Char.chr in
  roundtrip "all byte values"
    (fun b -> Bytes.of_string (String.concat "" (Array.to_list (Array.map (fun i -> String.make 1 (Char.chr i)) (Mtf.encode b)))))
    (fun b -> Mtf.decode (Array.init (Bytes.length b) (fun i -> Char.code (Bytes.get b i))))
    input

let qcheck_mtf =
  QCheck.Test.make ~name:"mtf roundtrip" ~count:300
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Mtf.decode (Mtf.encode b)))

let test_rle2_zero_runs () =
  (* Zero-run of 3 encodes as RUNA RUNA (1 + 2). *)
  let enc = Rle2.encode [| 0; 0; 0 |] in
  Alcotest.(check (array int)) "runa runa eob" [| Rle2.runa; Rle2.runa; Rle2.eob |] enc

let test_rle2_run_of_two () =
  let enc = Rle2.encode [| 0; 0 |] in
  Alcotest.(check (array int)) "runb" [| Rle2.runb; Rle2.eob |] enc

let test_rle2_shifts_symbols () =
  let enc = Rle2.encode [| 5; 0; 7 |] in
  Alcotest.(check (array int)) "shifted" [| 6; Rle2.runa; 8; Rle2.eob |] enc

let test_rle2_missing_eob () =
  Alcotest.check_raises "missing eob" (Failure "Rle2.decode: missing EOB")
    (fun () -> ignore (Rle2.decode [| Rle2.runa |]))

let qcheck_rle2 =
  QCheck.Test.make ~name:"rle2 roundtrip" ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (int_bound 255))
    (fun l ->
      let a = Array.of_list l in
      Rle2.decode (Rle2.encode a) = a)

let qcheck_rle2_zero_heavy =
  QCheck.Test.make ~name:"rle2 roundtrip on zero-heavy input" ~count:200
    QCheck.(list_of_size Gen.(0 -- 400) (int_bound 3))
    (fun l ->
      let a = Array.of_list l in
      Rle2.decode (Rle2.encode a) = a)

(* ------------------------------------------------------------------ *)
(* Huffman *)

let test_huffman_single_symbol () =
  let freqs = Array.make 256 0 in
  freqs.(65) <- 10;
  let lengths = Huffman.lengths_of_freqs freqs in
  Alcotest.(check int) "single symbol gets length 1" 1 lengths.(65);
  Alcotest.(check int) "others zero" 0 lengths.(66)

let test_huffman_kraft () =
  let t = prng () in
  for _ = 1 to 50 do
    let freqs = Array.init 300 (fun _ -> Prng.int t 100) in
    let lengths = Huffman.lengths_of_freqs freqs in
    let kraft =
      Array.fold_left
        (fun acc l -> if l > 0 then acc +. (1.0 /. float_of_int (1 lsl l)) else acc)
        0.0 lengths
    in
    Alcotest.(check bool) "kraft <= 1" true (kraft <= 1.0 +. 1e-9);
    (* canonical_codes raises if lengths are oversubscribed. *)
    ignore (Huffman.canonical_codes lengths)
  done

let test_huffman_max_length_respected () =
  (* Fibonacci-like frequencies force deep trees; cap must hold. *)
  let freqs = Array.make 40 0 in
  let a = ref 1 and b = ref 1 in
  for i = 0 to 39 do
    freqs.(i) <- !a;
    let c = !a + !b in
    a := !b;
    b := c
  done;
  let lengths = Huffman.lengths_of_freqs ~max_length:15 freqs in
  Array.iter (fun l -> Alcotest.(check bool) "<= 15" true (l <= 15)) lengths;
  ignore (Huffman.canonical_codes lengths)

let test_huffman_optimality_two_symbols () =
  let freqs = Array.make 4 0 in
  freqs.(0) <- 1;
  freqs.(1) <- 1000;
  let lengths = Huffman.lengths_of_freqs freqs in
  Alcotest.(check int) "both length 1" 1 lengths.(0);
  Alcotest.(check int) "both length 1" 1 lengths.(1)

let test_huffman_encode_decode () =
  let t = prng () in
  roundtrip "random" Huffman.encode Huffman.decode (Prng.bytes t 5000);
  roundtrip "empty" Huffman.encode Huffman.decode Bytes.empty;
  roundtrip "single" Huffman.encode Huffman.decode (Bytes.of_string "a");
  roundtrip "uniform" Huffman.encode Huffman.decode (Bytes.make 1000 'q')

let test_huffman_compresses_skewed () =
  let input = Bytes.of_string (String.make 4000 'a' ^ "bcd") in
  let enc = Huffman.encode input in
  Alcotest.(check bool) "smaller" true (Bytes.length enc < Bytes.length input / 4)

let test_huffman_lengths_serialization () =
  let lengths = Array.init 300 (fun i -> i mod 16) in
  let w = Bitio.Writer.create () in
  Huffman.write_lengths w lengths;
  let r = Bitio.Reader.create (Bitio.Writer.to_bytes w) in
  Alcotest.(check (array int)) "roundtrip" lengths (Huffman.read_lengths r)

let qcheck_huffman =
  QCheck.Test.make ~name:"huffman roundtrip" ~count:150
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Huffman.decode (Huffman.encode b)))

(* ------------------------------------------------------------------ *)
(* BWT *)

let test_bwt_banana () =
  let last, primary = Bwt.transform (Bytes.of_string "BANANA") in
  Alcotest.check bytes_testable "last column" (Bytes.of_string "NNBAAA") last;
  Alcotest.(check int) "primary" 3 primary;
  Alcotest.check bytes_testable "inverse" (Bytes.of_string "BANANA")
    (Bwt.inverse last primary)

let test_bwt_empty_and_single () =
  let last, primary = Bwt.transform Bytes.empty in
  Alcotest.check bytes_testable "empty" Bytes.empty (Bwt.inverse last primary);
  let last, primary = Bwt.transform (Bytes.of_string "z") in
  Alcotest.check bytes_testable "single" (Bytes.of_string "z")
    (Bwt.inverse last primary)

let test_bwt_identical_rotations () =
  (* Periodic input: all rotations collide; transform must stay invertible. *)
  let input = Bytes.of_string "ababababab" in
  let last, primary = Bwt.transform input in
  Alcotest.check bytes_testable "periodic roundtrip" input (Bwt.inverse last primary)

let test_bwt_sort_rotations_is_sorted () =
  let input = Bytes.of_string "mississippi" in
  let n = Bytes.length input in
  let perm = Bwt.sort_rotations input in
  let rotation i =
    String.init n (fun k -> Bytes.get input ((i + k) mod n))
  in
  for k = 0 to n - 2 do
    Alcotest.(check bool) "ascending" true (rotation perm.(k) <= rotation perm.(k + 1))
  done

let test_bwt_bad_perm_rejected () =
  Alcotest.check_raises "bad perm" (Invalid_argument "Bwt: not a permutation")
    (fun () ->
      ignore (Bwt.transform_with ~perm:[| 0; 0; 1 |] (Bytes.of_string "abc")))

let qcheck_bwt =
  QCheck.Test.make ~name:"bwt roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      let b = Bytes.of_string s in
      let last, primary = Bwt.transform b in
      Bytes.equal b (Bwt.inverse last primary))

let qcheck_bwt_low_alphabet =
  QCheck.Test.make ~name:"bwt roundtrip, binary alphabet" ~count:200
    QCheck.(list_of_size Gen.(0 -- 300) (int_bound 1))
    (fun l ->
      let b = Bytes.of_string (String.concat "" (List.map (fun i -> if i = 0 then "a" else "b") l)) in
      let last, primary = Bwt.transform b in
      Bytes.equal b (Bwt.inverse last primary))

(* ------------------------------------------------------------------ *)
(* Block sort *)

let test_ftab_indices_recurrence () =
  (* j_k = block[i] << 8 | block[(i+1) mod n] with i = n-1-k. *)
  let block = Bytes.of_string "ILIAD" in
  let n = Bytes.length block in
  let byte i = Char.code (Bytes.get block i) in
  let expected =
    Array.init n (fun k ->
        let i = n - 1 - k in
        (byte i lsl 8) lor byte ((i + 1) mod n))
  in
  Alcotest.(check (array int)) "listing 3 j values" expected
    (Block_sort.ftab_indices block)

let test_histogram_counts_pairs () =
  let block = Bytes.of_string "abab" in
  let h = Block_sort.histogram block in
  let ab = (Char.code 'a' lsl 8) lor Char.code 'b' in
  let ba = (Char.code 'b' lsl 8) lor Char.code 'a' in
  Alcotest.(check int) "ab pairs (cyclic)" 2 h.(ab);
  Alcotest.(check int) "ba pairs (cyclic)" 2 h.(ba);
  Alcotest.(check int) "total = n" (Bytes.length block)
    (Array.fold_left ( + ) 0 h)

let test_main_sort_matches_fallback () =
  let t = prng () in
  for _ = 1 to 10 do
    let block = Prng.bytes t 500 in
    let main, _ = Block_sort.main_sort ~budget:1_000_000 block in
    let fallback, _ = Block_sort.fallback_sort block in
    Alcotest.(check (array int)) "same rotation order" fallback main
  done

let test_main_sort_abandons_on_repetitive () =
  let block = Bytes.of_string (String.concat "" (List.init 250 (fun _ -> "abcdefgh"))) in
  Alcotest.check_raises "budget blown" (Block_sort.Abandoned 60001) (fun () ->
      ignore (Block_sort.main_sort ~budget:60000 block))

let test_block_sort_paths () =
  let t = prng () in
  let random_block = Prng.bytes t 2000 in
  let _, path = Block_sort.block_sort ~full_block:true random_block in
  (match path.Block_sort.segments with
  | [ { func = Main_sort; _ } ] -> ()
  | _ -> Alcotest.fail "random block should stay in main sort");
  Alcotest.(check bool) "not abandoned" false path.abandoned;
  let short = Prng.bytes t 100 in
  let _, path = Block_sort.block_sort ~full_block:false short in
  (match path.Block_sort.segments with
  | [ { func = Fallback_sort; _ } ] -> ()
  | _ -> Alcotest.fail "short block goes straight to fallback");
  let repetitive = Bytes.of_string (String.concat "" (List.init 500 (fun _ -> "xy"))) in
  let _, path = Block_sort.block_sort ~budget_factor:2 ~full_block:true repetitive in
  Alcotest.(check bool) "abandoned" true path.Block_sort.abandoned;
  match path.Block_sort.segments with
  | [ { func = Main_sort; _ }; { func = Fallback_sort; _ } ] -> ()
  | _ -> Alcotest.fail "abandon path is main then fallback"

(* ------------------------------------------------------------------ *)
(* Bzip2 pipeline *)

let test_bzip2_roundtrip_text () =
  let input = Bytes.of_string "The quick brown fox jumps over the lazy dog. \
                               Pack my box with five dozen liquor jugs." in
  roundtrip "text" Bzip2.compress Bzip2.decompress input

let test_bzip2_roundtrip_random () =
  let t = prng () in
  roundtrip "random 25k" Bzip2.compress Bzip2.decompress (Prng.bytes t 25_000)

let test_bzip2_roundtrip_repetitive () =
  let input = Bytes.of_string (String.concat "" (List.init 3000 (fun _ -> "lorem ipsum "))) in
  roundtrip "repetitive" Bzip2.compress Bzip2.decompress input

let test_bzip2_roundtrip_edge () =
  roundtrip "empty" Bzip2.compress Bzip2.decompress Bytes.empty;
  roundtrip "one byte" Bzip2.compress Bzip2.decompress (Bytes.of_string "!");
  roundtrip "all same" Bzip2.compress Bzip2.decompress (Bytes.make 50_000 'a')

let test_bzip2_compresses_text () =
  let t = prng () in
  let text = Bytes.of_string (Lipsum.repetitive_file t ~level:5 ~size:30_000) in
  let enc = Bzip2.compress text in
  Alcotest.(check bool) "smaller than input" true
    (Bytes.length enc < Bytes.length text / 2)

let test_bzip2_block_info () =
  let t = prng () in
  let input = Prng.bytes t 25_000 in
  let _, infos = Bzip2.compress_with_info input in
  Alcotest.(check int) "3 blocks of 10k" 3 (List.length infos);
  let last = List.nth infos 2 in
  Alcotest.(check int) "last block short" 5000 last.Bzip2.length;
  (match last.Bzip2.path.Block_sort.segments with
  | [ { func = Fallback_sort; _ } ] -> ()
  | _ -> Alcotest.fail "short last block uses fallback");
  let first = List.hd infos in
  match first.Bzip2.path.Block_sort.segments with
  | { Block_sort.func = Main_sort; _ } :: _ -> ()
  | _ -> Alcotest.fail "full block starts in main sort"

let test_bzip2_bad_magic () =
  Alcotest.check_raises "magic" (Failure "Bzip2.decompress: bad magic")
    (fun () -> ignore (Bzip2.decompress (Bytes.of_string "NOPE....")))

let test_bzip2_multi_table_blocks () =
  (* A block mixing very different statistics exercises the multi-table
     Huffman coder: text then binary then runs, within one 10k block. *)
  let t = prng () in
  let mixed =
    Bytes.concat Bytes.empty
      [
        Bytes.of_string (Lipsum.repetitive_file t ~level:5 ~size:4000);
        Prng.bytes t 3000;
        Bytes.of_string (String.init 2500 (fun i -> Char.chr (i mod 7)));
      ]
  in
  roundtrip "mixed statistics" Bzip2.compress Bzip2.decompress mixed

let test_bzip2_large_block_many_groups () =
  (* > 2400 RLE2 symbols forces the maximum of 6 tables. *)
  let t = prng () in
  let input = Prng.bytes t 9000 in
  roundtrip "six tables" Bzip2.compress Bzip2.decompress input

let qcheck_bzip2 =
  QCheck.Test.make ~name:"bzip2 roundtrip" ~count:30
    QCheck.(string_of_size Gen.(0 -- 5000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Bzip2.decompress (Bzip2.compress b)))

let qcheck_bzip2_structured =
  QCheck.Test.make ~name:"bzip2 roundtrip, run-heavy" ~count:20
    QCheck.(small_list (pair (int_bound 255) (int_range 1 2000)))
    (fun runs ->
      let buf = Buffer.create 64 in
      List.iter
        (fun (c, n) -> Buffer.add_string buf (String.make n (Char.chr c)))
        runs;
      let b = Buffer.to_bytes buf in
      Bytes.equal b (Bzip2.decompress (Bzip2.compress b)))

(* ------------------------------------------------------------------ *)
(* LZ77 / Deflate *)

let test_lz77_hash_matches_spec () =
  Alcotest.(check int) "update" (((0x123 lsl 5) lxor 0x45) land 0x7fff)
    (Lz77.update_hash 0x123 0x45);
  Alcotest.(check int) "triple"
    (((Char.code 'a' lsl 10) lxor (Char.code 'b' lsl 5) lxor Char.code 'c')
     land 0x7fff)
    (Lz77.hash_of_triple (Char.code 'a') (Char.code 'b') (Char.code 'c'))

let test_lz77_hash_head_trace () =
  let input = Bytes.of_string "abcde" in
  let trace = Lz77.hash_head_trace input in
  Alcotest.(check int) "n-2 inserts" 3 (Array.length trace);
  Alcotest.(check int) "first is hash(abc)"
    (Lz77.hash_of_triple (Char.code 'a') (Char.code 'b') (Char.code 'c'))
    trace.(0);
  Alcotest.(check int) "last is hash(cde)"
    (Lz77.hash_of_triple (Char.code 'c') (Char.code 'd') (Char.code 'e'))
    trace.(2)

let test_lz77_finds_repetition () =
  let input = Bytes.of_string "abcabcabcabc" in
  let tokens = Lz77.tokenize_array input in
  let has_match =
    Array.exists Lz77.is_match tokens
  in
  Alcotest.(check bool) "found a match" true has_match;
  Alcotest.check bytes_testable "detokenize" input (Oracles.detokenize tokens)

let test_lz77_overlapping_match () =
  (* "aaaa..." produces a self-referencing match with distance 1. *)
  let input = Bytes.make 100 'a' in
  let tokens = Lz77.tokenize_array input in
  Alcotest.check bytes_testable "detokenize overlap" input (Oracles.detokenize tokens);
  let found =
    Array.exists (fun t -> Lz77.is_match t && Lz77.match_distance t = 1) tokens
  in
  Alcotest.(check bool) "distance-1 match" true found

let test_lz77_bad_distance () =
  Alcotest.check_raises "bad distance"
    (Invalid_argument "Lz77.detokenize: distance too large") (fun () ->
      ignore (Oracles.detokenize [| Lz77.match_token ~length:3 ~distance:5 |]))

let test_lz77_lazy_roundtrip () =
  let t = prng () in
  let inputs =
    [
      Bytes.empty;
      Bytes.of_string "ab";
      Bytes.of_string (Lipsum.repetitive_file t ~level:3 ~size:8000);
      Prng.bytes t 4000;
      Bytes.make 2000 'z';
    ]
  in
  List.iter
    (fun input ->
      Alcotest.check bytes_testable "lazy roundtrip" input
        (Oracles.detokenize (Lz77.tokenize_array ~strategy:Lz77.Lazy input)))
    inputs

let test_lz77_lazy_defers_match () =
  (* The classic lazy-evaluation win: at 'a' in "xabcde" a 3-byte match
     ("abc") is available, but the next position starts the longer
     "bcdef"; deflate_slow emits the literal and takes the longer match. *)
  let input = Bytes.of_string "abc bcdef xabcdef" in
  let lazy_tokens = Lz77.tokenize_array ~strategy:Lz77.Lazy input in
  let has_len n =
    Array.exists (fun t -> Lz77.is_match t && Lz77.match_length t = n)
  in
  Alcotest.(check bool) "lazy finds the 5-byte match" true
    (has_len 5 lazy_tokens);
  Alcotest.check bytes_testable "still exact" input
    (Oracles.detokenize lazy_tokens)

let test_lz77_lazy_not_worse_on_text () =
  (* On long-match-dominated input deferral can cost a little (extra
     literals); it must stay in the same ballpark as greedy. *)
  let t = prng () in
  let text = Bytes.of_string (Lipsum.repetitive_file t ~level:4 ~size:20_000) in
  let size strategy = Bytes.length (Deflate.compress ~strategy text) in
  Alcotest.(check bool) "lazy within 5% of greedy" true
    (float_of_int (size Lz77.Lazy) <= 1.05 *. float_of_int (size Lz77.Greedy))

let qcheck_lz77 =
  QCheck.Test.make ~name:"lz77 tokenize/detokenize" ~count:200
    QCheck.(string_of_size Gen.(0 -- 1000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Oracles.detokenize (Lz77.tokenize_array b)))

let qcheck_lz77_lazy =
  QCheck.Test.make ~name:"lz77 lazy tokenize/detokenize" ~count:200
    QCheck.(string_of_size Gen.(0 -- 1000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Oracles.detokenize (Lz77.tokenize_array ~strategy:Lz77.Lazy b)))

let test_deflate_code_tables () =
  Alcotest.(check (triple int int int)) "len 3" (257, 0, 0) (Deflate.length_code 3);
  Alcotest.(check (triple int int int)) "len 258" (285, 0, 0) (Deflate.length_code 258);
  Alcotest.(check (triple int int int)) "len 11" (265, 1, 0) (Deflate.length_code 11);
  Alcotest.(check (triple int int int)) "len 12" (265, 1, 1) (Deflate.length_code 12);
  Alcotest.(check (triple int int int)) "dist 1" (0, 0, 0) (Deflate.distance_code 1);
  Alcotest.(check (triple int int int)) "dist 32768" (29, 13, 8191)
    (Deflate.distance_code 32768);
  Alcotest.check_raises "len 2" (Invalid_argument "Deflate.length_code")
    (fun () -> ignore (Deflate.length_code 2))

(* Every value lands inside its symbol's range: the extra value fits in
   the extra bits, and the range's base, [value - extra], is coded by
   the same symbol with extra value 0. *)
let check_code name code v =
  let sym, bits, extra = code v in
  if extra < 0 || extra lsr bits <> 0 || code (v - extra) <> (sym, bits, 0)
  then Alcotest.failf "%s %d mis-coded (%d, %d, %d)" name v sym bits extra

let test_deflate_all_lengths_roundtrip () =
  for len = 3 to 258 do
    check_code "length" Deflate.length_code len
  done

let test_deflate_all_distances_roundtrip () =
  for dist = 1 to 32768 do
    check_code "distance" Deflate.distance_code dist
  done

(* Text, prose and random, 256 KiB each. *)
let shapes_256k () =
  let size = 262_144 in
  let t = prng () in
  let prose =
    let b = Buffer.create (size + 1024) in
    while Buffer.length b < size do
      Buffer.add_string b (Lipsum.paragraph t);
      Buffer.add_string b "\n\n"
    done;
    Buffer.sub b 0 size
  in
  [
    ("text", Bytes.of_string (Lipsum.repetitive_file t ~level:4 ~size));
    ("prose", Bytes.of_string prose);
    ("random", Prng.bytes t size);
  ]

(* Least of three measured runs after an unmeasured one, per input
   byte, or per [per] bytes.  [Gc.allocated_bytes] counts minor-heap
   words when a minor collection runs over them, not when they are
   allocated.  Without a
   collection at each end, a window would miss the call's own small
   blocks, and a collection inside it would add everything allocated
   since the previous one: a jobs-1 framed deflate of the random shape
   reads 1.70 B per input byte with no collection inside and 2.08-2.22
   with one.  With a minor collection on each side the window counts
   the call alone, and read 1.95 in every run measured. *)
let alloc_per_byte ?per f input =
  let per = match per with Some n -> n | None -> Bytes.length input in
  f input;
  let measure () =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    f input;
    Gc.minor ();
    (Gc.allocated_bytes () -. before) /. float_of_int per
  in
  List.fold_left min infinity (List.init 3 (fun _ -> measure ()))

(* Decoders allocate little beyond their output: the Huffman table
   decoder ~1 byte per output byte, deflate ~3 (a doubling output
   buffer, then the exact-size copy).  [alloc_per_byte] runs a minor
   collection on each side of each measured call. *)
let test_decode_allocation () =
  let size = 262_144 in
  let shapes = shapes_256k () in
  let per_byte name decode packed ~bound =
    let per_byte =
      alloc_per_byte ~per:size
        (fun packed ->
          let out = decode packed in
          Alcotest.(check int) (name ^ ": output length") size (Bytes.length out))
        packed
    in
    if per_byte > bound then
      Alcotest.failf "%s allocates %.2f B per output byte (bound %.1f)" name
        per_byte bound
  in
  List.iter
    (fun (shape, plain) ->
      per_byte ("Huffman.decode " ^ shape) Huffman.decode (Huffman.encode plain)
        ~bound:1.1)
    shapes;
  per_byte "Deflate.decompress random" Deflate.decompress
    (Deflate.compress (List.assoc "random" shapes))
    ~bound:8.0

let frame_stream ~jobs ~codec input =
  let pos = ref 0 in
  Frame.compress_stream ~jobs ~codec
    ~read:(fun buf off len ->
      let n = min len (Bytes.length input - !pos) in
      Bytes.blit input !pos buf off n;
      pos := !pos + n;
      n)
    ~write:(fun _ ~off:_ ~len:_ -> ())
    ()

(* The encoder side of the same pattern: with the LZ77 tables and tokens
   in the domain's arena, a steady-state [Deflate.compress] allocates
   little beyond its output, and so does framed deflate through
   [compress_stream] at jobs 1 and 2 (frame staging is reused too).  At
   jobs 2 the counters see the calling domain's share of the frames.
   [Bzip2.compress] keeps every stage and its table training in the
   arena too: what is left is the RLE1 copy of the input, the block
   streams and the output, ~2.1 B per input byte on random input. *)
let test_encode_allocation () =
  let check name per_byte ~bound =
    if per_byte > bound then
      Alcotest.failf "%s allocates %.2f B per input byte (bound %.1f)" name
        per_byte bound
  in
  List.iter
    (fun (shape, plain) ->
      check ("Deflate.compress " ^ shape)
        (alloc_per_byte (fun b -> ignore (Deflate.compress b)) plain)
        ~bound:2.0;
      List.iter
        (fun jobs ->
          check
            (Printf.sprintf "framed deflate jobs %d %s" jobs shape)
            (alloc_per_byte (frame_stream ~jobs ~codec:Frame.Deflate) plain)
            ~bound:2.0)
        [ 1; 2 ];
      check ("Bzip2.compress " ^ shape)
        (alloc_per_byte (fun b -> ignore (Bzip2.compress b)) plain)
        ~bound:4.0)
    (shapes_256k ())

(* LZW's 2^17-entry table is an arena slot too, so a 64 KiB frame no
   longer pays for tables (2 MiB of them, 32 B per input byte, before
   they were arena slots). *)
let test_lzw_frame_allocation () =
  List.iter
    (fun (shape, plain) ->
      let per_byte = alloc_per_byte (frame_stream ~jobs:1 ~codec:Frame.Lzw) plain in
      if per_byte > 3.0 then
        Alcotest.failf "framed lzw %s allocates %.2f B per input byte (bound 3.0)"
          shape per_byte)
    (shapes_256k ())

(* The encoders' bytes, pinned by digest.  [Bzip2.compress],
   [compress_with_info] and [compress_ref] share the block body and
   [Huffman.lengths_of_freqs], and [Huffman.encode] and [Deflate]'s
   dynamic tables share that too, so the differential tests cannot see
   a byte change made in the shared code.  These FNV-1a digests of the
   output on each 256 KiB shape were recorded before the encoders' hot
   loops were rewritten. *)
let encoder_digests =
  [
    ("bzip2 block 10000 text", "0238a1f1c3480feb");
    ("bzip2 block 777 text", "90f713076c3ce32b");
    ("huffman text", "33fe3fb7b9c5a346");
    ("deflate text", "9268fd5bc1a53f74");
    ("bzip2 block 10000 prose", "5ed39ebecf592d62");
    ("bzip2 block 777 prose", "1a8b05866c58281b");
    ("huffman prose", "4a3ff48ad199b3f8");
    ("deflate prose", "66cce117c97bb637");
    ("bzip2 block 10000 random", "6646e61e04f0dc83");
    ("bzip2 block 777 random", "ddf6b7199983f08d");
    ("huffman random", "a49408e22c8ee0e9");
    ("deflate random", "336f251605d01470");
  ]

(* Bzip2 at jobs 1 and 2 is checked against the one digest. *)
let test_encoder_digests () =
  let check name label out =
    Alcotest.(check string) label (List.assoc name encoder_digests)
      (Golden.fnv1a out)
  in
  List.iter
    (fun (shape, plain) ->
      List.iter
        (fun block_size ->
          let name = Printf.sprintf "bzip2 block %d %s" block_size shape in
          List.iter
            (fun jobs ->
              check name
                (Printf.sprintf "%s jobs %d" name jobs)
                (Bzip2.compress ~block_size ~jobs plain))
            [ 1; 2 ])
        [ 10_000; 777 ];
      check ("huffman " ^ shape) ("huffman " ^ shape) (Huffman.encode plain);
      check ("deflate " ^ shape) ("deflate " ^ shape) (Deflate.compress plain))
    (shapes_256k ())

(* What a domain keeps after one 16 MiB compress is bounded by a
   constant: its arena keeps no slot past 2 MiB, so neither the 16M
   tokens nor the 16 MiB staged input stay behind. *)
let test_arena_retention_bounded () =
  let t = prng () in
  let big = Bytes.of_string (Lipsum.repetitive_file t ~level:4 ~size:(16 lsl 20)) in
  let small = Bytes.sub big 0 65_536 in
  let kept () = Zipchannel_buf.Arena.with_arena Zipchannel_buf.Arena.footprint in
  ignore (Deflate.compress small);
  let before = kept () in
  let packed = Deflate.compress big in
  let after = kept () in
  Alcotest.(check bool) "16 MiB compress round-trips" true
    (Bytes.equal big (Deflate.decompress packed));
  if after > before + (16 lsl 20) then
    Alcotest.failf "the arena holds %d bytes after a 16 MiB compress (%d before)"
      after before

let test_deflate_roundtrip () =
  let t = prng () in
  roundtrip "random" Deflate.compress Deflate.decompress (Prng.bytes t 10_000);
  roundtrip "empty" Deflate.compress Deflate.decompress Bytes.empty;
  roundtrip "single" Deflate.compress Deflate.decompress (Bytes.of_string "x");
  let text = Bytes.of_string (Lipsum.repetitive_file t ~level:4 ~size:20_000) in
  roundtrip "text" Deflate.compress Deflate.decompress text;
  let enc = Deflate.compress text in
  Alcotest.(check bool) "text compresses" true
    (Bytes.length enc < Bytes.length text / 2)

let qcheck_deflate =
  QCheck.Test.make ~name:"deflate roundtrip" ~count:100
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Deflate.decompress (Deflate.compress b)))

(* ------------------------------------------------------------------ *)
(* LZW *)

let test_lzw_roundtrip_basic () =
  roundtrip "banana" Lzw.compress Lzw.decompress (Bytes.of_string "banana");
  roundtrip "empty" Lzw.compress Lzw.decompress Bytes.empty;
  roundtrip "single" Lzw.compress Lzw.decompress (Bytes.of_string "k")

let test_lzw_kwkwk () =
  (* The classic KwKwK pattern: "abababab..." forces the decoder to expand
     a code equal to its own free_ent. *)
  roundtrip "kwkwk" Lzw.compress Lzw.decompress
    (Bytes.of_string (String.concat "" (List.init 100 (fun _ -> "ab"))));
  roundtrip "aaa" Lzw.compress Lzw.decompress (Bytes.make 500 'a')

let test_lzw_code_width_growth () =
  (* Enough distinct material to push past 512 dictionary entries and the
     9->10 bit width boundary. *)
  let t = prng () in
  roundtrip "width growth" Lzw.compress Lzw.decompress (Prng.bytes t 30_000)

let test_lzw_dictionary_freeze () =
  (* Enough random data to exhaust the 16-bit code space (~64k misses). *)
  let t = prng () in
  roundtrip "freeze" Lzw.compress Lzw.decompress (Prng.bytes t 120_000)

let test_lzw_compresses_text () =
  let t = prng () in
  let text = Bytes.of_string (Lipsum.repetitive_file t ~level:2 ~size:20_000) in
  let enc = Lzw.compress text in
  Alcotest.(check bool) "smaller" true (Bytes.length enc < Bytes.length text / 2)

let test_lzw_stepper_semantics () =
  (* "abab": (a,b) misses and is added; the second (a,b) hits and ent
     becomes its code. *)
  let st = Lzw.Stepper.create ~first:(Char.code 'a') in
  let _, e1 = Lzw.Stepper.feed st (Char.code 'b') in
  Alcotest.(check bool) "first pair misses" true (e1 <> None);
  let _, e2 = Lzw.Stepper.feed st (Char.code 'a') in
  Alcotest.(check bool) "second pair misses" true (e2 <> None);
  let _, e3 = Lzw.Stepper.feed st (Char.code 'b') in
  Alcotest.(check bool) "now (a,b) hits" true (e3 = None);
  Alcotest.(check int) "ent is the (a,b) code" Lzw.first_code (Lzw.Stepper.ent st)

let test_lzw_stepper_probe_hit_readonly () =
  let st = Lzw.Stepper.create ~first:(Char.code 'x') in
  ignore (Lzw.Stepper.feed st (Char.code 'y'));
  Alcotest.(check (option int)) "pair present" (Some Lzw.first_code)
    (Lzw.Stepper.probe_hit st ~ent:(Char.code 'x') ~c:(Char.code 'y'));
  Alcotest.(check (option int)) "absent pair" None
    (Lzw.Stepper.probe_hit st ~ent:(Char.code 'x') ~c:(Char.code 'z'));
  (* Read-only: the failed probe must not have mutated anything. *)
  Alcotest.(check (option int)) "still present" (Some Lzw.first_code)
    (Lzw.Stepper.probe_hit st ~ent:(Char.code 'x') ~c:(Char.code 'y'))

let test_lzw_stepper_copy_isolated () =
  let a = Lzw.Stepper.create ~first:1 in
  ignore (Lzw.Stepper.feed a 2);
  let b = Lzw.Stepper.copy a in
  ignore (Lzw.Stepper.feed b 3);
  Alcotest.(check int) "original ent unchanged" 2 (Lzw.Stepper.ent a);
  Alcotest.(check int) "copy advanced" 3 (Lzw.Stepper.ent b);
  Alcotest.(check (option int)) "copy's entry invisible to original" None
    (Lzw.Stepper.probe_hit a ~ent:2 ~c:3)

let test_lzw_probe_hash () =
  Alcotest.(check int) "hash formula" ((0x20 lsl 9) lxor 0x41)
    (Lzw.hash ~c:0x20 ~ent:0x41)

let test_lzw_probes_cover_input () =
  let input = Bytes.of_string "hello world, hello world" in
  let _, probes = Lzw.compress_with_probes input in
  (* One lookup (>= 1 probe) per input byte after the first. *)
  let firsts = List.filter (fun p -> p.Lzw.first) probes in
  Alcotest.(check int) "one first-probe per byte" (Bytes.length input - 1)
    (List.length firsts);
  List.iter
    (fun p ->
      Alcotest.(check int) "hp matches hash of (c,ent)"
        (Lzw.hash ~c:p.Lzw.c ~ent:p.Lzw.ent)
        p.Lzw.hp)
    firsts

let qcheck_lzw =
  QCheck.Test.make ~name:"lzw roundtrip" ~count:150
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Lzw.decompress (Lzw.compress b)))

let qcheck_lzw_low_alphabet =
  QCheck.Test.make ~name:"lzw roundtrip, 4-letter alphabet" ~count:100
    QCheck.(list_of_size Gen.(0 -- 3000) (int_bound 3))
    (fun l ->
      let b =
        Bytes.of_string
          (String.concat "" (List.map (fun i -> String.make 1 (Char.chr (97 + i))) l))
      in
      Bytes.equal b (Lzw.decompress (Lzw.compress b)))

(* A long input and then a short one through the same tables: the short
   one must come out as it does from fresh tables, with the same number
   of [htab] probes, so a short run's reset misses no slot that an
   earlier run wrote.  A low alphabet makes the two inputs share hash
   chains and dictionary strings. *)
let qcheck_short_after_long =
  let module Obs = Zipchannel_obs.Obs in
  let low n = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '\000' ]) n) in
  QCheck.Test.make ~name:"short input after a long one = fresh tables" ~count:60
    QCheck.(
      make
        Gen.(
          pair
            (oneof [ low (0 -- 40_000); string_size (0 -- 40_000) ])
            (oneof [ low (0 -- 300); string_size (0 -- 300) ])))
    (fun (long, short) ->
      let long = Bytes.of_string long and short = Bytes.of_string short in
      let tokens arena b =
        let t, n = Lz77.tokenize_in arena b in
        Array.sub t 0 n
      in
      let arena = Zipchannel_buf.Arena.create () in
      ignore (tokens arena long);
      let lz77_ok = tokens arena short = tokens (Zipchannel_buf.Arena.create ()) short in
      (* [Lzw.compress] runs on the domain's arena, the one the long
         input just used; [compress_with_probes] on fresh tables. *)
      let probes = Obs.Metrics.counter "kernel.lzw.htab_probes" in
      let was = Obs.enabled () in
      Obs.set_enabled true;
      ignore (Lzw.compress long);
      let before = Obs.Metrics.counter_value probes in
      let packed = Lzw.compress short in
      let counted = Obs.Metrics.counter_value probes - before in
      Obs.set_enabled was;
      let fresh, trace = Lzw.compress_with_probes short in
      lz77_ok && Bytes.equal packed fresh && counted = List.length trace)

let test_lzw_triangular_cap_boundary () =
  (* The bomb bound is c*(c+1)/2 for c full codes; triangular_cap is the
     largest c whose product fits, so the cap itself must not overflow
     and cap+1 must. *)
  let c = Lzw.triangular_cap in
  Alcotest.(check bool) "cap fits" true (c * (c + 1) >= 0 && c + 1 <= max_int / c);
  Alcotest.(check bool) "cap+1 overflows" true ((c + 1) * (c + 2) < 0);
  if Sys.int_size = 63 then Alcotest.(check int) "63-bit value" 2147483647 c;
  (* Small payloads stay on the exact triangular formula... *)
  Alcotest.(check int) "exact for 10 codes"
    (10 * 11 / 2)
    (Lzw.max_declared_length ~payload_bits:(10 * 9));
  (* ...and past the cap the bound saturates instead of going negative
     (the 1 lsl 31 bug: on 32-bit hosts the old guard was 0 or negative,
     accepting every forged length). *)
  Alcotest.(check int) "saturates" max_int
    (Lzw.max_declared_length ~payload_bits:max_int);
  Alcotest.(check bool) "never negative" true
    (Lzw.max_declared_length ~payload_bits:(Lzw.triangular_cap * 9) >= 0)

let test_lz4_roundtrip_basic () =
  roundtrip "text" Lz4.compress Lz4.decompress
    (Bytes.of_string "the quick brown fox jumps over the lazy dog");
  roundtrip "empty" Lz4.compress Lz4.decompress Bytes.empty;
  roundtrip "single" Lz4.compress Lz4.decompress (Bytes.of_string "k");
  roundtrip "short" Lz4.compress Lz4.decompress (Bytes.of_string "abc")

let test_lz4_overlapping_match () =
  (* A run of one byte forces offset-1 overlapping copies. *)
  roundtrip "aaaa" Lz4.compress Lz4.decompress (Bytes.make 1000 'a');
  roundtrip "abab" Lz4.compress Lz4.decompress
    (Bytes.of_string (String.concat "" (List.init 200 (fun _ -> "ab"))))

let test_lz4_long_runs () =
  (* Literal and match runs past 15 exercise the 255-extension bytes. *)
  let t = prng () in
  roundtrip "long literals" Lz4.compress Lz4.decompress (Prng.bytes t 5_000);
  roundtrip "long match" Lz4.compress Lz4.decompress
    (Bytes.of_string (String.make 20 'x' ^ "salt" ^ String.make 4_000 'x'))

let test_lz4_compresses_text () =
  let t = prng () in
  let text = Bytes.of_string (Lipsum.repetitive_file t ~level:2 ~size:20_000) in
  let enc = Lz4.compress text in
  Alcotest.(check bool) "smaller" true (Bytes.length enc < Bytes.length text / 2)

let test_lz4_hash_matches_spec () =
  (* Knuth multiplicative hash, high hash_bits of the low 32 bits. *)
  let v = 0x04030201 in
  Alcotest.(check int) "hash formula"
    (((v * Lz4.hash_const) land 0xffffffff) lsr (32 - Lz4.hash_bits))
    (Lz4.hash_of_quad v);
  let b = Bytes.of_string "\x01\x02\x03\x04rest" in
  Alcotest.(check int) "quad is little-endian" v (Lz4.quad b 0)

let test_lz4_bad_offset () =
  (* token: 1 literal, match len 4; offset 0 is never valid. *)
  let bad = Bytes.of_string "\x05\x00\x00\x00\x10a\x00\x00" in
  match Lz4.decompress_result bad with
  | Ok _ -> Alcotest.fail "offset 0 decoded"
  | Error e ->
      Alcotest.(check bool) "mentions the offset" true
        (Str_search.contains e.Codec_error.reason "invalid match offset")

let test_snappy_roundtrip_basic () =
  roundtrip "text" Snappy.compress Snappy.decompress
    (Bytes.of_string "the quick brown fox jumps over the lazy dog");
  roundtrip "empty" Snappy.compress Snappy.decompress Bytes.empty;
  roundtrip "single" Snappy.compress Snappy.decompress (Bytes.of_string "k")

let test_snappy_copy_forms () =
  (* Overlapping copy-1, long matches split at 64 bytes, and >60-byte
     literal runs that need the extension length byte. *)
  roundtrip "aaaa" Snappy.compress Snappy.decompress (Bytes.make 1000 'a');
  let t = prng () in
  roundtrip "long literals" Snappy.compress Snappy.decompress
    (Prng.bytes t 5_000);
  roundtrip "far match" Snappy.compress Snappy.decompress
    (Bytes.of_string
       ("needle" ^ String.make 3_000 '.' ^ "needle" ^ String.make 200 '!'))

(* 1 MiB of a 4-byte little-endian counter: 4-byte sequences almost never
   repeat, so both encoders emit literal runs spanning most of the input,
   through the longest length encodings each format has (LZ4's
   255-extension chain, Snappy's multi-byte literal lengths). *)
let test_lz4_snappy_literal_run () =
  let n = 1 lsl 20 in
  let b = Bytes.create n in
  for i = 0 to (n / 4) - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int i)
  done;
  let check name compress decompress_result =
    match decompress_result (compress b) with
    | Ok out -> Alcotest.(check bool) (name ^ " round trip") true (Bytes.equal out b)
    | Error e -> Alcotest.fail (name ^ ": " ^ Codec_error.to_string e)
  in
  check "lz4" Lz4.compress Lz4.decompress_result;
  check "snappy" Snappy.compress Snappy.decompress_result

let test_snappy_compresses_text () =
  let t = prng () in
  let text = Bytes.of_string (Lipsum.repetitive_file t ~level:2 ~size:20_000) in
  let enc = Snappy.compress text in
  Alcotest.(check bool) "smaller" true (Bytes.length enc < Bytes.length text / 2)

let test_snappy_hash_matches_spec () =
  let v = 0x64636261 in
  Alcotest.(check int) "hash formula"
    (((v * Snappy.hash_const) land 0xffffffff) lsr (32 - Snappy.hash_bits))
    (Snappy.hash_of_quad v);
  let b = Bytes.of_string "abcdtail" in
  Alcotest.(check int) "quad is little-endian" v (Snappy.quad b 0)

let test_snappy_bad_offset () =
  (* varint 4, literal "a", then a copy-1 reaching before the output. *)
  let bad = Bytes.of_string "\x04\x00a\x05\x09" in
  match Snappy.decompress_result bad with
  | Ok _ -> Alcotest.fail "out-of-range copy decoded"
  | Error e ->
      Alcotest.(check bool) "mentions the offset" true
        (Str_search.contains e.Codec_error.reason "invalid copy offset")

let qcheck_lz4 =
  QCheck.Test.make ~name:"lz4 roundtrip (random)" ~count:150
    QCheck.(pair small_nat (list (int_bound 255)))
    (fun (seed, _) ->
      let t = Prng.create ~seed () in
      let input = Prng.bytes t (Prng.int t 3_000) in
      Bytes.equal input (Lz4.decompress (Lz4.compress input)))

let qcheck_snappy =
  QCheck.Test.make ~name:"snappy roundtrip (random)" ~count:150
    QCheck.(pair small_nat (list (int_bound 255)))
    (fun (seed, _) ->
      let t = Prng.create ~seed () in
      let input = Prng.bytes t (Prng.int t 3_000) in
      Bytes.equal input (Snappy.decompress (Snappy.compress input)))

let suite =
  ( "compress",
    [
      Alcotest.test_case "bitio msb" `Quick test_bitio_msb_roundtrip;
      Alcotest.test_case "bitio lsb" `Quick test_bitio_lsb_roundtrip;
      Alcotest.test_case "bitio align" `Quick test_bitio_align;
      Alcotest.test_case "bitio eof" `Quick test_bitio_out_of_bits;
      Alcotest.test_case "bitio wide value" `Quick test_bitio_value_too_wide;
      Alcotest.test_case "bitio lsb roundtrip" `Quick test_bitio_lsb_writer_reader;
      Alcotest.test_case "bitio lsb byte layout" `Quick test_bitio_lsb_byte_layout;
      Alcotest.test_case "bitio lsb huffman" `Quick test_bitio_lsb_huffman_reversal;
      Alcotest.test_case "bitio lsb align" `Quick test_bitio_lsb_align;
      Alcotest.test_case "bitio lsb eof" `Quick test_bitio_lsb_out_of_bits;
      QCheck_alcotest.to_alcotest qcheck_bitio_lsb;
      QCheck_alcotest.to_alcotest qcheck_bitio_msb;
      Alcotest.test_case "rle1 short runs" `Quick test_rle1_short_runs_literal;
      Alcotest.test_case "rle1 long run" `Quick test_rle1_long_run;
      Alcotest.test_case "rle1 exact four" `Quick test_rle1_exact_four;
      Alcotest.test_case "rle1 max run" `Quick test_rle1_max_run;
      Alcotest.test_case "rle1 empty" `Quick test_rle1_empty;
      Alcotest.test_case "rle1 truncated" `Quick test_rle1_truncated;
      QCheck_alcotest.to_alcotest qcheck_rle1;
      QCheck_alcotest.to_alcotest qcheck_rle1_runs;
      Alcotest.test_case "mtf known" `Quick test_mtf_known;
      Alcotest.test_case "mtf all bytes" `Quick test_mtf_roundtrip_all_bytes;
      QCheck_alcotest.to_alcotest qcheck_mtf;
      Alcotest.test_case "rle2 zero runs" `Quick test_rle2_zero_runs;
      Alcotest.test_case "rle2 run of two" `Quick test_rle2_run_of_two;
      Alcotest.test_case "rle2 shifts" `Quick test_rle2_shifts_symbols;
      Alcotest.test_case "rle2 missing eob" `Quick test_rle2_missing_eob;
      QCheck_alcotest.to_alcotest qcheck_rle2;
      QCheck_alcotest.to_alcotest qcheck_rle2_zero_heavy;
      Alcotest.test_case "huffman single symbol" `Quick test_huffman_single_symbol;
      Alcotest.test_case "huffman kraft" `Quick test_huffman_kraft;
      Alcotest.test_case "huffman max length" `Quick test_huffman_max_length_respected;
      Alcotest.test_case "huffman two symbols" `Quick test_huffman_optimality_two_symbols;
      Alcotest.test_case "huffman encode/decode" `Quick test_huffman_encode_decode;
      Alcotest.test_case "huffman compresses" `Quick test_huffman_compresses_skewed;
      Alcotest.test_case "huffman lengths io" `Quick test_huffman_lengths_serialization;
      QCheck_alcotest.to_alcotest qcheck_huffman;
      Alcotest.test_case "bwt banana" `Quick test_bwt_banana;
      Alcotest.test_case "bwt edge cases" `Quick test_bwt_empty_and_single;
      Alcotest.test_case "bwt periodic" `Quick test_bwt_identical_rotations;
      Alcotest.test_case "bwt sorted" `Quick test_bwt_sort_rotations_is_sorted;
      Alcotest.test_case "bwt bad perm" `Quick test_bwt_bad_perm_rejected;
      QCheck_alcotest.to_alcotest qcheck_bwt;
      QCheck_alcotest.to_alcotest qcheck_bwt_low_alphabet;
      Alcotest.test_case "ftab indices" `Quick test_ftab_indices_recurrence;
      Alcotest.test_case "ftab histogram" `Quick test_histogram_counts_pairs;
      Alcotest.test_case "main sort = fallback" `Quick test_main_sort_matches_fallback;
      Alcotest.test_case "main sort abandons" `Quick test_main_sort_abandons_on_repetitive;
      Alcotest.test_case "block sort paths" `Quick test_block_sort_paths;
      Alcotest.test_case "bzip2 text" `Quick test_bzip2_roundtrip_text;
      Alcotest.test_case "bzip2 random" `Quick test_bzip2_roundtrip_random;
      Alcotest.test_case "bzip2 repetitive" `Quick test_bzip2_roundtrip_repetitive;
      Alcotest.test_case "bzip2 edges" `Quick test_bzip2_roundtrip_edge;
      Alcotest.test_case "bzip2 compresses" `Quick test_bzip2_compresses_text;
      Alcotest.test_case "bzip2 block info" `Quick test_bzip2_block_info;
      Alcotest.test_case "bzip2 bad magic" `Quick test_bzip2_bad_magic;
      Alcotest.test_case "bzip2 multi-table" `Quick test_bzip2_multi_table_blocks;
      Alcotest.test_case "bzip2 six tables" `Quick test_bzip2_large_block_many_groups;
      QCheck_alcotest.to_alcotest qcheck_bzip2;
      QCheck_alcotest.to_alcotest qcheck_bzip2_structured;
      Alcotest.test_case "lz77 hash spec" `Quick test_lz77_hash_matches_spec;
      Alcotest.test_case "lz77 head trace" `Quick test_lz77_hash_head_trace;
      Alcotest.test_case "lz77 repetition" `Quick test_lz77_finds_repetition;
      Alcotest.test_case "lz77 overlap" `Quick test_lz77_overlapping_match;
      Alcotest.test_case "lz77 bad distance" `Quick test_lz77_bad_distance;
      Alcotest.test_case "lz77 lazy roundtrip" `Quick test_lz77_lazy_roundtrip;
      Alcotest.test_case "lz77 lazy defers" `Quick test_lz77_lazy_defers_match;
      Alcotest.test_case "lz77 lazy vs greedy size" `Quick test_lz77_lazy_not_worse_on_text;
      QCheck_alcotest.to_alcotest qcheck_lz77;
      QCheck_alcotest.to_alcotest qcheck_lz77_lazy;
      Alcotest.test_case "deflate code tables" `Quick test_deflate_code_tables;
      Alcotest.test_case "deflate lengths" `Quick test_deflate_all_lengths_roundtrip;
      Alcotest.test_case "deflate distances" `Quick test_deflate_all_distances_roundtrip;
      Alcotest.test_case "deflate roundtrip" `Quick test_deflate_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_deflate;
      Alcotest.test_case "lzw basic" `Quick test_lzw_roundtrip_basic;
      Alcotest.test_case "lzw kwkwk" `Quick test_lzw_kwkwk;
      Alcotest.test_case "lzw width growth" `Quick test_lzw_code_width_growth;
      Alcotest.test_case "lzw freeze" `Quick test_lzw_dictionary_freeze;
      Alcotest.test_case "lzw compresses" `Quick test_lzw_compresses_text;
      Alcotest.test_case "lzw stepper semantics" `Quick test_lzw_stepper_semantics;
      Alcotest.test_case "lzw stepper probe_hit" `Quick test_lzw_stepper_probe_hit_readonly;
      Alcotest.test_case "lzw stepper copy" `Quick test_lzw_stepper_copy_isolated;
      Alcotest.test_case "lzw hash" `Quick test_lzw_probe_hash;
      Alcotest.test_case "lzw probes" `Quick test_lzw_probes_cover_input;
      QCheck_alcotest.to_alcotest qcheck_lzw;
      QCheck_alcotest.to_alcotest qcheck_lzw_low_alphabet;
      Alcotest.test_case "lzw triangular cap boundary" `Quick
        test_lzw_triangular_cap_boundary;
      Alcotest.test_case "lz4 basic" `Quick test_lz4_roundtrip_basic;
      Alcotest.test_case "lz4 overlap" `Quick test_lz4_overlapping_match;
      Alcotest.test_case "lz4 long runs" `Quick test_lz4_long_runs;
      Alcotest.test_case "lz4 compresses" `Quick test_lz4_compresses_text;
      Alcotest.test_case "lz4 hash spec" `Quick test_lz4_hash_matches_spec;
      Alcotest.test_case "lz4 bad offset" `Quick test_lz4_bad_offset;
      QCheck_alcotest.to_alcotest qcheck_lz4;
      Alcotest.test_case "snappy basic" `Quick test_snappy_roundtrip_basic;
      Alcotest.test_case "snappy copy forms" `Quick test_snappy_copy_forms;
      Alcotest.test_case "snappy compresses" `Quick test_snappy_compresses_text;
      Alcotest.test_case "lz4/snappy 1 MiB literal run" `Quick
        test_lz4_snappy_literal_run;
      Alcotest.test_case "snappy hash spec" `Quick test_snappy_hash_matches_spec;
      Alcotest.test_case "snappy bad offset" `Quick test_snappy_bad_offset;
      QCheck_alcotest.to_alcotest qcheck_snappy;
      Alcotest.test_case "decode allocation per output byte" `Quick
        test_decode_allocation;
      Alcotest.test_case "encode allocation per input byte" `Quick
        test_encode_allocation;
      Alcotest.test_case "framed lzw allocation per input byte" `Quick
        test_lzw_frame_allocation;
      Alcotest.test_case "arena retention after a 16 MiB compress" `Quick
        test_arena_retention_bounded;
      QCheck_alcotest.to_alcotest qcheck_short_after_long;
      Alcotest.test_case "encoder bytes pinned by digest" `Quick
        test_encoder_digests;
    ] )
