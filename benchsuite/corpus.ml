(* Seeded inputs for every workload.

   Three plaintext shapes, chosen by the encoder path they stress:
   - [Text]: the paper's Fig. 8 repetitive file at level 4 — long
     back-references, the input the Bechamel suite has always used;
   - [Prose]: lipsum paragraphs — short matches, mostly literals;
   - [Random]: incompressible bytes — stored/literal paths, the slow
     inflate case, and the secrets of the attack workload.

   Every input is a pure function of (seed, shape, size), and
   {!digest} prints an FNV-1a hash of it, so two runs can show that they
   measured the same bytes. *)

open Zipchannel
module Prng = Util.Prng

type shape = Text | Prose | Random

let shapes = [ Text; Prose; Random ]

let shape_name = function Text -> "text" | Prose -> "prose" | Random -> "random"

let shape_index = function Text -> 0 | Prose -> 1 | Random -> 2

(* One independent stream per (seed, stream tag); the tag keeps the
   shapes, sizes and request sequences of one seed apart. *)
let prng ~seed tag = Prng.create ~seed:((seed * 7919) + tag) ()

let prose prng size =
  let b = Buffer.create (size + 1024) in
  while Buffer.length b < size do
    Buffer.add_string b (Util.Lipsum.paragraph prng);
    Buffer.add_string b "\n\n"
  done;
  Buffer.sub b 0 size

let make ~seed shape ~size =
  let p = prng ~seed ((size * 4) + shape_index shape) in
  match shape with
  | Text -> Bytes.of_string (Util.Lipsum.repetitive_file p ~level:4 ~size)
  | Prose -> Bytes.of_string (prose p size)
  | Random -> Prng.bytes p size

(* 64-bit FNV-1a, printed as 16 hex digits. *)
let digest b =
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    b;
  Printf.sprintf "%016Lx" !h

(* ------------------------------------------------------------------ *)
(* The serve-mixed request sequence *)

type op = Compress | Decompress

type request = { op : op; size : int; shape : shape }

let request_sizes = [| 4096; 65536; 524288 |]

(* Sizes 4 KiB : 64 KiB : 512 KiB in weights 8:4:1, shapes uniform,
   compress : decompress in weights 3:1.  The sequence is a series of
   seeded shuffles of one 156-request block holding exactly those
   proportions, so every run sees the same mix whatever the seed; drawing
   each request independently let the few large requests, which carry
   most of the bytes, move MB/s by 20% from seed to seed.  Each
   connection has its own stream, so its sequence does not depend on how
   the connections interleave. *)
let request_block =
  Array.of_list
    (List.concat_map
       (fun (size, weight) ->
         List.concat_map
           (fun shape ->
             List.concat_map
               (fun (op, w) -> List.init (weight * w) (fun _ -> { op; size; shape }))
               [ (Compress, 3); (Decompress, 1) ])
           shapes)
       [ (4096, 8); (65536, 4); (524288, 1) ])

let requests ~seed ~conn =
  let p = prng ~seed (1_000_000 + conn) in
  let block = Array.copy request_block and i = ref (Array.length request_block) in
  fun () ->
    if !i = Array.length block then begin
      Prng.shuffle p block;
      i := 0
    end;
    incr i;
    block.(!i - 1)
