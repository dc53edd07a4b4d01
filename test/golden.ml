(* The golden decode corpus (test/fixtures/golden/): a few committed
   valid streams per decoder, the cases derived from each by
   deterministic mutation, and the one-line form of a decode result
   that the manifest records.

   For a stream of [n] bytes the cases are the stream itself, its
   prefixes of length 0..255 and n-64..n-1 (every truncation point in
   the first 256 bytes and the last 64), and each single-bit flip over
   its first 512 bits.  A result is [ok <len> <fnv1a>] for decoded
   bytes, or [err <codec> <offset> <reason>]: the decoders' exact
   errors, reader position included, are part of their contract.

   The streams were written once by the encoders of the day and are
   read back from the files, so an encoder change cannot move them;
   a decoder change that moves a result fails the [golden] test. *)

open Zipchannel_util
open Zipchannel_compress

let decoders : (string * (bytes -> (bytes, Codec_error.t) result)) list =
  [
    ("deflate", Deflate.decompress_result);
    ("zlib", Deflate.Zlib.decompress_result);
    ("gzip", Deflate.Gzip.decompress_result);
    ("huffman", Huffman.decode_result);
    ("lzw", Lzw.decompress_result);
    ("bzip2", Bzip2.decompress_result);
    ("frame", Frame.decompress_result);
  ]

let text size =
  Bytes.of_string
    (Lipsum.repetitive_file (Prng.create ~seed:(21 + size) ()) ~level:4 ~size)

let prose size =
  let t = Prng.create ~seed:(22 + size) () in
  let b = Buffer.create size in
  while Buffer.length b < size do
    Buffer.add_string b (Lipsum.paragraph t);
    Buffer.add_char b '\n'
  done;
  Buffer.sub b 0 size |> Bytes.of_string

let random size = Prng.bytes (Prng.create ~seed:(23 + size) ()) size

(* (file name, decoder, how the stream was first written). *)
let streams : (string * string * (unit -> bytes)) list =
  [
    ("deflate-dynamic-text.bin", "deflate", fun () -> Deflate.compress (text 1500));
    ("deflate-dynamic-prose.bin", "deflate", fun () ->
        Deflate.compress ~strategy:Lz77.Lazy (prose 1200));
    ("deflate-dynamic-random.bin", "deflate", fun () -> Deflate.compress (random 600));
    ("deflate-fixed-text.bin", "deflate", fun () ->
        Deflate.compress ~kind:Deflate.Fixed (text 900));
    ("deflate-stored-random.bin", "deflate", fun () ->
        Deflate.compress ~kind:Deflate.Stored (random 300));
    ("zlib-prose.bin", "zlib", fun () -> Deflate.Zlib.compress (prose 1000));
    ("gzip-text.bin", "gzip", fun () ->
        Deflate.Gzip.compress ~name:"golden.txt" (text 1000));
    ("huffman-prose.bin", "huffman", fun () -> Huffman.encode (prose 1000));
    ("huffman-random.bin", "huffman", fun () -> Huffman.encode (random 400));
    ("lzw-text.bin", "lzw", fun () -> Lzw.compress (text 2000));
    ("lzw-random.bin", "lzw", fun () -> Lzw.compress (random 3000));
    ("bzip2-prose.bin", "bzip2", fun () -> Bzip2.compress ~block_size:500 (prose 1200));
    ("bzip2-random.bin", "bzip2", fun () -> Bzip2.compress (random 400));
    ("frame-deflate-text.bin", "frame", fun () ->
        Frame.compress ~frame_size:256 ~codec:Frame.Deflate (text 1000));
  ]

let fnv1a b =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

(* Every case of a stream, in manifest order: (case id, input). *)
let cases stream =
  let n = Bytes.length stream in
  let prefix k = (Printf.sprintf "t%d" k, Bytes.sub stream 0 k) in
  let flip b =
    let c = Bytes.copy stream in
    Bytes.set c (b / 8)
      (Char.chr (Char.code (Bytes.get c (b / 8)) lxor (1 lsl (b mod 8))));
    (Printf.sprintf "f%d" b, c)
  in
  (("full", stream) :: List.init (min 256 n) prefix)
  @ List.filter_map
      (fun k -> if k >= 256 then Some (prefix k) else None)
      (List.init (min 64 n) (fun i -> n - 64 + i))
  @ List.init (min 512 (8 * n)) flip

let result_line = function
  | Ok b -> Printf.sprintf "ok %d %s" (Bytes.length b) (fnv1a b)
  | Error (e : Codec_error.t) ->
      Printf.sprintf "err %s %d %s" e.codec e.offset e.reason

(* Every case of a stream with its result line, in manifest order. *)
let results ~codec stream =
  let decode = List.assoc codec decoders in
  List.map (fun (id, input) -> (id, result_line (decode input))) (cases stream)

(* The manifest stores each stream's cases under a [stream <file>]
   line, one [<case> <result>] line each, with an error's reason
   replaced by [#<k>], an index into the [reason <k> <text>] lines at
   the top: the reasons repeat thousands of times. *)

let split2 l =
  match String.index_opt l ' ' with
  | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
  | None -> (l, "")

(* (file, [(case, result line)]) for every stream, reasons expanded. *)
let read_manifest text =
  let reasons = Hashtbl.create 64 in
  let streams = ref [] in
  List.iter
    (fun l ->
      match split2 l with
      | "", _ -> ()
      | "reason", rest ->
          let k, reason = split2 rest in
          Hashtbl.replace reasons ("#" ^ k) reason
      | "stream", file -> streams := (file, ref []) :: !streams
      | case, result -> (
          let result =
            match String.split_on_char ' ' result with
            | [ "err"; codec; offset; k ] ->
                Printf.sprintf "err %s %s %s" codec offset (Hashtbl.find reasons k)
            | _ -> result
          in
          match !streams with
          | (_, cases) :: _ -> cases := (case, result) :: !cases
          | [] -> failwith "golden manifest: case before any stream"))
    (String.split_on_char '\n' text);
  List.rev_map (fun (file, cases) -> (file, List.rev !cases)) !streams

let write_manifest oc streams =
  let reasons = Hashtbl.create 64 and order = ref [] in
  let compact result =
    match String.split_on_char ' ' result with
    | "err" :: codec :: offset :: words ->
        let reason = String.concat " " words in
        let k =
          match Hashtbl.find_opt reasons reason with
          | Some k -> k
          | None ->
              let k = Hashtbl.length reasons in
              Hashtbl.add reasons reason k;
              order := (k, reason) :: !order;
              k
        in
        Printf.sprintf "err %s %s #%d" codec offset k
    | _ -> result
  in
  let body =
    List.concat_map
      (fun (file, cases) ->
        ("stream " ^ file)
        :: List.map (fun (case, result) -> case ^ " " ^ compact result) cases)
      streams
  in
  List.iter (fun (k, r) -> Printf.fprintf oc "reason %d %s\n" k r) (List.rev !order);
  List.iter (fun l -> output_string oc l; output_char oc '\n') body
