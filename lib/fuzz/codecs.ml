module C = Zipchannel_compress

type t = {
  name : string;
  compress : bytes -> bytes;
  decode : bytes -> (bytes, C.Codec_error.t) result;
  decode_exn : bytes -> bytes;
  max_plain : int;
}

let join_entries entries =
  Bytes.concat Bytes.empty
    (List.map (fun e -> e.C.Container.Archive.data) entries)

let all =
  [
    {
      name = "lzw";
      compress = C.Lzw.compress;
      decode = C.Lzw.decompress_result;
      decode_exn = C.Lzw.decompress;
      max_plain = 4096;
    };
    {
      name = "huffman";
      compress = C.Huffman.encode;
      decode = C.Huffman.decode_result;
      decode_exn = C.Huffman.decode;
      max_plain = 4096;
    };
    {
      name = "deflate";
      compress = (fun b -> C.Deflate.compress b);
      decode = C.Deflate.decompress_result;
      decode_exn = C.Deflate.decompress;
      max_plain = 4096;
    };
    {
      name = "zlib";
      compress = (fun b -> C.Deflate.Zlib.compress b);
      decode = C.Deflate.Zlib.decompress_result;
      decode_exn = C.Deflate.Zlib.decompress;
      max_plain = 4096;
    };
    {
      name = "gzip";
      compress = (fun b -> C.Deflate.Gzip.compress b);
      decode = C.Deflate.Gzip.decompress_result;
      decode_exn = C.Deflate.Gzip.decompress;
      max_plain = 4096;
    };
    {
      name = "bzip2";
      compress = (fun b -> C.Bzip2.compress b);
      decode = C.Bzip2.decompress_result;
      decode_exn = C.Bzip2.decompress;
      (* bzip2 block sorting dominates corpus construction; keep the
         plaintext under one default block. *)
      max_plain = 2048;
    };
    {
      name = "lz4";
      compress = C.Lz4.compress;
      decode = C.Lz4.decompress_result;
      decode_exn = C.Lz4.decompress;
      max_plain = 4096;
    };
    {
      name = "snappy";
      compress = C.Snappy.compress;
      decode = C.Snappy.decompress_result;
      decode_exn = C.Snappy.decompress;
      max_plain = 4096;
    };
    {
      name = "rle1";
      compress = C.Rle1.encode;
      decode = C.Rle1.decode_result;
      decode_exn = C.Rle1.decode;
      max_plain = 4096;
    };
    {
      name = "stream";
      compress = C.Container.Stream.pack;
      decode = C.Container.Stream.unpack_result;
      decode_exn = C.Container.Stream.unpack;
      max_plain = 4096;
    };
    {
      name = "frame";
      (* Small frames so a 4 KiB corpus plaintext spans several frames
         and mutations can land in any header, payload or the trailer. *)
      compress =
        (fun data -> C.Frame.compress ~frame_size:512 ~codec:C.Frame.Deflate data);
      decode = C.Frame.decompress_result;
      decode_exn = C.Frame.decompress;
      max_plain = 4096;
    };
    {
      name = "archive";
      compress =
        (fun data -> C.Container.Archive.pack [ { name = "fuzz"; data } ]);
      decode =
        (fun b ->
          match C.Container.Archive.unpack_result b with
          | Ok entries -> Ok (join_entries entries)
          | Error e -> Error e);
      decode_exn = (fun b -> join_entries (C.Container.Archive.unpack b));
      max_plain = 2048;
    };
  ]

let names = List.map (fun c -> c.name) all

let find name = List.find_opt (fun c -> c.name = name) all
