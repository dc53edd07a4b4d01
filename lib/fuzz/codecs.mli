(** The codec registry the fuzzer drives.

    One entry per public decoder boundary of {!Zipchannel_compress}:
    the blocked pipelines (bzip2), the DEFLATE family (deflate,
    zlib, gzip), the dictionary and entropy coders (lzw,
    huffman), the byte-level stage (rle1) and the containers (stream,
    archive).  Each entry pairs the compressor (used to build the valid
    corpus) with both decode APIs: the [result]-returning safe decoder
    the oracle checks, and the historical exception API whose contract
    ("raises only its documented exception") the robustness tests
    enforce. *)

type t = {
  name : string;
  compress : bytes -> bytes;
  decode : bytes -> (bytes, Zipchannel_compress.Codec_error.t) result;
  decode_exn : bytes -> bytes;
      (** historical API; must raise only [Failure] /
          [Container.Corrupt], never [Out_of_bits] *)
  max_plain : int;
      (** cap on corpus plaintext size — keeps bzip2 block sorting
          cheap enough for tens of thousands of cases *)
}

val all : t list
(** Every codec, in a fixed report order. *)

val names : string list

val find : string -> t option
(** Lookup by {!t.name}. *)
