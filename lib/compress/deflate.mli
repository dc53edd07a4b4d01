(** Bit-exact RFC 1951 DEFLATE, with the RFC 1950 (zlib) and RFC 1952
    (gzip) wrappers.

    The encoder entropy-codes the {!Lz77} token stream — zlib's matcher
    — in stored, fixed-Huffman or dynamic-Huffman blocks, with the
    code-length code and its repeat symbols and LSB-first packing.  The
    decoder inflates any block sequence.  Both interoperate with any
    standard inflate and deflate (validated against Python's zlib; see
    test/fixtures).  It is the format of the Gzip/Zlib targets of the
    paper's Section IV-B, and the payload of [Frame]'s [deflate] codec
    and of {!Container}. *)

val length_code : int -> int * int * int
(** [length_code len] is [(symbol, extra_bits, extra_value)] for a match
    length in 3..258.  Symbols are 257..285 as in RFC 1951.
    @raise Invalid_argument out of range. *)

val distance_code : int -> int * int * int
(** [distance_code dist] for a distance in 1..32768; symbols 0..29.
    @raise Invalid_argument out of range. *)

type block_kind = Stored | Fixed | Dynamic

val compress :
  ?kind:block_kind -> ?strategy:Lz77.strategy -> ?max_chain:int -> bytes ->
  bytes
(** A raw DEFLATE stream: one final block of the requested kind (default
    [Dynamic]) over the {!Lz77.tokenize_array} tokens, or stored blocks
    of up to 65535 bytes each. *)

val decompress_result : bytes -> (bytes, Codec_error.t) result
(** Safe inflate of a raw DEFLATE stream (any block sequence):
    truncated or corrupt input, including a match reaching before the
    start of the output, is an [Error]; no exception escapes. *)

val decompress_sub_result :
  bytes -> off:int -> len:int -> (bytes, Codec_error.t) result
(** {!decompress_result} of the [len]-byte slice at [off], read in place
    — no copy of the slice is taken.  Error offsets are positions in the
    whole buffer, not the slice.
    @raise Invalid_argument if the slice is out of bounds. *)

val decompress : bytes -> bytes
(** [Codec_error.unwrap] of {!decompress_result}.
    @raise Failure on malformed input. *)

val decode_tokens_result : bytes -> (Lz77.token list, Codec_error.t) result
(** The tokens a raw DEFLATE stream spells, in {!Lz77.token}'s
    encoding, a stored block's bytes as literals.  Errors are
    {!decompress_result}'s. *)

val decode_tokens : bytes -> Lz77.token list
(** [Codec_error.unwrap] of {!decode_tokens_result}.
    @raise Failure on malformed input. *)

(** RFC 1950 zlib wrapper: 2-byte header + DEFLATE + Adler-32. *)
module Zlib : sig
  val compress : ?kind:block_kind -> bytes -> bytes

  val decompress_result : bytes -> (bytes, Codec_error.t) result
  (** Safe decoder; stream errors carry the offset within the whole
      zlib member.  A window size above 32 KiB (CINFO > 7) is an error
      at offset 0. *)

  val decompress : bytes -> bytes
  (** [Codec_error.unwrap] of {!decompress_result}.
      @raise Failure on a bad header, stream or checksum. *)
end

(** RFC 1952 gzip wrapper: magic/method/flags header (optional file
    name) + DEFLATE + CRC-32 + ISIZE. *)
module Gzip : sig
  val compress : ?kind:block_kind -> ?name:string -> bytes -> bytes

  val decompress_result : bytes -> (bytes, Codec_error.t) result
  (** Safe decoder; stream errors carry the offset within the whole
      gzip member.  Reserved FLG bits (0xE0) are an error at offset 3. *)

  val decompress : bytes -> bytes
  (** [Codec_error.unwrap] of {!decompress_result}.  Handles the
      FNAME/FEXTRA/FCOMMENT/FHCRC header fields.
      @raise Failure on a bad header, stream, checksum or size. *)

  val original_name : bytes -> string option
  (** The FNAME field, when present.  @raise Failure on a bad header. *)
end
