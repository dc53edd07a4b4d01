(** DEFLATE-style container over the {!Lz77} token stream.

    Tokens are entropy-coded with two canonical Huffman tables — one for
    literals/lengths, one for distances — using RFC 1951's length and
    distance code ranges with extra bits.  The header stores the raw code
    length arrays instead of RFC 1951's code-length code, so the output is
    DEFLATE-shaped rather than bit-compatible with zlib. *)

val length_code : int -> int * int * int
(** [length_code len] is [(symbol, extra_bits, extra_value)] for a match
    length in 3..258.  Symbols are 257..285 as in RFC 1951.
    @raise Invalid_argument out of range. *)

val distance_code : int -> int * int * int
(** [distance_code dist] for a distance in 1..32768; symbols 0..29.
    @raise Invalid_argument out of range. *)

val base_of_length_code : int -> int * int
(** [(base_length, extra_bits)] of a length symbol. *)

val base_of_distance_code : int -> int * int

val encode_tokens : Lz77.token list -> bytes

val decode_tokens_result : bytes -> (Lz77.token list, Codec_error.t) result
(** Safe token decoder: truncated or corrupt input is an [Error]; no
    exception escapes this boundary. *)

val decode_tokens : bytes -> Lz77.token list
(** [Codec_error.unwrap] of {!decode_tokens_result}.
    @raise Failure on malformed input. *)

val compress : ?strategy:Lz77.strategy -> ?max_chain:int -> bytes -> bytes
(** [Lz77.tokenize] + [encode_tokens]. *)

val decompress_result : bytes -> (bytes, Codec_error.t) result
(** The bytes {!decode_tokens_result}'s tokens spell, decoded without
    building the token list.  Parse errors are the same as
    {!decode_tokens_result}'s; a well-formed stream with an out-of-window
    match distance is an error too, with no offset. *)

val decompress_sub_result :
  bytes -> off:int -> len:int -> (bytes, Codec_error.t) result
(** {!decompress_result} of the [len]-byte slice at [off], read in place
    — no copy of the slice is taken.  Error offsets are positions in the
    whole buffer, not the slice.
    @raise Invalid_argument if the slice is out of bounds. *)

val decompress : bytes -> bytes
(** [Codec_error.unwrap] of {!decompress_result}.
    @raise Failure on malformed input. *)

(** {2 Decoded output}

    The buffer both this module and {!Rfc1951} decode into: bytes that
    double when they fill. *)

type output = { mutable buf : bytes; mutable len : int }
(** The first [len] bytes of [buf] are the output so far. *)

val output : int -> output
(** An empty output with room for the given number of bytes. *)

val add_byte : output -> char -> unit

val add_match : output -> distance:int -> length:int -> unit
(** Append the [length] bytes that start [distance] bytes back; a match
    longer than its distance repeats the bytes it appends.
    @raise Invalid_argument if [distance] is not in [1 .. len]. *)

val contents : output -> bytes
(** The output so far; may share [buf]. *)
