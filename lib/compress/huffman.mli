(** Canonical Huffman coding.

    Code lengths are derived from symbol frequencies with a binary heap and
    repaired to respect a maximum length (the zlib overflow-repair
    technique); codes are then assigned canonically so that only the length
    array needs to be serialized.  Encoding and decoding are MSB-first. *)

type code = { length : int; bits : int }

val lengths_of_freqs : ?max_length:int -> int array -> int array
(** [lengths_of_freqs freqs] maps each symbol to its code length; symbols
    with zero frequency get length 0.  [max_length] defaults to 15.
    A lone used symbol gets length 1.  @raise Invalid_argument if more than
    [2^max_length] symbols are in use. *)

val scratch_size : int -> int
(** [scratch_size n] ints of scratch let {!lengths_of_freqs_into} build
    the code of an [n]-symbol alphabet. *)

val lengths_of_freqs_into :
  ?max_length:int ->
  int array ->
  off:int ->
  len:int ->
  scratch:int array ->
  lengths:int array ->
  unit
(** [lengths_of_freqs_into freqs ~off ~len ~scratch ~lengths] writes
    {!lengths_of_freqs} of [Array.sub freqs off len] into
    [lengths.(off .. off + len - 1)], with [scratch] (at least
    [scratch_size len] ints) as its heap and tree, and allocates
    nothing when no length exceeds [max_length].
    @raise Invalid_argument as {!lengths_of_freqs} does, on a range
    outside [freqs] or [lengths], on a short [scratch], and when the
    frequencies sum to [2^(62 - b)] or more, where [2^b >= 2 len]. *)

val canonical_codes : int array -> code array
(** Canonical code assignment from lengths: shorter codes first, ties by
    symbol index.  Length-0 symbols get [{length = 0; bits = 0}].
    @raise Invalid_argument if the lengths oversubscribe the code space
    or one is above 15. *)

val packed_codes_into :
  int array -> off:int -> len:int -> int array -> unit
(** [packed_codes_into lengths ~off ~len codes] writes the
    {!canonical_codes} of [lengths.(off .. off + len - 1)] into
    [codes.(off .. off + len - 1)], each packed as
    [(bits lsl 4) lor length], and 0 for a symbol without a code.
    @raise Invalid_argument on a range outside either array, a length
    above 15, or oversubscribed lengths. *)

val write_lengths : ?off:int -> ?len:int -> Bitio.Writer.t -> int array -> unit
(** Serialize [lengths.(off .. off + len - 1)] (values 0..15, 4 bits
    each; by default the whole array) preceded by the 16-bit symbol
    count. *)

val read_lengths : Bitio.Reader.t -> int array
(** Reads the 16-bit count then that many 4-bit lengths, in stream
    order.  Truncation surfaces as the reader's own exception (see
    {!Bitio.Reader}) — callers are decoder internals that map it to a
    {!Codec_error.t} at their own boundary. *)

val write_symbol : Bitio.Writer.t -> code array -> int -> unit
(** @raise Invalid_argument when the symbol has no code. *)

val write_symbols :
  Bitio.Writer.t ->
  int array ->
  base:int ->
  int array ->
  off:int ->
  len:int ->
  unit
(** [write_symbols w codes ~base symbols ~off ~len] writes each of
    [symbols.(off .. off + len - 1)] with the code at
    [codes.(base + symbol)], packed as {!packed_codes_into} packs them:
    the bits of as many {!write_symbol} calls, with no call per symbol.
    @raise Invalid_argument when a symbol has no code, after writing the
    symbols before it. *)

type decoder
(** A two-level lookup table over the canonical codes of a length array:
    one peek of up to 15 bits and one or two table lookups per symbol. *)

val decoder_of_lengths : int array -> decoder
(** Lengths of 0 (or less) mark unused symbols.  Oversubscribed lengths
    are accepted: codes that do not fit in their length cannot be read,
    exactly as with a bit-serial canonical decoder.
    @raise Invalid_argument on a length above 15. *)

val read_symbol : Bitio.Reader.t -> decoder -> int
(** Decode one symbol, code most significant bit first.  Consumes the
    code's bits only; a code the table lacks consumes the longest code
    length in bits before failing.
    @raise Failure on a code not present in the table. *)

val read_symbols :
  Bitio.Reader.t -> decoder -> int array -> at:int -> count:int -> stop:int -> int
(** [read_symbols r d dst ~at ~count ~stop] decodes up to [count]
    symbols into [dst] from index [at], and stops early after storing
    [stop]; it returns the number of symbols stored.  The symbols, the
    bits consumed and every failure are those of as many {!read_symbol}
    calls, which is what it falls back to within 8 bytes of the end of
    the reader's slice and on a code the table lacks.
    @raise Failure on a code not present in the table. *)

(** {2 RFC 1951's LSB-first packing}

    A Huffman code still goes most significant bit first into a stream
    whose other fields go least significant bit first. *)

val lsb_codes : int array -> int array
(** The canonical codes of a length array for {!Bitio.Lsb_writer}, each
    bit-reversed once here: [(reversed_bits lsl 4) lor length], 0 for a
    symbol without a code. *)

type lsb_decoder
(** A {!decoder} with each table level indexed in stream order, first
    bit lowest. *)

val lsb_decoder_of_lengths : int array -> lsb_decoder
(** As {!decoder_of_lengths}.  @raise Invalid_argument on a length above
    15. *)

val lsb_table : lsb_decoder -> int array
(** The decoder's table, for a loop that indexes it directly
    ({!Deflate}'s inflate).  The root level is the first
    {!lsb_root_bits} entries, indexed by that many stream bits, first
    bit lowest.  An entry is 0 when no code starts with those bits,
    [(symbol lsl 5) lor length] for a code of [length] (1..15) bits,
    and [(offset lsl 5) lor 16 lor width] for a link to the
    second-level table at [offset], indexed by the next [width] stream
    bits. *)

val lsb_root_bits : lsb_decoder -> int

val read_symbol_lsb : Bitio.Lsb_reader.t -> lsb_decoder -> int
(** {!read_symbol} over the LSB-first stream: the same symbols, bits
    consumed and failures.
    @raise Failure on a code not present in the table. *)

val encode : bytes -> bytes
(** Self-contained single-table byte compressor: header (lengths) + body +
    32-bit symbol count.  Exercises the whole module and serves as the
    entropy stage of the LZW-less pipelines. *)

val decode_result : bytes -> (bytes, Codec_error.t) result
(** Safe inverse of {!encode}: truncated or corrupt input, and headers
    declaring more output than the payload holds bits (each symbol costs
    at least one bit), return [Error]; no exception escapes. *)

val decode : bytes -> bytes
(** [Codec_error.unwrap] of {!decode_result}.
    @raise Failure on malformed input. *)
