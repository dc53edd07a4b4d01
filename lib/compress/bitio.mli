(** Bit-level serialization on the zero-copy substrate.

    Writers emit into growable bigstrings; readers are zero-copy views
    over the caller's [bytes] — [create ?start ?len] reads exactly the
    bits of [Bytes.sub data start len] without materializing the slice.
    Byte streams and reader observables are bit-identical to
    {!Bitio_ref}, the retained reference implementation.

    Two packing orders are provided because the compressors disagree:
    Huffman/Bzip2 streams are most-significant-bit first, while the LZW
    code stream (like compress(1)) packs least-significant-bit first.  A
    given stream must use one order consistently. *)

val rev8 : string
(** Byte [b] of [rev8] is [b] with its eight bits reversed. *)

val reverse : int -> int -> int
(** [reverse v n] is the low [n] bits of [v] in reverse order, for [n]
    in 0..30: the first bit becomes the last. *)

module Writer : sig
  type t = {
    mutable data : Zipchannel_buf.Bigstring.t;
    mutable len : int;
    mutable acc : int;
    mutable nbits : int;
  }
  (** [data.(0 .. len - 1)] are the whole bytes written; the [nbits]
      (0..7) bits written after them are [acc]'s low bits, first bit
      most significant, and [acc] has no bits above them.  {!Huffman}'s
      symbol runs keep [acc] and [nbits] in local variables and store
      them back. *)

  val create : unit -> t

  val ensure : t -> int -> unit
  (** [ensure t n] makes room for [n] more bytes past [len] in [data]. *)

  val add_bit : t -> bool -> unit
  (** MSB-first single bit. *)

  val add_bits_msb : t -> value:int -> count:int -> unit
  (** Append [count] bits of [value], most significant of the [count] bits
      first.  @raise Invalid_argument if [count] not in 0..30 or value has
      higher bits set. *)

  val add_bits_lsb : t -> value:int -> count:int -> unit
  (** Append [count] bits, least significant first. *)

  val align_byte : t -> unit
  (** Pad with zero bits to the next byte boundary. *)

  val bit_length : t -> int

  val append : t -> t -> unit
  (** [append t src] appends every bit written to [src] onto [t], at [t]'s
      current (possibly unaligned) bit position.  [src] is unchanged.
      This is how independently produced block bitstreams are spliced
      back together after parallel compression. *)

  val to_bytes : t -> bytes
  (** Byte-aligned contents; the final partial byte is zero-padded. *)
end

(** LSB-first bit stream, the byte-level convention of RFC 1951: bit [k]
    of the stream lives in byte [k/8] at bit position [k mod 8] counted
    from the least significant bit.  The RFC sends a Huffman code most
    significant bit first, so its writer passes [add_bits] the code with
    its bits reversed. *)
module Lsb_writer : sig
  type t

  val create : unit -> t

  val add_bits : t -> value:int -> count:int -> unit
  (** Append [count] bits of [value], least significant first — the order
      RFC 1951 uses for everything except Huffman codes.
      @raise Invalid_argument if [count] not in 0..24 or the value is too
      wide. *)

  val align_byte : t -> unit

  val to_bytes : t -> bytes
end

module Lsb_reader : sig
  type t = { data : bytes; mutable pos : int; limit : int }
  (** [pos] is the next bit to read and [limit] the first bit past the
      readable slice (a byte boundary), both counted from the start of
      [data].  The decoders that keep their bit buffer in local
      variables ({!Deflate}'s inflate loop) read [data] directly and
      store [pos] back when they hand control on; [pos] never passes
      [limit]. *)

  exception Out_of_bits

  val create : ?start:int -> ?len:int -> bytes -> t
  (** [create ~start ~len b] reads the bits of [Bytes.sub b start len]
      without copying; [len] defaults to the rest of the buffer. *)

  val read_bits : t -> int -> int
  (** LSB-first, mirroring {!Lsb_writer.add_bits}. *)

  val read_bit : t -> bool
  (** One stream bit — successive calls deliver a Huffman code most
      significant bit first. *)

  val peek : t -> int -> int
  (** [peek t n] is what [read_bits t n] would return, without consuming
      anything, for [n] in 0..15.  Bits past the end of the stream read
      as zero, so a peek never fails; the first stream bit is the
      value's least significant.
      @raise Invalid_argument if [n] is not in 0..15. *)

  val skip : t -> int -> unit
  (** [skip t n] consumes [n] bits.  When fewer than [n] are left it
      consumes what is left, as {!read_bits} does, and raises
      [Out_of_bits]: the reader never moves past the end.
      @raise Invalid_argument if [n] is negative. *)

  val align_byte : t -> unit
  val byte_position : t -> int
  val bits_remaining : t -> int
end

module Reader : sig
  type t = { data : bytes; mutable pos : int; limit : int }
  (** As {!Lsb_reader.t}: the bit position and the limit, counted from
      the start of [data].  {!Huffman}'s symbol runs and {!Lzw}'s
      decoder read [data] directly and store [pos] back. *)

  exception Out_of_bits
  (** Raised when reading past the end of the stream. *)

  val create : ?start:int -> ?len:int -> bytes -> t
  (** [create ~start ~len b] reads from byte offset [start] (default 0),
      stopping after [len] bytes (default: the rest of the buffer) — a
      zero-copy replacement for reading from [Bytes.sub b start len]. *)

  val read_bit : t -> bool
  val read_bits_msb : t -> int -> int
  val read_bits_lsb : t -> int -> int

  val peek : t -> int -> int
  (** [peek t n] is what [read_bits_msb t n] would return, without
      consuming anything, for [n] in 0..15.  Bits past the end of the
      stream read as zero, so a peek never fails.
      @raise Invalid_argument if [n] is not in 0..15. *)

  val skip : t -> int -> unit
  (** [skip t n] consumes [n] bits.  When fewer than [n] are left it
      consumes what is left, as {!read_bits_msb} does, and raises
      [Out_of_bits]: the reader never moves past the end.
      @raise Invalid_argument if [n] is negative. *)

  val align_byte : t -> unit
  val bits_remaining : t -> int
  val byte_position : t -> int
  (** Index of the byte holding the next unread bit. *)
end
