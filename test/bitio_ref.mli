(** Reference bit-level serialization ([Buffer.t]/[bytes] backed).

    The pre-bigstring implementation of [Bitio], kept as the executable
    specification test_bigstring.ml pins the optimized module against.

    Two packing orders are provided because the compressors disagree:
    Huffman/Bzip2 streams are most-significant-bit first, while the LZW
    code stream (like compress(1)) packs least-significant-bit first.  A
    given stream must use one order consistently. *)

module Writer : sig
  type t

  val create : unit -> t

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
  type t

  exception Out_of_bits

  val create : ?start:int -> bytes -> t
  val read_bits : t -> int -> int
  (** LSB-first, mirroring {!Lsb_writer.add_bits}. *)

  val read_bit : t -> bool
  (** One stream bit — successive calls deliver a Huffman code most
      significant bit first. *)

  val align_byte : t -> unit
  val byte_position : t -> int
  val bits_remaining : t -> int
end

module Reader : sig
  type t

  exception Out_of_bits
  (** Raised when reading past the end of the stream. *)

  val create : ?start:int -> bytes -> t
  (** [create ~start b] reads from byte offset [start] (default 0). *)

  val read_bit : t -> bool
  val read_bits_msb : t -> int -> int
  val read_bits_lsb : t -> int -> int
  val align_byte : t -> unit
  val bits_remaining : t -> int
  val byte_position : t -> int
  (** Index of the byte holding the next unread bit. *)
end
