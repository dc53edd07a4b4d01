(** LZW compression in the style of (N)compress 5.x.

    The dictionary is pre-initialised with codes 0–255 mapping to
    themselves and 256 reserved (the paper's Section IV-C: EOF); new codes
    start at 257.  Code width grows from 9 to 16 bits as entries are added;
    when the code space is exhausted the dictionary freezes.  The encoder
    probes an open-addressed hash table with
    [hp = (c lsl 9) lxor ent] — the paper's Listing 2 gadget — so the
    first probe of every lookup is the address-relevant observable. *)

val eof_code : int
(** 256 — reserved as in (N)compress; this container stores the output
    length up front instead of emitting it. *)

val first_code : int
(** 257 *)

val min_bits : int
(** 9 *)

val max_bits : int
(** 16 *)

val htab_bits : int
(** 17: the hash table has [2^17] slots of 8-byte entries, so the probe
    index reaches the cache channel shifted by 3 (Fig. 3's [rbp + rax*8]
    addressing). *)

val hash : c:int -> ent:int -> int
(** [(c lsl 9) lxor ent], reduced into the table. *)

type probe = {
  hp : int;  (** slot index probed *)
  first : bool;  (** first probe of this lookup (no collision yet) *)
  c : int;  (** pending input byte *)
  ent : int;  (** current dictionary entry *)
}

(** One step of the encoder's main loop.  The attack's recovery algorithm
    (paper Section IV-C) exploits that the dictionary is reconstructible
    from the plaintext prefix: it runs this stepper on the bytes recovered
    so far to obtain the exact [ent] the victim used next. *)
module Stepper : sig
  type t

  val create : first:int -> t
  (** Start a stream whose first input byte is [first].
      @raise Invalid_argument outside 0..255. *)

  val copy : t -> t
  (** Independent snapshot of the dictionary state — lets an attacker's
      mirror explore repair hypotheses. *)

  val probe_hit : t -> ent:int -> c:int -> int option
  (** Read-only dictionary lookup of the (ent, c) pair: the code it maps
      to, if present.  Does not record probes or mutate state. *)

  val ent : t -> int
  (** The current dictionary entry (the value xor'ed into the next hash). *)

  val feed : t -> int -> probe list * (int * int) option
  (** Process the next byte: the hash probes performed, and
      [Some (code, width)] when a code was emitted. *)

  val flush : t -> int * int
  (** Final code and its width. *)
end

val compress : bytes -> bytes

val compress_with_probes : bytes -> bytes * probe list
(** Also returns every hash-table probe in execution order — the memory
    trace an attacker of the Listing 2 gadget observes. *)

val triangular_cap : int
(** Largest [c] for which [c * (c + 1)] fits in an [int] — about the
    integer square root of [max_int] (2147483647 on 64-bit hosts),
    computed from [max_int] so it is correct at any word size. *)

val max_declared_length : payload_bits:int -> int
(** The decompression-bomb bound: the most bytes a payload of
    [payload_bits] could possibly expand to ([c * (c + 1) / 2] for
    [c = payload_bits / min_bits] codes, saturating to [max_int] past
    {!triangular_cap}).  Exposed so the overflow boundary is testable. *)

val decompress_result : bytes -> (bytes, Codec_error.t) result
(** Safe decoder: truncated, corrupt or bomb-shaped input (a header
    declaring more output than the payload could possibly encode) is an
    [Error]; no exception escapes this boundary. *)

val decompress : bytes -> bytes
(** [Codec_error.unwrap] of {!decompress_result}.
    @raise Failure on malformed input. *)
