(** LZ77 sliding-window matching with zlib's chained hash table.

    The matcher maintains the exact hash of the DEFLATE specification's
    recommended implementation, as analysed in the paper's Section IV-B
    (Listing 1): a 15-bit rolling hash over 3-byte windows,
    [h' = ((h << 5) lxor c) land 0x7fff], whose use as an index into the
    [head] array is the cache side-channel gadget. *)

val min_match : int
(** 3 *)

val max_match : int
(** 258 *)

val window_size : int
(** 32768 *)

val hash_bits : int
(** 15 *)

val hash_mask : int
(** 0x7fff *)

val update_hash : int -> int -> int
(** [update_hash h c] is zlib's UPDATE_HASH: [((h lsl 5) lxor c) land
    0x7fff]. *)

val hash_of_triple : int -> int -> int -> int
(** Hash of three consecutive bytes, oldest first: the value of [ins_h]
    when the triple's first byte is inserted. *)

type token = int
(** An unboxed token: a literal is its byte value (0..255); a match of
    [length] 3..258 at [distance] 1..32768 is
    [(length lsl 16) lor distance], so every match is above 255.
    {!Deflate.decode_tokens} reads a stream back into the same
    encoding. *)

val match_token : length:int -> distance:int -> token
val is_match : token -> bool
val match_length : token -> int
val match_distance : token -> int

type strategy = Greedy | Lazy

val pp_token : Format.formatter -> token -> unit

val tokenize_in :
  Zipchannel_buf.Arena.t -> ?strategy:strategy -> ?max_chain:int -> bytes ->
  token array * int
(** [tokenize_in arena input] is [(buf, count)]: the tokens are the
    first [count] entries of [buf], an [arena] slot that the arena's
    next user overwrites.  The hash heads, the 32 KiB chain ring and
    the off-heap copy of the input come from [arena] too, so a
    steady-state run allocates nothing.  [max_chain] bounds the
    hash-chain walk (default 128).  [Greedy] (default) takes every
    match immediately; [Lazy] is zlib's deflate_slow evaluation — the
    paper's Fig. 2 gadget location — which defers a match by one
    position when the next position matches longer. *)

val tokenize_array : ?strategy:strategy -> ?max_chain:int -> bytes -> token array
(** {!tokenize_in} on a per-domain arena, copied out: exactly the
    tokens. *)

val hash_head_trace : bytes -> int array
(** The successive values of [ins_h] at each INSERT_STRING call — index
    [k] is the hash of input bytes [k, k+1, k+2]; length is
    [max 0 (n - 2)].  This is the address-relevant observable of the Zlib
    gadget. *)
