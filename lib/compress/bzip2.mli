(** The Bzip2 compression pipeline: RLE1 → block split → BWT (budgeted
    block sort) → MTF → RLE2 → canonical Huffman.

    Every stage is the OCaml counterpart of the bzip2-1.0.6 stage of the
    same name; the container format is this library's own (bzip2's bit-
    exact file format is out of scope, the algorithms are not).  The paper
    uses 10,000-byte blocks when describing the sorting control flow
    (Section VI); that is the default here. *)

type block_info = {
  index : int;  (** block number, 0-based *)
  length : int;  (** bytes of post-RLE1 data in the block *)
  path : Block_sort.path;  (** which sort functions ran, and for how long *)
}

val default_block_size : int
(** 10,000 bytes, per the paper's description. *)

val max_block_size : int
(** 2^24 bytes — the largest post-RLE1 block length the format
    supports.  {!compress} rejects larger [block_size] values;
    {!decompress} rejects headers declaring more (they would let a
    ~50-byte input demand a 4 GiB allocation). *)

val compress : ?block_size:int -> ?jobs:int -> bytes -> bytes
(** The production compressor.  Blocks are sorted by the comparison-free
    {!Bwt.sort_rotations_sub}, not by the {!Block_sort} victim model;
    both break ties between identical rotations by start index, so the
    output is byte-identical to {!compress_with_info}'s.  [jobs]
    (default 1) compresses blocks on that many domains; the output bytes
    are identical for every value, blocks being independent. *)

val compress_with_info :
  ?block_size:int ->
  ?budget_factor:int ->
  ?jobs:int ->
  bytes ->
  bytes * block_info list
(** {!compress} through the victim model: each block is sorted by
    {!Block_sort.block_sort_sub} (mainSort under a [budget_factor] work
    budget, falling back to fallbackSort), and the per-block sorting
    control flow is reported — the observable the fingerprinting attack
    of Section VI classifies.  Same bytes as {!compress}; the paths are
    identical for every [jobs]. *)

val compress_ref : ?block_size:int -> bytes -> bytes
(** Reference implementation of {!compress}: sequential, one whole-block
    [Bytes.sub] per block, fresh allocations in every stage, victim-model
    sorter.  Slower than {!compress} and not used by production code;
    retained so differential tests can pin the zero-copy arena pipeline
    and the production sorter to byte-identical output. *)

val decompress_result : bytes -> (bytes, Codec_error.t) result
(** Safe decoder: truncated or corrupt streams, oversized block headers
    and zero-run bombs are an [Error]; no exception escapes this
    boundary. *)

val decompress : bytes -> bytes
(** [Codec_error.unwrap] of {!decompress_result}.
    @raise Failure on malformed input. *)
