(** Self-describing framed container for streaming compression.

    A frame stream is a stream header naming the codec, a sequence of
    independently-compressed frames each carrying its plaintext length,
    compressed length and a CRC-32 over the compressed payload, and an
    end-of-stream trailer with the total plaintext length and a CRC-32
    over the whole plaintext.  Because frames are independent, the
    pipelined entry points compress them on multiple domains and splice
    the results back in production order — the output is byte-identical
    at any [jobs].

    Wire layout (integers little-endian):
    {v
      stream header  "ZCF1" | codec id (1 byte) | 3 reserved zero bytes
                     (ids: deflate 5, gzip 2, bzip2 3, lzw 4)
      data frame     0x01 | ulen u32 | clen u32 | crc32(payload) | payload
      flush frame    0x02 | same shape (ulen = clen = 0 allowed)
      trailer        0xFF | total ulen u64 | crc32(plaintext)
    v}
    The decoders accept flush frames; {!compress_stream} emits none. *)

type codec = Deflate | Gzip | Bzip2 | Lzw

val codec_id : codec -> int
val codec_of_id : int -> codec option
val codec_name : codec -> string
val codec_of_name : string -> codec option

val codec_names : string list
(** All accepted [codec_of_name] spellings, for CLI docs. *)

val header_len : int
val frame_header_len : int
val trailer_len : int

val default_frame_size : int
(** 64 KiB. *)

val max_frame_size : int
(** Largest per-frame plaintext length the format admits (64 MiB). *)

val max_frame_clen : int
(** Largest per-frame compressed payload (128 MiB). *)

val compress_stream :
  ?frame_size:int ->
  ?jobs:int ->
  codec:codec ->
  read:(bytes -> int -> int -> int) ->
  write:(bytes -> off:int -> len:int -> unit) ->
  unit ->
  unit
(** [compress_stream ~codec ~read ~write ()] pulls plaintext with
    [read buf off len] (returning the number of bytes read, [0] at end
    of input) and pushes the frame stream through [write].  With
    [jobs > 1], frames are compressed through
    {!Zipchannel_parallel.Pipeline} on the calling domain and the
    process-wide pool's parked workers, with at most [2 * jobs] frames
    in flight ({!Zipchannel_parallel.Pipeline.capacity}); output is
    byte-identical to [jobs = 1].  [jobs] counts the calling domain and
    is clamped to the machine's recommended domain count —
    oversubscribed domains only add GC rendezvous — which never changes
    the output, only the wall time.

    Each frame's plaintext is staged in a buffer that is reused for
    later frames and grows only as [read] delivers bytes: it starts at
    most 64 KiB long and doubles, up to [frame_size], each time the
    input fills it, so a large [frame_size] costs memory only when the
    input is that large.  How [read] slices the input never changes the
    output.  Steady-state encoding allocates, per frame, only what the
    underlying codec itself allocates and a few words of pipeline
    bookkeeping; the deflate and LZW codecs keep their tables in the
    domain's arena, so that is little beyond the payload (tested: under
    2 B per input byte for deflate at jobs 1 and 2, under 3 for LZW).

    A [Deflate] frame's payload is a raw RFC 1951 stream, which any
    conforming inflate decodes.  It uses the frame profile of the
    compressor (bounded match-chain walk), so framed deflate output
    differs from (and is faster to produce than) {!Deflate.compress} on
    the same bytes. *)

val decompress_stream :
  ?jobs:int ->
  read:(bytes -> int -> int -> int) ->
  write:(bytes -> off:int -> len:int -> unit) ->
  unit ->
  (unit, Codec_error.t) result
(** Inverse of {!compress_stream}, with the same pipelining contract.
    Errors are structured {!Codec_error.t} values with
    [codec = "frame"] and the input offset reached.

    Each wire unit is pulled with [read] requests for exactly its
    remaining bytes, so reading stops right after the trailer; bytes
    past it are the caller's.  The decoder never allocates on a
    declared length alone: a payload's staging buffer starts at most
    64 KiB long and grows only as payload bytes actually arrive, so a
    forged [clen] cannot balloon memory. *)

val compress : ?frame_size:int -> ?jobs:int -> codec:codec -> bytes -> bytes
(** Whole-buffer convenience over {!compress_stream}. *)

val decompress_result : bytes -> (bytes, Codec_error.t) result
(** Whole-buffer strict decode: {!decompress_stream} at [jobs = 1]
    over the buffer, where bytes after the trailer are an error. *)

val decompress : bytes -> bytes
(** @raise Failure on malformed input (via {!Codec_error.unwrap}). *)
