(* Off-heap char buffers with unaligned word access.

   A [t] is a plain [Bigarray.Array1] of chars: the GC never moves or
   scans it, so the compression kernels can hold multi-megabyte scratch
   without major-heap pressure, and the compiler's bigstring primitives
   give single-instruction unaligned 8/16/32/64-bit loads and stores.
   Everything here is a thin veneer over those primitives; the word
   helpers assume a little-endian target (checked once at load). *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let create len : t = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len

let length (t : t) = Bigarray.Array1.dim t

let get (t : t) i = Bigarray.Array1.get t i

let set (t : t) i c = Bigarray.Array1.set t i c

external unsafe_get : t -> int -> char = "%caml_ba_unsafe_ref_1"

external unsafe_set : t -> int -> char -> unit = "%caml_ba_unsafe_set_1"

(* Unaligned word access, native (little) endian.  The [u] suffix marks
   the unchecked variants: the caller owns the bounds proof. *)
external get16u : t -> int -> int = "%caml_bigstring_get16u"

external get32u : t -> int -> int32 = "%caml_bigstring_get32u"

external get64u : t -> int -> int64 = "%caml_bigstring_get64u"

external set16u : t -> int -> int -> unit = "%caml_bigstring_set16u"

external set32u : t -> int -> int32 -> unit = "%caml_bigstring_set32u"

external set64u : t -> int -> int64 -> unit = "%caml_bigstring_set64u"

(* The same unaligned word access over [bytes], used by readers that
   stay zero-copy over caller-owned buffers. *)
external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

external bytes_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

external bswap64 : int64 -> int64 = "%bswap_int64"

let () =
  (* The first-mismatch scan reads words and locates the differing byte
     from the low end; that is only the *first* byte in memory order on a
     little-endian target.  Every supported platform is little-endian —
     fail loudly rather than silently mis-compress on one that is not. *)
  if Sys.big_endian then
    failwith "Zipchannel_buf.Bigstring: big-endian targets are unsupported"

let blit_of_bytes src ~src_off (dst : t) ~dst_off ~len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off + len > Bytes.length src
     || dst_off + len > length dst
  then invalid_arg "Bigstring.blit_of_bytes";
  let words = len lsr 3 in
  for w = 0 to words - 1 do
    set64u dst (dst_off + (w lsl 3)) (bytes_get64u src (src_off + (w lsl 3)))
  done;
  for i = words lsl 3 to len - 1 do
    unsafe_set dst (dst_off + i) (Bytes.unsafe_get src (src_off + i))
  done

let blit_to_bytes (src : t) ~src_off dst ~dst_off ~len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off + len > length src
     || dst_off + len > Bytes.length dst
  then invalid_arg "Bigstring.blit_to_bytes";
  let words = len lsr 3 in
  for w = 0 to words - 1 do
    bytes_set64u dst (dst_off + (w lsl 3)) (get64u src (src_off + (w lsl 3)))
  done;
  for i = words lsl 3 to len - 1 do
    Bytes.unsafe_set dst (dst_off + i) (unsafe_get src (src_off + i))
  done

let blit (src : t) ~src_off (dst : t) ~dst_off ~len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off + len > length src
     || dst_off + len > length dst
  then invalid_arg "Bigstring.blit";
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src src_off len)
    (Bigarray.Array1.sub dst dst_off len)

let of_bytes b =
  let t = create (Bytes.length b) in
  blit_of_bytes b ~src_off:0 t ~dst_off:0 ~len:(Bytes.length b);
  t

let to_bytes (t : t) ~off ~len =
  if off < 0 || len < 0 || off + len > length t then
    invalid_arg "Bigstring.to_bytes";
  let b = Bytes.create len in
  blit_to_bytes t ~src_off:off b ~dst_off:0 ~len;
  b

let common_prefix (t : t) i j ~limit =
  if limit < 0 || i < 0 || j < 0 || i + limit > length t || j + limit > length t
  then invalid_arg "Bigstring.common_prefix";
  let len = ref 0 in
  let words = limit lsr 3 in
  let w = ref 0 in
  let stop = ref false in
  while (not !stop) && !w < words do
    let x = Int64.logxor (get64u t (i + !len)) (get64u t (j + !len)) in
    if x = 0L then begin
      len := !len + 8;
      incr w
    end
    else begin
      (* The words differ, so a byte scan from the word's start stops
         inside it; [x] itself is never looked at byte by byte, which
         would box it. *)
      while unsafe_get t (i + !len) = unsafe_get t (j + !len) do
        incr len
      done;
      stop := true
    end
  done;
  if not !stop then
    while
      !len < limit && unsafe_get t (i + !len) = unsafe_get t (j + !len)
    do
      incr len
    done;
  !len
