module Bigstring = Zipchannel_buf.Bigstring

(* The recency list is a 256-byte [Bytes]: moving a byte to the front is
   one overlapping blit (memmove), and encode finds a byte's position 8
   list entries per step with a word-at-a-time search. *)

let initial_order () = Bytes.init 256 Char.unsafe_chr

let move_to_front order pos =
  if pos > 0 then begin
    let c = Bytes.unsafe_get order pos in
    Bytes.unsafe_blit order 0 order 1 pos;
    Bytes.unsafe_set order 0 c
  end

let ones = 0x0101010101010101L
let highs = 0x8080808080808080L

(* Position of byte [c] in [order], which holds every byte value once.
   In each 64-bit little-endian word, [x = word xor (c * ones)] has a zero
   byte exactly where [c] sits, and the lowest set bit of
   [(x - ones) land lnot x land highs] marks the first zero byte (borrows
   only travel upwards from it).  Shifted down by 7 that is
   [1 lsl (8 * i)] for byte [i] of the word, and multiplying it by
   0x0001020304050607 leaves [i] in bits 56 and up. *)
let find order c =
  let pattern = Int64.mul ones (Int64.of_int c) in
  let base = ref 0 and hits = ref 0 in
  while
    let x = Int64.logxor (Bigstring.bytes_get64u order !base) pattern in
    hits :=
      Int64.to_int
        (Int64.shift_right_logical
           (Int64.logand (Int64.logand (Int64.sub x ones) (Int64.lognot x)) highs)
           7);
    !hits = 0
  do
    base := !base + 8
  done;
  !base + (((!hits land - !hits) * 0x0001020304050607) lsr 56)

(* Explicit in-order loops on both sides: the recency list is mutated by
   every step, and [Array.init]/[Bytes.init] do not guarantee the order
   they apply the closure in. *)
let encode_sub ?arena input ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length input then
    invalid_arg "Mtf.encode_sub";
  let order = initial_order () in
  let out =
    match arena with
    | Some a -> Zipchannel_buf.Arena.ints a ~slot:7 len
    | None -> Array.make len 0
  in
  for i = 0 to len - 1 do
    let pos = find order (Char.code (Bytes.unsafe_get input (off + i))) in
    move_to_front order pos;
    Array.unsafe_set out i pos
  done;
  out

let encode input = encode_sub input ~off:0 ~len:(Bytes.length input)

let decode_result symbols =
  let bad = ref (-1) in
  let n = Array.length symbols in
  (try
     for i = 0 to n - 1 do
       let s = symbols.(i) in
       if s < 0 || s > 255 then begin
         bad := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !bad >= 0 then
    Codec_error.error ~codec:"mtf" ~offset:!bad "Mtf.decode: symbol out of range"
  else begin
    let order = initial_order () in
    let out = Bytes.create n in
    for i = 0 to n - 1 do
      let pos = Array.unsafe_get symbols i in
      Bytes.unsafe_set out i (Bytes.unsafe_get order pos);
      move_to_front order pos
    done;
    Ok out
  end

let decode symbols =
  match decode_result symbols with
  | Ok out -> out
  | Error e -> invalid_arg e.Codec_error.reason
