module Bigstring = Zipchannel_buf.Bigstring

(* The output is the input except at each run of 4 or more equal bytes,
   cut into pieces of at most 255: such a piece becomes its byte 4 times
   and a count byte.  A shorter run, and a shorter rest of a long one,
   is copied.  Runs are maximal, so scanning from the end of one for
   the next 4 equal bytes finds the start of the next long run. *)

(* The first [j >= i] where 4 equal bytes start, or [n].  Eight
   positions at a time: lane [k] of [w0 xor wm], where [wm] is the
   8-byte load at [j + m], is zero when byte [j + k] equals byte
   [j + k + m]; the lowest zero lane of the three ORed together is the
   first start, as in [Mtf.find]. *)
let next_long_run input n i =
  let j = ref i and found = ref (-1) in
  while !found < 0 && !j + 11 <= n do
    let w0 = Bigstring.bytes_get64u input !j in
    let t =
      Int64.logor
        (Int64.logxor w0 (Bigstring.bytes_get64u input (!j + 1)))
        (Int64.logor
           (Int64.logxor w0 (Bigstring.bytes_get64u input (!j + 2)))
           (Int64.logxor w0 (Bigstring.bytes_get64u input (!j + 3))))
    in
    let hits =
      Int64.to_int
        (Int64.shift_right_logical
           (Int64.logand
              (Int64.logand (Int64.sub t 0x0101010101010101L) (Int64.lognot t))
              0x8080808080808080L)
           7)
    in
    if hits = 0 then j := !j + 8
    else found := !j + (((hits land - hits) * 0x0001020304050607) lsr 56)
  done;
  if !found >= 0 then !found
  else begin
    let equal4 j =
      let c = Bytes.unsafe_get input j in
      Bytes.unsafe_get input (j + 1) = c
      && Bytes.unsafe_get input (j + 2) = c
      && Bytes.unsafe_get input (j + 3) = c
    in
    while !j + 3 < n && not (equal4 !j) do incr j done;
    if !j + 3 < n then !j else n
  end

(* The end of the run of equal bytes at [i]: at most 255 of them. *)
let run_end input n i =
  let c = Bytes.unsafe_get input i in
  let stop = if n - i > 255 then i + 255 else n in
  let j = ref (i + 1) in
  while !j < stop && Bytes.unsafe_get input !j = c do incr j done;
  !j

(* Two passes over the long runs: the first sizes the output, the second
   writes it straight into bytes of that size. *)
let encode input =
  let n = Bytes.length input in
  let size = ref 0 and i = ref 0 in
  while !i < n do
    let j = next_long_run input n !i in
    size := !size + (j - !i);
    if j < n then begin
      size := !size + 5;
      i := run_end input n j
    end
    else i := n
  done;
  let out = Bytes.create !size in
  let o = ref 0 in
  i := 0;
  while !i < n do
    let j = next_long_run input n !i in
    Bytes.blit input !i out !o (j - !i);
    o := !o + (j - !i);
    if j < n then begin
      let e = run_end input n j in
      Bytes.fill out !o 4 (Bytes.unsafe_get input j);
      Bytes.unsafe_set out (!o + 4) (Char.unsafe_chr (e - j - 4));
      o := !o + 5;
      i := e
    end
    else i := n
  done;
  out

let decode_result input =
  let n = Bytes.length input in
  let out = Buffer.create n in
  let i = ref 0 in
  Codec_error.protect ~codec:"rle1" ~offset:(fun () -> !i) @@ fun () ->
  while !i < n do
    let c = Bytes.get input !i in
    (* Detect an encoded run: four equal bytes followed by a count. *)
    if !i + 3 < n
       && Bytes.get input (!i + 1) = c
       && Bytes.get input (!i + 2) = c
       && Bytes.get input (!i + 3) = c
    then begin
      if !i + 4 >= n then failwith "Rle1.decode: truncated run";
      let extra = Char.code (Bytes.get input (!i + 4)) in
      for _ = 1 to 4 + extra do Buffer.add_char out c done;
      i := !i + 5
    end
    else begin
      Buffer.add_char out c;
      incr i
    end
  done;
  Buffer.to_bytes out

let decode input = Codec_error.unwrap (decode_result input)
