let runa = 0
let runb = 1
let eob = 257
let alphabet_size = 258

(* A zero-run of length [n >= 1] is written as the bijective base-2 digits
   of [n], least significant first, with digit values 1 -> RUNA, 2 -> RUNB.
   Decoding sums digit * 2^position.

   Every input symbol contributes at most one output symbol (a zero-run of
   z zeros emits at most z digits), plus the trailing EOB, so [len + 2]
   bounds the output and [encode_sub] can fill a flat arena buffer. *)
let encode_sub ?arena symbols ~len =
  let out =
    match arena with
    | Some a -> Zipchannel_buf.Arena.ints a ~slot:8 (len + 2)
    | None -> Array.make (len + 2) 0
  in
  let n_out = ref 0 in
  let push s =
    out.(!n_out) <- s;
    incr n_out
  in
  let flush_run n =
    let n = ref n in
    while !n > 0 do
      if (!n - 1) land 1 = 0 then push runa else push runb;
      n := (!n - 1) asr 1
    done
  in
  let run = ref 0 in
  for i = 0 to len - 1 do
    let s = symbols.(i) in
    if s = 0 then incr run
    else begin
      flush_run !run;
      run := 0;
      push (s + 1)
    end
  done;
  flush_run !run;
  push eob;
  (out, !n_out)

let encode symbols =
  let out, n_out = encode_sub symbols ~len:(Array.length symbols) in
  Array.sub out 0 n_out

(* The run accumulator doubles its weight on every RUNA/RUNB digit, so an
   adversarial symbol stream of ~60 digits demands 2^60 zeros (and then
   overflows the accumulator into a negative count).  [max_output] caps
   the decoded length: both the running weight and the accumulated total
   are checked against it before they can overflow. *)
let default_max_output = max_int / 4

(* Two passes over the first [len] symbols.  The first runs every check,
   in stream order, and counts the output; the second fills an array of
   exactly that size, whose zeros are already the runs. *)
let decode_result ?(max_output = default_max_output) ?len symbols =
  let n = match len with Some n -> n | None -> Array.length symbols in
  let i = ref 0 in
  Codec_error.protect ~codec:"rle2" ~offset:(fun () -> !i) @@ fun () ->
  if max_output < 0 || max_output > default_max_output then
    failwith "Rle2.decode: max_output out of range";
  if n < 0 || n > Array.length symbols then invalid_arg "Rle2.decode: len";
  let exceeds () = failwith "Rle2.decode: output exceeds limit" in
  (* [produced] never exceeds [max_output], nor does a pending run. *)
  let produced = ref 0 in
  let run_value = ref 0 and run_weight = ref 1 in
  let finished = ref false in
  let k = ref 0 in
  while !k < n do
    let s = symbols.(!k) in
    i := !k;
    if !finished then failwith "Rle2.decode: data after EOB";
    if s = runa || s = runb then begin
      if !run_weight > max_output then exceeds ();
      run_value := !run_value + ((s + 1) * !run_weight);
      if !run_value > max_output then exceeds ();
      run_weight := !run_weight * 2
    end
    else if s = eob || (s >= 2 && s <= 256) then begin
      (* The pending run, then the symbol itself unless it is the EOB. *)
      let count = if s = eob then !run_value else !run_value + 1 in
      if count > max_output - !produced then exceeds ();
      produced := !produced + count;
      run_value := 0;
      run_weight := 1;
      if s = eob then finished := true
    end
    else failwith "Rle2.decode: symbol out of range";
    incr k
  done;
  i := n;
  if not !finished then failwith "Rle2.decode: missing EOB";
  let out = Array.make !produced 0 in
  let o = ref 0 and run = ref 0 and weight = ref 1 in
  (* Every symbol is valid now, and the last one is the EOB. *)
  for k = 0 to n - 2 do
    let s = Array.unsafe_get symbols k in
    if s = runa || s = runb then begin
      run := !run + ((s + 1) * !weight);
      weight := !weight * 2
    end
    else begin
      Array.unsafe_set out (!o + !run) (s - 1);
      o := !o + !run + 1;
      run := 0;
      weight := 1
    end
  done;
  out

let decode ?max_output ?len symbols =
  Codec_error.unwrap (decode_result ?max_output ?len symbols)
