let eof_code = 256
let first_code = 257
let min_bits = 9
let max_bits = 16
let htab_bits = 17

let htab_size = 1 lsl htab_bits

let code_limit = 1 lsl max_bits

let hash ~c ~ent = ((c lsl 9) lxor ent) land (htab_size - 1)

type probe = { hp : int; first : bool; c : int; ent : int }

(* The container stores the decompressed length up front instead of an
   in-band EOF code: with a known code count the decoder's dictionary lags
   the encoder's by exactly one entry at every read, which makes the code
   width bumps provably synchronized (encoder checks [free_ent > maxcode],
   decoder [free_ent + 1 > maxcode]).  Code 256 stays reserved, as in
   (N)compress. *)

(* The encoder walks the input byte stream keeping [ent], the code of the
   longest dictionary string matching the pending input, exactly like
   compress(1)'s main loop.  The stepper exposes one step of that loop so
   that the attacker's recovery algorithm (paper Section IV-C) can mirror
   the dictionary state from recovered plaintext. *)
module Stepper = struct
  type t = {
    htab : int array;
    codetab : int array;
    mutable free_ent : int;
    mutable n_bits : int;
    mutable ent : int;
  }

  let create ~first =
    if first < 0 || first > 255 then invalid_arg "Lzw.Stepper.create: byte";
    {
      htab = Array.make htab_size (-1);
      codetab = Array.make htab_size 0;
      free_ent = first_code;
      n_bits = min_bits;
      ent = first;
    }

  let copy t =
    {
      htab = Array.copy t.htab;
      codetab = Array.copy t.codetab;
      free_ent = t.free_ent;
      n_bits = t.n_bits;
      ent = t.ent;
    }

  let ent t = t.ent

  (* Read-only lookup: the code for the (ent, c) pair, if present.  Used
     by the attack's recovery to explore repair hypotheses without
     mutating the mirror. *)
  let probe_hit t ~ent ~c =
    let fc = (ent lsl 8) lor c in
    let hp = ref (hash ~c ~ent) in
    let disp = if !hp = 0 then 1 else (htab_size - !hp) lor 1 in
    let result = ref None and finished = ref false in
    while not !finished do
      if t.htab.(!hp) = fc then begin
        result := Some t.codetab.(!hp);
        finished := true
      end
      else if t.htab.(!hp) < 0 then finished := true
      else begin
        hp := !hp - disp;
        if !hp < 0 then hp := !hp + htab_size
      end
    done;
    !result

  let maxcode t = (1 lsl t.n_bits) - 1

  (* Width of the next emitted code, bumping the running width exactly as
     compress(1) does right before output. *)
  let emit_width t =
    if t.free_ent > maxcode t && t.n_bits < max_bits then
      t.n_bits <- t.n_bits + 1;
    t.n_bits

  let feed t c =
    if c < 0 || c > 255 then invalid_arg "Lzw.Stepper.feed: byte";
    let fc = (t.ent lsl 8) lor c in
    (* Open-addressed lookup with compress(1)'s secondary probe.  The
       original table size is prime (69001); ours is a power of two to
       keep the paper's exact index formula, so the displacement is forced
       odd to stay coprime with the table size and cycle every slot. *)
    let hp = ref (hash ~c ~ent:t.ent) in
    let disp = if !hp = 0 then 1 else (htab_size - !hp) lor 1 in
    let probes = ref [] in
    let found = ref false and missing = ref false in
    let first = ref true in
    while (not !found) && not !missing do
      probes := { hp = !hp; first = !first; c; ent = t.ent } :: !probes;
      first := false;
      if t.htab.(!hp) = fc then found := true
      else if t.htab.(!hp) < 0 then missing := true
      else begin
        hp := !hp - disp;
        if !hp < 0 then hp := !hp + htab_size
      end
    done;
    let emitted =
      if !found then begin
        t.ent <- t.codetab.(!hp);
        None
      end
      else begin
        let code = t.ent and width = emit_width t in
        if t.free_ent < code_limit then begin
          t.htab.(!hp) <- fc;
          t.codetab.(!hp) <- t.free_ent;
          t.free_ent <- t.free_ent + 1
        end;
        t.ent <- c;
        Some (code, width)
      end
    in
    (List.rev !probes, emitted)

  let flush t = (t.ent, emit_width t)
end

module Obs = Zipchannel_obs.Obs

let m_bytes_in = Obs.Metrics.counter "kernel.lzw.bytes_in"
let m_bytes_out = Obs.Metrics.counter "kernel.lzw.bytes_out"
let m_probes = Obs.Metrics.counter "kernel.lzw.htab_probes"

let compress_with_probes input =
  Obs.with_span "lzw.compress"
    ~attrs:[ ("bytes", string_of_int (Bytes.length input)) ]
  @@ fun () ->
  let n = Bytes.length input in
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits_lsb w ~value:(n land 0xffff) ~count:16;
  Bitio.Writer.add_bits_lsb w ~value:(n lsr 16) ~count:16;
  let probes = ref [] in
  if n > 0 then begin
    let st = Stepper.create ~first:(Char.code (Bytes.get input 0)) in
    for i = 1 to n - 1 do
      let step_probes, emitted = Stepper.feed st (Char.code (Bytes.get input i)) in
      List.iter (fun p -> probes := p :: !probes) step_probes;
      match emitted with
      | Some (code, width) -> Bitio.Writer.add_bits_lsb w ~value:code ~count:width
      | None -> ()
    done;
    let code, width = Stepper.flush st in
    Bitio.Writer.add_bits_lsb w ~value:code ~count:width
  end;
  let out = Bitio.Writer.to_bytes w in
  Obs.Metrics.add m_bytes_in n;
  Obs.Metrics.add m_bytes_out (Bytes.length out);
  if Obs.enabled () then Obs.Metrics.add m_probes (List.length !probes);
  (out, List.rev !probes)

(* The plain compressor runs the same loop as {!Stepper.feed} but never
   materialises the probe trace: at 1 MiB the per-step probe records and
   cons cells (~1.2M of each) dominate the runtime and crater throughput
   to a quarter of the small-input rate.  The probe *count* is kept in a
   plain int so [kernel.lzw.htab_probes] reports exactly the same value
   as the recording path — one tick per table slot inspected. *)
let slot_htab = 12
let slot_codetab = 13

let compress input =
  Obs.with_span "lzw.compress"
    ~attrs:[ ("bytes", string_of_int (Bytes.length input)) ]
  @@ fun () ->
  let n = Bytes.length input in
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits_lsb w ~value:(n land 0xffff) ~count:16;
  Bitio.Writer.add_bits_lsb w ~value:(n lsr 16) ~count:16;
  let probe_count = ref 0 in
  if n > 0 then begin
    (* Both tables are the domain's arena slots, so a frame of any size
       costs no 2 MiB of tables.  Only [htab] is reset: [codetab] is
       read only behind an [htab] hit, which a run writes itself. *)
    Zipchannel_buf.Arena.with_arena @@ fun arena ->
    let htab = Zipchannel_buf.Arena.ints arena ~slot:slot_htab htab_size in
    Array.fill htab 0 htab_size (-1);
    let codetab = Zipchannel_buf.Arena.ints arena ~slot:slot_codetab htab_size in
    let free_ent = ref first_code in
    let n_bits = ref min_bits in
    let ent = ref (Char.code (Bytes.get input 0)) in
    let emit_width () =
      if !free_ent > (1 lsl !n_bits) - 1 && !n_bits < max_bits then
        incr n_bits;
      !n_bits
    in
    for i = 1 to n - 1 do
      let c = Char.code (Bytes.unsafe_get input i) in
      let fc = (!ent lsl 8) lor c in
      let hp = ref (hash ~c ~ent:!ent) in
      let disp = if !hp = 0 then 1 else (htab_size - !hp) lor 1 in
      let found = ref false and missing = ref false in
      while (not !found) && not !missing do
        incr probe_count;
        let slot = Array.unsafe_get htab !hp in
        if slot = fc then found := true
        else if slot < 0 then missing := true
        else begin
          hp := !hp - disp;
          if !hp < 0 then hp := !hp + htab_size
        end
      done;
      if !found then ent := Array.unsafe_get codetab !hp
      else begin
        let code = !ent and width = emit_width () in
        if !free_ent < code_limit then begin
          Array.unsafe_set htab !hp fc;
          Array.unsafe_set codetab !hp !free_ent;
          incr free_ent
        end;
        ent := c;
        Bitio.Writer.add_bits_lsb w ~value:code ~count:width
      end
    done;
    let width = emit_width () in
    Bitio.Writer.add_bits_lsb w ~value:!ent ~count:width
  end;
  let out = Bitio.Writer.to_bytes w in
  Obs.Metrics.add m_bytes_in n;
  Obs.Metrics.add m_bytes_out (Bytes.length out);
  if Obs.enabled () then Obs.Metrics.add m_probes !probe_count;
  out

(* Decompression-bomb guard: the 32-bit header length is attacker
   controlled, so it is validated against what the payload could possibly
   expand to before anything is allocated.  Every LZW code is at least
   [min_bits] wide, and after [c] codes the longest dictionary string is
   [c] bytes (each new entry extends a previous string by one byte), so
   [c] codes can emit at most [c * (c + 1) / 2] bytes. *)
(* Largest [c] for which [c * (c + 1)] cannot overflow, i.e. about the
   integer square root of [max_int].  Derived from [max_int] instead of a
   hard-coded [1 lsl 31] so the guard is correct at any word size (the old
   constant wrapped to a small number on 32-bit OCaml, letting the product
   below overflow).  The float square root lands within a step or two of
   the answer, so the two fix-up loops run at most a few iterations: this
   is evaluated at module initialisation, in every process that links the
   library. *)
let triangular_cap =
  let fits c = c = 0 || c + 1 <= max_int / c in
  let c = ref (int_of_float (Float.sqrt (float_of_int max_int))) in
  while not (fits !c) do
    decr c
  done;
  while fits (!c + 1) do
    incr c
  done;
  !c

let max_declared_length ~payload_bits =
  let c = payload_bits / min_bits in
  if c > triangular_cap then max_int else c * (c + 1) / 2

let decompress_result data =
  let r = Bitio.Reader.create data in
  Codec_error.protect ~codec:"lzw"
    ~offset:(fun () -> Bitio.Reader.byte_position r)
  @@ fun () ->
  let lo = Bitio.Reader.read_bits_lsb r 16 in
  let hi = Bitio.Reader.read_bits_lsb r 16 in
  let n = (hi lsl 16) lor lo in
  if n > max_declared_length ~payload_bits:(Bitio.Reader.bits_remaining r) then
    failwith "Lzw.decompress: declared length exceeds what the input can encode";
  if n = 0 then Bytes.empty
  else begin
    (* The output grows as it is written, up to the declared [n] and no
       further: the guard bounds [n] only quadratically in the input. *)
    let out = ref (Bytes.create (min n 65536)) and len = ref 0 in
    (* A code >= 257 is its prefix code's string plus one byte:
       [chain.(code)] holds the string's length above 16 bits and the
       prefix code below, [suffix] the byte.  Codes < 256 are literals,
       strings of length 1. *)
    let chain = Array.make code_limit (1 lsl 16) in
    let suffix = Bytes.create code_limit in
    let free_ent = ref first_code in
    let n_bits = ref min_bits in
    let maxcode () = (1 lsl !n_bits) - 1 in
    let read_code () =
      (* The decoder's dictionary is one entry behind the encoder's at
         every read, hence the +1 in the width check. *)
      if !free_ent + 1 > maxcode () && !n_bits < max_bits then incr n_bits;
      Bitio.Reader.read_bits_lsb r !n_bits
    in
    (* Writes a known code's string ending just before [stop], last byte
       first, down the prefix chain. *)
    let write code ~stop =
      let buf = !out and c = ref code and k = ref (stop - 1) in
      while !c > 255 do
        Bytes.unsafe_set buf !k (Bytes.unsafe_get suffix !c);
        c := Array.unsafe_get chain !c land 0xffff;
        decr k
      done;
      Bytes.unsafe_set buf !k (Char.unsafe_chr !c)
    in
    let code0 = read_code () in
    if code0 > 255 then failwith "Lzw.decompress: bad first code";
    Bytes.set !out 0 (Char.chr code0);
    len := 1;
    let prev = ref code0 in
    while !len < n do
      let code = read_code () in
      (* KwKwK: the code the encoder has just made is prev's string plus
         that string's own first byte. *)
      let kwkwk = code = !free_ent && !free_ent < code_limit in
      let prev_len = chain.(!prev) lsr 16 in
      let l =
        if kwkwk then prev_len + 1
        else if code >= 0 && code < 256 then 1
        else if code >= first_code && code < !free_ent then chain.(code) lsr 16
        else failwith "Lzw.decompress: bad code"
      in
      (* A string that runs past [n] could only end in this error. *)
      if l > n - !len then failwith "Lzw.decompress: length mismatch";
      if !len + l > Bytes.length !out then begin
        let grown = Bytes.create (min n (max (!len + l) (2 * Bytes.length !out))) in
        Bytes.blit !out 0 grown 0 !len;
        out := grown
      end;
      if kwkwk then begin
        write !prev ~stop:(!len + prev_len);
        Bytes.set !out (!len + prev_len) (Bytes.get !out !len)
      end
      else write code ~stop:(!len + l);
      if !free_ent < code_limit then begin
        chain.(!free_ent) <- ((prev_len + 1) lsl 16) lor !prev;
        Bytes.set suffix !free_ent (Bytes.get !out !len);
        incr free_ent
      end;
      prev := code;
      len := !len + l
    done;
    !out
  end

let decompress data = Codec_error.unwrap (decompress_result data)
