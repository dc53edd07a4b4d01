module Bigstring = Zipchannel_buf.Bigstring

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
let slot_written = 13
let slot_clean = 14

(* A run that writes at most this many [htab] slots resets just those. *)
let record_max = htab_size / 8

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
    (* One table in the domain's arena, so a frame of any size costs no
       table allocation: a used slot holds compress(1)'s [htab] and
       [codetab] entries at once, [(fc lsl 17) lor code], so a hit
       costs one load.  [htab] is left empty (all -1) after each run,
       with [clean.(0)] set to 1: a run records the slots it writes and
       resets just those, or the whole table when it wrote more than
       [record_max].  A new arena's table (zeros) and one a run left
       mid-way are filled whole first.  A probe sequence runs until an
       empty slot, so the table cannot be reset before the run, as
       [Lz77]'s heads are. *)
    probe_count :=
      Zipchannel_buf.Arena.with_arena @@ fun arena ->
      let htab = Zipchannel_buf.Arena.ints arena ~slot:slot_htab htab_size in
      let clean = Zipchannel_buf.Arena.ints arena ~slot:slot_clean 1 in
      if clean.(0) <> 1 || htab.(0) <> -1 then Array.fill htab 0 htab_size (-1);
      clean.(0) <- 0;
      let written =
        Zipchannel_buf.Arena.ints arena ~slot:slot_written (min n record_max)
      in
      let n_written = ref 0 and probes = ref 0 in
      let free_ent = ref first_code and n_bits = ref min_bits in
      let ent = ref (Char.code (Bytes.get input 0)) in
      for i = 1 to n - 1 do
        let c = Char.code (Bytes.unsafe_get input i) in
        let fc = (!ent lsl 8) lor c in
        let hp = ref (hash ~c ~ent:!ent) in
        let disp = if !hp = 0 then 1 else (htab_size - !hp) lor 1 in
        let found = ref false and missing = ref false in
        while (not !found) && not !missing do
          incr probes;
          let slot = Array.unsafe_get htab !hp in
          if slot lsr 17 = fc then begin
            found := true;
            ent := slot land 0x1ffff
          end
          else if slot < 0 then missing := true
          else begin
            hp := !hp - disp;
            if !hp < 0 then hp := !hp + htab_size
          end
        done;
        if not !found then begin
          (* compress(1) bumps the width right before output. *)
          if !free_ent > (1 lsl !n_bits) - 1 && !n_bits < max_bits then incr n_bits;
          let code = !ent in
          if !free_ent < code_limit then begin
            Array.unsafe_set htab !hp ((fc lsl 17) lor !free_ent);
            incr free_ent;
            if !n_written < record_max then Array.unsafe_set written !n_written !hp;
            incr n_written
          end;
          ent := c;
          Bitio.Writer.add_bits_lsb w ~value:code ~count:!n_bits
        end
      done;
      if !free_ent > (1 lsl !n_bits) - 1 && !n_bits < max_bits then incr n_bits;
      Bitio.Writer.add_bits_lsb w ~value:!ent ~count:!n_bits;
      if !n_written <= record_max then
        for k = 0 to !n_written - 1 do
          Array.unsafe_set htab (Array.unsafe_get written k) (-1)
        done
      else Array.fill htab 0 htab_size (-1);
      clean.(0) <- 1;
      !probes
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
    (* A code >= 257 stands for a string the output already holds: the
       string of the code read before the one that made it, and the
       first byte of that one, which lie side by side there.
       [entry.(code)] holds where the string starts, above 17 bits, and
       its length below, so a code is copied from the output as an LZ77
       match is.  Codes < 256 are literals. *)
    let entry = Array.make code_limit 0 in
    let free_ent = ref first_code in
    let n_bits = ref min_bits in
    (* The code stream in a bit buffer held in local variables, so no
       call per code.  [hold]'s low [bits] bits are the next stream
       bits, first bit most significant (a code's bits go least
       significant first, so each is bit-reversed by table); the bits
       above them are consumed.  Below a code's width (at most 16),
       the next 6 bytes of one big-endian 8-byte load top it up; within
       8 bytes of the end it is topped up a byte at a time, and a code
       the bytes left cannot fill is the reader's [Out_of_bits], with
       the reader at the end, as reading bit by bit gave.  The reader
       position is stored back before each error. *)
    let src = r.data and limit = r.limit lsr 3 in
    let last = limit - 8 in
    let p0 = r.pos in
    let pos = ref (p0 lsr 3) and hold = ref 0 and bits = ref 0 in
    if p0 land 7 <> 0 then begin
      hold := Char.code (Bytes.unsafe_get src !pos);
      bits := 8 - (p0 land 7);
      incr pos
    end;
    (* The length of the last code's string, which ends at [len]; 0
       before the first code. *)
    let prev_len = ref 0 in
    while !len < n do
      (* The decoder's dictionary is one entry behind the encoder's at
         every read, hence the +1 in the width check. *)
      if !free_ent + 1 > (1 lsl !n_bits) - 1 && !n_bits < max_bits then
        incr n_bits;
      let width = !n_bits in
      if !bits < width then
        if !pos <= last then begin
          let w = Bigstring.bswap64 (Bigstring.bytes_get64u src !pos) in
          hold := (!hold lsl 48) lor Int64.to_int (Int64.shift_right_logical w 16);
          pos := !pos + 6;
          bits := !bits + 48
        end
        else begin
          while !bits <= 55 && !pos < limit do
            hold := (!hold lsl 8) lor Char.code (Bytes.unsafe_get src !pos);
            incr pos;
            bits := !bits + 8
          done;
          if !bits < width then begin
            r.pos <- r.limit;
            raise Bitio.Reader.Out_of_bits
          end
        end;
      let m = (!hold lsr (!bits - width)) land ((1 lsl width) - 1) in
      bits := !bits - width;
      let code =
        ((Char.code (String.unsafe_get Bitio.rev8 (m land 0xff)) lsl 8)
        lor Char.code (String.unsafe_get Bitio.rev8 (m lsr 8)))
        lsr (16 - width)
      in
      if !prev_len = 0 then begin
        if code > 255 then begin
          r.pos <- (8 * !pos) - !bits;
          failwith "Lzw.decompress: bad first code"
        end;
        Bytes.set !out 0 (Char.chr code);
        len := 1;
        prev_len := 1
      end
      else begin
        (* KwKwK: the code the encoder has just made is the last
           string plus that string's own first byte. *)
        let kwkwk = code = !free_ent && !free_ent < code_limit in
        let l =
          if kwkwk then !prev_len + 1
          else if code < 256 then 1
          else if code >= first_code && code < !free_ent then
            Array.unsafe_get entry code land 0x1ffff
          else begin
            r.pos <- (8 * !pos) - !bits;
            failwith "Lzw.decompress: bad code"
          end
        in
        (* A string that runs past [n] could only end in this error. *)
        if l > n - !len then begin
          r.pos <- (8 * !pos) - !bits;
          failwith "Lzw.decompress: length mismatch"
        end;
        if !len + l > Bytes.length !out then begin
          let grown = Bytes.create (min n (max (!len + l) (2 * Bytes.length !out))) in
          Bytes.blit !out 0 grown 0 !len;
          out := grown
        end;
        let buf = !out and dst = !len in
        if code < 256 then Bytes.unsafe_set buf dst (Char.unsafe_chr code)
        else begin
          (* The source ends at or before [dst], so an 8-byte step
             never reads a byte this copy writes; it may write up to 7
             bytes past the string, which later codes overwrite. *)
          let from = if kwkwk then dst - !prev_len else Array.unsafe_get entry code lsr 17
          and count = if kwkwk then !prev_len else l in
          if dst + count + 8 <= Bytes.length buf then begin
            let k = ref 0 in
            while !k < count do
              Bigstring.bytes_set64u buf (dst + !k)
                (Bigstring.bytes_get64u buf (from + !k));
              k := !k + 8
            done
          end
          else
            for k = 0 to count - 1 do
              Bytes.unsafe_set buf (dst + k) (Bytes.unsafe_get buf (from + k))
            done;
          if kwkwk then Bytes.unsafe_set buf (dst + count) (Bytes.unsafe_get buf dst)
        end;
        if !free_ent < code_limit then begin
          Array.unsafe_set entry !free_ent (((dst - !prev_len) lsl 17) lor (!prev_len + 1));
          incr free_ent
        end;
        prev_len := l;
        len := dst + l
      end
    done;
    !out
  end

let decompress data = Codec_error.unwrap (decompress_result data)
