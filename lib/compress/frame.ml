(* Self-describing framed container over the whole-buffer codecs.

   Wire layout (all integers little-endian):

     stream header   "ZCF1" | codec id (1B) | 3 reserved zero bytes
     data frame      tag 0x01 | ulen u32 | clen u32 | CRC-32(payload) | payload
     flush frame     tag 0x02 | same shape; ulen/clen may be 0 (a bare
                     flush point with nothing pending)
     trailer         tag 0xFF | total ulen u64 | CRC-32(whole plaintext)

   Each frame's payload is one whole-buffer run of the stream's codec
   over that frame's plaintext chunk, so frames are independent: the
   pipelined compressor farms them across domains and the writer splices
   the results back in order, byte-identical to the sequential run.  The
   per-frame CRC covers the *compressed* payload and is checked before
   the codec's decoder ever sees the bytes; the trailer CRC covers the
   whole plaintext end to end.

   Both directions pull their input through a [read] callback into
   staging buffers that grow only as bytes arrive ({!fill}), so neither
   a large [frame_size] nor a forged [clen] allocates ahead of the
   input, and the decoder asks [read] for exactly the bytes of the unit
   it is staging, so it never consumes input past the trailer. *)

module Pipeline = Zipchannel_parallel.Pipeline
module Obs = Zipchannel_obs.Obs
module Leak_audit = Zipchannel_obs_leak.Leak_audit

type codec = Deflate | Gzip | Bzip2 | Lzw

(* Id 1 is retired: it named a DEFLATE-shaped payload that no inflate
   reads, so a stream carrying it is an unknown codec, not misread. *)
let codec_id = function Deflate -> 5 | Gzip -> 2 | Bzip2 -> 3 | Lzw -> 4

let codec_of_id = function
  | 5 -> Some Deflate
  | 2 -> Some Gzip
  | 3 -> Some Bzip2
  | 4 -> Some Lzw
  | _ -> None

let codec_name = function
  | Deflate -> "deflate"
  | Gzip -> "gzip"
  | Bzip2 -> "bzip2"
  | Lzw -> "lzw"

let codec_of_name = function
  | "deflate" -> Some Deflate
  | "gzip" -> Some Gzip
  | "bzip2" -> Some Bzip2
  | "lzw" -> Some Lzw
  | _ -> None

let codec_names = [ "deflate"; "gzip"; "bzip2"; "lzw" ]

let magic = "ZCF1"
let header_len = 8
let frame_header_len = 13
let trailer_len = 13
let tag_data = 0x01
let tag_flush = 0x02
let tag_end = 0xFF

let default_frame_size = 1 lsl 16

let max_frame_size = 1 lsl 26
(* Largest per-frame plaintext the format admits; also caps what a
   forged [ulen] can make the decoder believe. *)

let max_frame_clen = 1 lsl 27
(* Compressed payloads can exceed their plaintext on incompressible
   input, but never by 2x at the sizes [max_frame_size] allows. *)

let deflate_max_chain = 32
(* The frame profile of deflate: a shorter hash-chain walk than the
   whole-buffer default (128).  Streaming favours throughput — on the
   reference 1 MiB text this is ~40% less wall time for ~13% more
   output — and per-frame dictionaries already cost a little ratio, so
   the long-chain search buys frames less than it buys whole buffers.
   Decoding is unaffected; any conforming inflate reads the stream. *)

let compress_chunk codec data =
  match codec with
  | Deflate -> Deflate.compress ~max_chain:deflate_max_chain data
  | Gzip -> Deflate.Gzip.compress data
  | Bzip2 -> Bzip2.compress data
  | Lzw -> Lzw.compress data

let decompress_chunk codec data =
  match codec with
  | Deflate -> Deflate.decompress_result data
  | Gzip -> Deflate.Gzip.decompress_result data
  | Bzip2 -> Bzip2.decompress_result data
  | Lzw -> Lzw.decompress_result data

let m_enc_frames = Obs.Metrics.counter "kernel.frame.enc_frames"
let m_enc_bytes_in = Obs.Metrics.counter "kernel.frame.enc_bytes_in"
let m_enc_bytes_out = Obs.Metrics.counter "kernel.frame.enc_bytes_out"
let m_dec_frames = Obs.Metrics.counter "kernel.frame.dec_frames"
let m_dec_bytes_in = Obs.Metrics.counter "kernel.frame.dec_bytes_in"
let m_dec_bytes_out = Obs.Metrics.counter "kernel.frame.dec_bytes_out"
let m_frame_ulen = Obs.Metrics.histogram "kernel.frame.frame_ulen"

let u32_get b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let u32_set b off v = Bytes.set_int32_le b off (Int32.of_int v)
let u64_get b off = Int64.to_int (Bytes.get_int64_le b off)
let u64_set b off v = Bytes.set_int64_le b off (Int64.of_int v)

let render_header ~codec b =
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr (codec_id codec));
  Bytes.set b 5 '\000';
  Bytes.set b 6 '\000';
  Bytes.set b 7 '\000'

let render_frame_header ~tag ~ulen ~clen ~crc b =
  Bytes.set b 0 (Char.chr tag);
  u32_set b 1 ulen;
  u32_set b 5 clen;
  u32_set b 9 crc

let render_trailer ~total ~crc b =
  Bytes.set b 0 (Char.chr tag_end);
  u64_set b 1 total;
  u32_set b 9 crc

(* ------------------------------------------------------------------ *)
(* Staging: buffers grow with the bytes that arrive *)

(* A staging buffer's first size, when the unit is at least this long:
   a default-size frame fills it exactly, so the encoder's ring reaches
   full size on its first frame and is reused from then on. *)
let stage_min = default_frame_size

(* [fill read slot want] reads into [!slot] until [want] bytes have
   arrived or [read] reports end of input (returns 0), and returns how
   many arrived.  It never asks [read] for more than [want] bytes in
   all, so input past the unit being staged stays unread.  [!slot] is
   reused while it is long enough; it grows only when the bytes
   received so far fill it, doubling from [min want stage_min] up to
   [want], so a declared length alone never allocates more than
   [stage_min] bytes. *)
let fill read slot want =
  let got = ref 0 and eof = ref false in
  while (not !eof) && !got < want do
    if !got = Bytes.length !slot then begin
      let grown = Bytes.create (min want (max stage_min (2 * !got))) in
      Bytes.blit !slot 0 grown 0 !got;
      slot := grown
    end;
    let r = read !slot !got (min want (Bytes.length !slot) - !got) in
    if r = 0 then eof := true else got := !got + r
  done;
  !got

(* The first [len] bytes of a staging buffer, without a copy when the
   buffer is exactly that long. *)
let prefix buf len = if Bytes.length buf = len then buf else Bytes.sub buf 0 len

(* ------------------------------------------------------------------ *)
(* Pipelined streaming over read/write callbacks *)

let compress_stream ?(frame_size = default_frame_size) ?(jobs = 1) ~codec ~read
    ~write () =
  if frame_size < 1 || frame_size > max_frame_size then
    invalid_arg "Frame.compress_stream: frame_size out of range";
  let hdr = Bytes.create header_len in
  render_header ~codec hdr;
  write hdr ~off:0 ~len:header_len;
  (* One staging buffer per frame the pipeline can hold in flight. *)
  let slots = Pipeline.capacity ~jobs () in
  let chunks = Array.init slots (fun _ -> ref Bytes.empty) in
  let crc = ref Checksum.Crc32.init in
  let total = ref 0 in
  let eof = ref false in
  (* Audit: [produce] keys the stream off the first plaintext chunk,
     workers time their compress call and thread it through the result
     tuple, and [consume] — which the pipeline runs strictly in
     production order on the caller's domain — emits the records, so
     the sink receives them in sequence order at any [jobs]. *)
  let audit =
    if Leak_audit.enabled () then
      Some (Leak_audit.Stream.create ~codec:(codec_name codec) ())
    else None
  in
  let frames = ref 0 in
  let produce ~seq =
    if !eof then None
    else begin
      let slot = chunks.(seq mod slots) in
      let got = fill read slot frame_size in
      if got < frame_size then eof := true;
      if got = 0 then None
      else begin
        let buf = !slot in
        (match audit with
        | Some s when seq = 0 -> Leak_audit.Stream.note_prefix s buf ~len:got
        | _ -> ());
        crc := Checksum.Crc32.feed_sub !crc buf ~off:0 ~len:got;
        total := !total + got;
        Some (buf, got)
      end
    end
  in
  let work (buf, len) =
    let t0 = if audit = None then 0 else Obs.now_ns () in
    let payload = compress_chunk codec (prefix buf len) in
    let enc_ns = if audit = None then 0 else Obs.now_ns () - t0 in
    (len, payload, Checksum.Crc32.digest payload, enc_ns)
  in
  let fh = Bytes.create frame_header_len in
  let consume ~seq (ulen, payload, pcrc, enc_ns) =
    let clen = Bytes.length payload in
    render_frame_header ~tag:tag_data ~ulen ~clen ~crc:pcrc fh;
    write fh ~off:0 ~len:frame_header_len;
    write payload ~off:0 ~len:clen;
    Obs.Metrics.incr m_enc_frames;
    Obs.Metrics.add m_enc_bytes_in ulen;
    Obs.Metrics.add m_enc_bytes_out (frame_header_len + clen);
    Obs.Metrics.observe m_frame_ulen ulen;
    match audit with
    | Some s ->
        Leak_audit.Stream.on_frame s ~seq ~tag:Leak_audit.Data ~ulen ~clen
          ~enc_ns;
        frames := seq + 1
    | None -> ()
  in
  Pipeline.run ~jobs ~capacity:slots ~produce ~work ~consume ();
  let tr = Bytes.create trailer_len in
  render_trailer ~total:!total ~crc:(Checksum.Crc32.value !crc) tr;
  (match audit with
  | Some s ->
      Leak_audit.Stream.on_frame s ~seq:!frames ~tag:Leak_audit.Trailer ~ulen:0
        ~clen:0 ~enc_ns:0
  | None -> ());
  write tr ~off:0 ~len:trailer_len

let decompress_stream ?(jobs = 1) ~read ~write () =
  let fail ~offset reason = Codec_error.fail ~codec:"frame" ~offset reason in
  let consumed = ref 0 in
  (* Stage exactly the [len] bytes of the next wire unit; a short read
     is a truncated stream. *)
  let read_exact slot len =
    let got = fill read slot len in
    consumed := !consumed + got;
    if got < len then fail ~offset:!consumed "truncated frame stream"
  in
  let run () =
    let hdr = ref (Bytes.create header_len) in
    read_exact hdr header_len;
    let hdr = !hdr in
    if Bytes.sub_string hdr 0 4 <> magic then fail ~offset:!consumed "bad magic";
    let codec =
      match codec_of_id (Char.code (Bytes.get hdr 4)) with
      | Some c -> c
      | None -> fail ~offset:!consumed "unknown codec id"
    in
    if Bytes.get hdr 5 <> '\000' || Bytes.get hdr 6 <> '\000'
       || Bytes.get hdr 7 <> '\000'
    then fail ~offset:!consumed "nonzero reserved header bytes";
    let slots = Pipeline.capacity ~jobs () in
    let chunks = Array.init slots (fun _ -> ref Bytes.empty) in
    let crc = ref Checksum.Crc32.init in
    let total = ref 0 in
    let trailer = ref None in
    let fh = ref (Bytes.create frame_header_len) in
    let rec produce ~seq =
      match !trailer with
      | Some _ -> None
      | None -> (
          read_exact fh frame_header_len;
          let b = !fh in
          let tag = Char.code (Bytes.get b 0) in
          if tag = tag_end then begin
            trailer := Some (u64_get b 1, u32_get b 9);
            None
          end
          else if tag = tag_data || tag = tag_flush then begin
            let ulen = u32_get b 1 and clen = u32_get b 5 and fcrc = u32_get b 9 in
            if ulen > max_frame_size then
              fail ~offset:!consumed "frame length exceeds maximum";
            if clen > max_frame_clen then
              fail ~offset:!consumed "frame payload length exceeds maximum";
            if clen = 0 && ulen <> 0 then
              fail ~offset:!consumed "empty payload declares a nonzero length";
            if clen = 0 then produce ~seq (* bare flush point: nothing to do *)
            else begin
              let slot = chunks.(seq mod slots) in
              let frame_off = !consumed in
              read_exact slot clen;
              Some (!slot, ulen, clen, fcrc, frame_off)
            end
          end
          else fail ~offset:!consumed "unknown frame tag")
    in
    let work (buf, ulen, clen, fcrc, frame_off) =
      if Checksum.Crc32.digest_sub buf ~off:0 ~len:clen <> fcrc then
        fail ~offset:frame_off "frame payload checksum mismatch";
      let out =
        match decompress_chunk codec (prefix buf clen) with
        | Ok out -> out
        | Error e ->
            fail ~offset:frame_off ("frame payload: " ^ Codec_error.to_string e)
      in
      if Bytes.length out <> ulen then
        fail ~offset:frame_off
          "frame payload decodes to a different length than declared";
      (out, clen)
    in
    let consume ~seq:_ (out, clen) =
      let n = Bytes.length out in
      crc := Checksum.Crc32.feed_bytes !crc out;
      total := !total + n;
      Obs.Metrics.incr m_dec_frames;
      Obs.Metrics.add m_dec_bytes_in (frame_header_len + clen);
      Obs.Metrics.add m_dec_bytes_out n;
      write out ~off:0 ~len:n
    in
    Pipeline.run ~jobs ~capacity:slots ~produce ~work ~consume ();
    match !trailer with
    | None -> fail ~offset:!consumed "truncated frame stream"
    | Some (ttotal, tcrc) ->
        if ttotal <> !total then
          fail ~offset:!consumed "trailer declares a different total length";
        if tcrc <> Checksum.Crc32.value !crc then
          fail ~offset:!consumed "plaintext checksum mismatch in trailer"
  in
  match run () with
  | () -> Ok ()
  | exception Codec_error.Codec_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Whole-buffer convenience (and the fuzzer's 11th decode boundary) *)

(* A [read] callback over [data], advancing [pos]. *)
let bytes_reader data pos buf off len =
  let n = min len (Bytes.length data - !pos) in
  Bytes.blit data !pos buf off n;
  pos := !pos + n;
  n

let compress ?frame_size ?(jobs = 1) ~codec data =
  let out = Buffer.create (Bytes.length data / 4 + 64) in
  let write b ~off ~len = Buffer.add_subbytes out b off len in
  compress_stream ?frame_size ~jobs ~codec ~read:(bytes_reader data (ref 0))
    ~write ();
  Buffer.to_bytes out

let decompress_result data =
  let out = Buffer.create (Bytes.length data + 64) in
  let pos = ref 0 in
  let write b ~off ~len = Buffer.add_subbytes out b off len in
  match decompress_stream ~jobs:1 ~read:(bytes_reader data pos) ~write () with
  | Error e -> Error e
  | Ok () when !pos < Bytes.length data ->
      Codec_error.error ~codec:"frame" ~offset:!pos
        "trailing data after end-of-stream trailer"
  | Ok () -> Ok (Buffer.to_bytes out)

let decompress data = Codec_error.unwrap (decompress_result data)
