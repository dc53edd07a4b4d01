module Leak_audit = Zipchannel_obs_leak.Leak_audit
module Trace = Zipchannel_obs.Obs.Trace

type t = Frame of Leak_audit.record | Request of Leak_audit.request_record

let kind_of json =
  match Json.member "t" json with
  | Some (Json.Str "frame") -> Some `Frame
  | Some (Json.Str "request") -> Some `Request
  | _ -> None

let is_audit_record json = kind_of json <> None

let get_int name json =
  match Json.member name json with
  | Some v -> (
      match Json.to_int v with
      | Some n -> n
      | None -> failwith ("audit record: non-integer " ^ name))
  | None -> failwith ("audit record: missing " ^ name)

let get_str name json =
  match Option.bind (Json.member name json) Json.to_str with
  | Some s -> s
  | None -> failwith ("audit record: missing " ^ name)

let of_json json =
  match kind_of json with
  | Some `Frame ->
      let tag =
        match get_str "tag" json with
        | "data" -> Leak_audit.Data
        | "trailer" -> Leak_audit.Trailer
        | t -> failwith ("audit record: unknown tag " ^ t)
      in
      Frame
        {
          Leak_audit.stream = get_int "stream" json;
          seq = get_int "seq" json;
          tag;
          codec = get_str "codec" json;
          ulen = get_int "ulen" json;
          clen = get_int "clen" json;
          delta = get_int "delta" json;
          bucket = get_int "bucket" json;
          enc_ns = get_int "enc_ns" json;
          ts_ns = get_int "ts_ns" json;
        }
  | Some `Request ->
      Request
        {
          Leak_audit.conn = get_int "conn" json;
          op = get_str "op" json;
          req_codec = get_str "codec" json;
          frame_size = get_int "frame_size" json;
          req_bytes = get_int "req_bytes" json;
          resp_bytes = get_int "resp_bytes" json;
          frames = get_int "frames" json;
          req_bucket = get_int "bucket" json;
          wall_ns = get_int "wall_ns" json;
          ts_ns = get_int "ts_ns" json;
          status = get_str "status" json;
        }
  | None -> failwith "not an audit record (no \"t\": frame/request member)"

let of_string s = List.map of_json (Json.parse_many s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Span mapping *)

let frame_span_name (r : Leak_audit.record) =
  "frame." ^ Leak_audit.tag_name r.tag

let event ~phase ~name ~domain ~ts_ns ~dur_ns ~attrs =
  { Trace.phase; name; domain; depth = 0; ts_ns; dur_ns; attrs }

let frame_events (r : Leak_audit.record) =
  let name = frame_span_name r in
  let attrs =
    [
      ("seq", string_of_int r.seq);
      ("codec", r.codec);
      ("ulen", string_of_int r.ulen);
      ("clen", string_of_int r.clen);
      ("delta", string_of_int r.delta);
      ("bucket", string_of_int r.bucket);
    ]
  in
  (* Attrs ride on the begin event: the span replay in
     {!Profile.spans_of_events} keeps the begin side's attributes. *)
  [
    event ~phase:`Begin ~name ~domain:r.stream ~ts_ns:(r.ts_ns - r.enc_ns)
      ~dur_ns:0 ~attrs;
    event ~phase:`End ~name ~domain:r.stream ~ts_ns:r.ts_ns ~dur_ns:r.enc_ns
      ~attrs:[];
  ]

let request_events (r : Leak_audit.request_record) =
  let name = "serve.request" in
  let attrs =
    [
      ("op", r.op);
      ("codec", r.req_codec);
      ("frame_size", string_of_int r.frame_size);
      ("req_bytes", string_of_int r.req_bytes);
      ("resp_bytes", string_of_int r.resp_bytes);
      ("frames", string_of_int r.frames);
      ("bucket", string_of_int r.req_bucket);
      ("status", r.status);
    ]
  in
  [
    event ~phase:`Begin ~name ~domain:r.conn ~ts_ns:(r.ts_ns - r.wall_ns)
      ~dur_ns:0 ~attrs;
    event ~phase:`End ~name ~domain:r.conn ~ts_ns:r.ts_ns ~dur_ns:r.wall_ns
      ~attrs:[];
  ]

(* Group records so each span's begin/end pair is adjacent and streams
   stay in sequence order — the shape the per-domain stack replay in
   {!Otlp.trace_request} expects.  Frames and requests use disjoint
   domain spaces in practice (stream ids vs connection ordinals), so
   requests are sorted after frames rather than interleaved. *)
let span_events records =
  let frames =
    List.filter_map (function Frame r -> Some r | Request _ -> None) records
  in
  let requests =
    List.filter_map (function Request r -> Some r | Frame _ -> None) records
  in
  let frames =
    List.stable_sort
      (fun (a : Leak_audit.record) b ->
        match compare a.stream b.stream with
        | 0 -> compare a.seq b.seq
        | c -> c)
      frames
  in
  let requests =
    List.stable_sort
      (fun (a : Leak_audit.request_record) b -> compare a.conn b.conn)
      requests
  in
  List.concat_map frame_events frames
  @ List.concat_map request_events requests

let trace_request records = Otlp.trace_request (span_events records)
