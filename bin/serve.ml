(* Engine behind [zc stream] and [zc serve]: framed streaming over
   channels and sockets, and the TCP daemon with a Prometheus endpoint.

   Daemon wire protocol (one request per connection):

     client -> "ZCRQ" | op (1 compress, 2 decompress) | codec id |
               frame_size u32 LE | payload... | shutdown(SEND)
     server -> "ZCOK" | result stream          on success
               "ZCER" | utf-8 message          on failure

   The 4-byte response tag keeps errors distinguishable from payload
   without framing the response: a compressed stream starts with "ZCF1"
   and plaintext is arbitrary, so the client needs the tag to know
   whether the rest of the socket is data or a diagnostic. *)

module Frame = Zipchannel.Frame
module Obs = Zipchannel.Obs
module Obs_prof = Zipchannel.Obs_prof
module Leak_audit = Zipchannel.Leak_audit

let m_conns = Obs.Metrics.counter "serve.connections"
let m_bytes_in = Obs.Metrics.counter "serve.bytes_in"
let m_bytes_out = Obs.Metrics.counter "serve.bytes_out"
let m_errors = Obs.Metrics.counter "serve.errors"
let m_rejected = Obs.Metrics.counter "serve.rejected"
let m_scrapes = Obs.Metrics.counter "serve.scrapes"
let g_active = Obs.Metrics.gauge "serve.active_connections"
let m_request_bytes = Obs.Metrics.histogram "serve.request_bytes"
let h_request_ns = Obs.Metrics.histogram "serve.request_ns"
let g_request_p50 = Obs.Metrics.gauge "serve.request_ns_p50"
let g_request_p95 = Obs.Metrics.gauge "serve.request_ns_p95"

(* ------------------------------------------------------------------ *)
(* fd helpers *)

let write_all fd buf ~off ~len =
  let pos = ref off and rem = ref len in
  while !rem > 0 do
    let n = Unix.write fd buf !pos !rem in
    pos := !pos + n;
    rem := !rem - n
  done

let read_exact fd buf off len =
  let got = ref 0 in
  while !got < len do
    let n = Unix.read fd buf (off + !got) (len - !got) in
    if n = 0 then failwith "connection closed mid-header";
    got := !got + n
  done

(* Copy [read] to [write] until [read] reports end of input. *)
let pump read write =
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = read buf 0 (Bytes.length buf) in
    if n > 0 then begin
      write buf 0 n;
      go ()
    end
  in
  go ()

let read_all fd =
  let b = Buffer.create 4096 in
  pump (Unix.read fd) (Buffer.add_subbytes b);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Local streaming: channel -> channel, no daemon involved *)

let with_in_channel path f =
  if path = "-" then f stdin
  else
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let with_out_channel path f =
  if path = "-" then begin
    let r = f stdout in
    flush stdout;
    r
  end
  else
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let reader_of_channel ic buf off len = input ic buf off len

let writer_of_channel oc buf ~off ~len = output oc buf off len

let stream_local ~decompress ~codec ~frame_size ~jobs ~input ~output =
  with_in_channel input @@ fun ic ->
  with_out_channel output @@ fun oc ->
  let read = reader_of_channel ic and write = writer_of_channel oc in
  if decompress then
    match Frame.decompress_stream ~jobs ~read ~write () with
    | Ok () -> Ok ()
    | Error e -> Error (Zipchannel.Codec_error.to_string e)
  else begin
    Frame.compress_stream ~frame_size ~jobs ~codec ~read ~write ();
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* The loopback client behind every [--connect]: [zc stream], [zc leak
   oracle] and [zc obs top] *)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | None -> Error (Printf.sprintf "bad port in %S" s)
      | Some port -> Ok (host, port))

(* Connect to HOST:PORT and run [f host fd], closing the socket after.
   Resolution and socket errors come back as [Error]. *)
let with_connection connect f =
  match parse_host_port connect with
  | Error _ as e -> e
  | Ok (host, port) -> (
      try
        match
          Unix.getaddrinfo host (string_of_int port)
            [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
        with
        | [] -> Error (Printf.sprintf "cannot resolve %s" host)
        | { Unix.ai_addr = addr; _ } :: _ ->
            let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            @@ fun () ->
            Unix.connect fd addr;
            f host fd
      with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* One ZCRQ request.  An uploader thread hands [upload] a [send buf off
   len] for the payload, then half-closes so the server sees EOF; this
   thread reads the response concurrently (required: the server streams
   output while input is still arriving, so a send-all-then-read client
   can deadlock on socket buffers).  After "ZCOK", [download fd]
   consumes the result stream; after "ZCER", the rest is the error.  An
   upload error is reported even after "ZCOK": the result is then cut
   short. *)
let request ~connect ~decompress ~codec ~frame_size ~upload ~download =
  with_connection connect @@ fun _host fd ->
  let hdr = Bytes.create 10 in
  Bytes.blit_string "ZCRQ" 0 hdr 0 4;
  Bytes.set hdr 4 (if decompress then '\002' else '\001');
  Bytes.set hdr 5 (Char.chr (Frame.codec_id codec));
  Bytes.set_int32_le hdr 6 (Int32.of_int frame_size);
  write_all fd hdr ~off:0 ~len:10;
  let upload_err = ref None in
  let uploader =
    Thread.create
      (fun () ->
        try
          upload (fun buf off len -> write_all fd buf ~off ~len);
          Unix.shutdown fd Unix.SHUTDOWN_SEND
        with e -> upload_err := Some (Printexc.to_string e))
      ()
  in
  let tag = Bytes.create 4 in
  let result =
    match read_exact fd tag 0 4 with
    | exception Failure msg -> Error msg
    | () -> (
        match Bytes.to_string tag with
        | "ZCOK" -> Ok (download fd)
        | "ZCER" -> Error ("server: " ^ read_all fd)
        | _ -> Error "malformed response from server")
  in
  Thread.join uploader;
  match (!upload_err, result) with
  | Some msg, Ok _ -> Error ("upload: " ^ msg)
  | _, r -> r

let stream_remote ~decompress ~codec ~frame_size ~connect ~input ~output =
  request ~connect ~decompress ~codec ~frame_size
    ~upload:(fun send ->
      with_in_channel input (fun ic -> pump (reader_of_channel ic) send))
    ~download:(fun fd ->
      with_out_channel output (fun oc -> pump (Unix.read fd) (Stdlib.output oc)))

(* Single-shot compress request: send one plaintext, return the complete
   framed response.  This is the [zc leak oracle] probe — what a network
   attacker does, over the loopback. *)
let request_compress ~connect ~codec ~frame_size payload =
  request ~connect ~decompress:false ~codec ~frame_size
    ~upload:(fun send -> send payload 0 (Bytes.length payload))
    ~download:(fun fd -> Bytes.of_string (read_all fd))

let find_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = if i + n > m then None
    else if String.sub s i n = sub then Some i else go (i + 1) in
  go 0

(* Minimal HTTP GET against the daemon's metrics listener — what
   [zc obs top --connect] polls.  Returns the response body of a 200. *)
let http_get ~connect ~path =
  with_connection connect @@ fun host fd ->
  let req =
    Bytes.of_string
      (Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
         path host)
  in
  write_all fd req ~off:0 ~len:(Bytes.length req);
  let resp = read_all fd in
  match find_sub ~sub:"\r\n\r\n" resp with
  | None -> Error "malformed HTTP response"
  | Some i ->
      let status =
        match String.split_on_char ' ' resp with _http :: code :: _ -> code | _ -> "?"
      in
      if status = "200" then Ok (String.sub resp (i + 4) (String.length resp - i - 4))
      else Error (Printf.sprintf "HTTP %s from %s" status path)

(* ------------------------------------------------------------------ *)
(* The daemon *)

type counted_fd = { fd : Unix.file_descr; counter : Obs.Metrics.counter }

(* Wrap a socket read/write with byte accounting so per-connection
   traffic lands in the serve.* counters. *)
let counted_read c buf off len =
  let n = Unix.read c.fd buf off len in
  Obs.Metrics.add c.counter n;
  n

let counted_write c buf ~off ~len =
  write_all c.fd buf ~off ~len;
  Obs.Metrics.add m_bytes_out len

let active = ref 0
let active_mu = Mutex.create ()

let adjust_active d =
  Mutex.lock active_mu;
  active := !active + d;
  Obs.Metrics.set_gauge g_active (float_of_int !active);
  Mutex.unlock active_mu

(* Admission control: the acceptor takes the slot (or refuses) before
   the data handler thread exists, so at most [max_conns] data handlers
   run however fast clients connect.  It bounds nothing else: each
   refused connection and each metrics connection gets a thread of its
   own. *)
let try_acquire ~max_conns =
  Mutex.lock active_mu;
  let ok = !active < max_conns in
  if ok then begin
    active := !active + 1;
    Obs.Metrics.set_gauge g_active (float_of_int !active)
  end;
  Mutex.unlock active_mu;
  ok

let respond_error fd msg =
  try
    let b = Bytes.of_string ("ZCER" ^ msg) in
    write_all fd b ~off:0 ~len:(Bytes.length b)
  with Unix.Unix_error _ -> ()

let conn_seq = Atomic.make 0

let handle_data_conn ~jobs fd =
  Obs.Metrics.incr m_conns;
  Fun.protect
    ~finally:(fun () ->
      adjust_active (-1);
      (try Unix.close fd with Unix.Unix_error _ -> ()))
  @@ fun () ->
  match
    let hdr = Bytes.create 10 in
    read_exact fd hdr 0 10;
    if Bytes.sub_string hdr 0 4 <> "ZCRQ" then failwith "bad request magic";
    let op = Char.code (Bytes.get hdr 4) in
    let codec =
      match Frame.codec_of_id (Char.code (Bytes.get hdr 5)) with
      | Some c -> c
      | None -> failwith "bad codec id"
    in
    let frame_size = Int32.to_int (Bytes.get_int32_le hdr 6) land 0xFFFFFFFF in
    if frame_size < 1 || frame_size > Frame.max_frame_size then
      failwith "bad frame size";
    (op, codec, frame_size)
  with
  | exception Failure msg ->
      Obs.Metrics.incr m_errors;
      respond_error fd msg
  | exception Unix.Unix_error (e, _, _) ->
      Obs.Metrics.incr m_errors;
      respond_error fd (Unix.error_message e)
  | op, codec, frame_size -> (
      let conn_id = Atomic.fetch_and_add conn_seq 1 in
      let t0 = Obs.now_ns () in
      let c = { fd; counter = m_bytes_in } in
      let req_bytes = ref 0 and resp_bytes = ref 0 in
      (* First payload bytes key the request's prefix bucket — the
         attacker-controlled part of a CRIME-style request is its
         start, and that is all the estimator conditions on. *)
      let prefix = Bytes.create 16 in
      let prefix_len = ref 0 in
      let read buf off len =
        let n = counted_read c buf off len in
        if n > 0 && !prefix_len < 16 then begin
          let take = min (16 - !prefix_len) n in
          Bytes.blit buf off prefix !prefix_len take;
          prefix_len := !prefix_len + take
        end;
        req_bytes := !req_bytes + n;
        n
      in
      let ok = Bytes.of_string "ZCOK" in
      write_all fd ok ~off:0 ~len:4;
      Obs.Metrics.add m_bytes_out 4;
      let write buf ~off ~len =
        counted_write c buf ~off ~len;
        resp_bytes := !resp_bytes + len
      in
      let outcome =
        match op with
        | 1 ->
            (try
               Frame.compress_stream ~frame_size ~jobs ~codec ~read ~write ();
               Ok ()
             with
            | Failure msg -> Error msg
            | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
        | 2 -> (
            match Frame.decompress_stream ~jobs ~read ~write () with
            | Ok () -> Ok ()
            | Error e -> Error (Zipchannel.Codec_error.to_string e)
            | exception Unix.Unix_error (e, _, _) ->
                Error (Unix.error_message e))
        | _ -> Error "bad op"
      in
      let wall_ns = Obs.now_ns () - t0 in
      Obs.Metrics.observe m_request_bytes !req_bytes;
      Obs.Metrics.observe h_request_ns wall_ns;
      let plaintext = if op = 1 then !req_bytes else !resp_bytes in
      Leak_audit.record_request
        {
          Leak_audit.conn = conn_id;
          op = (if op = 1 then "compress" else "decompress");
          req_codec = Frame.codec_name codec;
          frame_size;
          req_bytes = !req_bytes;
          resp_bytes = !resp_bytes;
          frames = (plaintext + frame_size - 1) / frame_size;
          req_bucket =
            (if !prefix_len > 0 then
               Leak_audit.prefix_bucket prefix ~len:!prefix_len
             else -1);
          wall_ns;
          ts_ns = Obs.now_ns ();
          status = (match outcome with Ok () -> "ok" | Error _ -> "error");
        };
      match outcome with
      | Ok () -> ()
      | Error _ ->
          (* The ZCOK tag is already on the wire, so the client cannot
             be told cleanly; cut the connection short instead of
             letting it look complete. *)
          Obs.Metrics.incr m_errors)

let http_response ~content_type body =
  Printf.sprintf
    "HTTP/1.1 200 OK\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    content_type (String.length body) body

let http_not_found =
  "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"

let started_ns = ref 0

let healthz_body () =
  Mutex.lock active_mu;
  let active_now = !active in
  Mutex.unlock active_mu;
  Printf.sprintf
    "{\"status\": \"ok\", \"uptime_s\": %.1f, \"active_connections\": %d, \
     \"connections_total\": %d}"
    (float_of_int (Obs.now_ns () - !started_ns) /. 1e9)
    active_now
    (Obs.Metrics.counter_value m_conns)

let buildinfo_body =
  lazy
    (Printf.sprintf
       "{\"name\": \"zipchannel\", \"ocaml\": \"%s\", \"word_size\": %d, \
        \"os_type\": \"%s\", \"max_frame_size\": %d, \"codecs\": [%s]}"
       Sys.ocaml_version Sys.word_size Sys.os_type Frame.max_frame_size
       (String.concat ", "
          (List.map (fun n -> "\"" ^ n ^ "\"") Frame.codec_names)))

let handle_metrics_conn fd =
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  try
    let buf = Bytes.create 4096 in
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    let req = Bytes.sub_string buf 0 n in
    let path =
      match String.split_on_char ' ' req with
      | _meth :: path :: _ -> path
      | _ -> "/"
    in
    Obs.Metrics.incr m_scrapes;
    (* Summarise request latency as gauges at scrape time: the log2
       histogram is always exported in full; p50/p95 midpoint estimates
       ride along for dashboards that want one number. *)
    (match
       List.assoc_opt "serve.request_ns"
         (Obs.Metrics.snapshot ()).Obs.Metrics.histograms
     with
    | Some h when h.Obs.Metrics.count > 0 ->
        Obs.Metrics.set_gauge g_request_p50 (Obs.Metrics.approx_quantile h 0.5);
        Obs.Metrics.set_gauge g_request_p95 (Obs.Metrics.approx_quantile h 0.95)
    | _ -> ());
    let resp =
      match path with
      | "/metrics" ->
          http_response ~content_type:"text/plain; version=0.0.4"
            (Zipchannel.Obs_export.Prom.exposition (Obs.Metrics.snapshot ()))
      | "/metrics.json" ->
          http_response ~content_type:"application/json"
            (Obs.Metrics.snapshot_to_json (Obs.Metrics.snapshot ()))
      | "/healthz" ->
          http_response ~content_type:"application/json" (healthz_body ())
      | "/buildinfo" ->
          http_response ~content_type:"application/json"
            (Lazy.force buildinfo_body)
      | _ -> http_not_found
    in
    let b = Bytes.of_string resp in
    write_all fd b ~off:0 ~len:(Bytes.length b)
  with Unix.Unix_error _ -> ()

let stop = ref false

(* Handler threads of every kind are counted, not kept: each one
   decrements [live] as it exits, and shutdown waits for zero. *)
let live = ref 0
let live_mu = Mutex.create ()
let none_live = Condition.create ()

let spawn f x =
  Mutex.lock live_mu;
  incr live;
  Mutex.unlock live_mu;
  let finally () =
    Mutex.lock live_mu;
    decr live;
    if !live = 0 then Condition.broadcast none_live;
    Mutex.unlock live_mu
  in
  ignore (Thread.create (fun x -> Fun.protect ~finally (fun () -> f x)) x)

let listener port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let serve ?(max_conns = 64) ?audit ~port ~metrics_port ~jobs () =
  Obs.set_enabled true;
  started_ns := Obs.now_ns ();
  (* Always-on runtime observatory: the sampler domain ticks at 1 kHz,
     feeding prof.self.* span shares and the runtime.* GC plane into the
     same registry the metrics listener exports. *)
  Obs_prof.start ();
  let audit_commit =
    match audit with
    | None -> None
    | Some path ->
        (* Write-through a .tmp sibling, renamed into place on clean
           shutdown, so a crash mid-stream never leaves a truncated
           file at the published path. *)
        let oc, commit = Zipchannel.Obs_export.Sink.open_atomic ~path in
        Leak_audit.set_sink (Some oc);
        Some commit
  in
  stop := false;
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let data_sock = listener port in
  let metrics_sock = listener metrics_port in
  Printf.printf "zc serve: data on 127.0.0.1:%d, metrics on 127.0.0.1:%d\n%!"
    port metrics_port;
  while not !stop do
    match Unix.select [ data_sock; metrics_sock ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun sock ->
            match Unix.accept sock with
            | exception Unix.Unix_error _ -> ()
            | conn, _ ->
                if sock = data_sock then begin
                  if try_acquire ~max_conns then
                    spawn (handle_data_conn ~jobs) conn
                  else begin
                    Obs.Metrics.incr m_rejected;
                    spawn
                      (fun conn ->
                        Fun.protect
                          ~finally:(fun () ->
                            try Unix.close conn with Unix.Unix_error _ -> ())
                          (fun () ->
                            respond_error conn "busy";
                            (* Half-close and drain what the client has
                               already uploaded (bounded), so the reply
                               reaches it instead of being clobbered by
                               a reset from unread inbound data. *)
                            try
                              Unix.shutdown conn Unix.SHUTDOWN_SEND;
                              Unix.setsockopt_float conn Unix.SO_RCVTIMEO 2.0;
                              let junk = Bytes.create 65536 in
                              let budget = ref 256 in
                              while
                                !budget > 0
                                && Unix.read conn junk 0 (Bytes.length junk) > 0
                              do
                                decr budget
                              done
                            with Unix.Unix_error _ -> ()))
                      conn
                  end
                end
                else spawn handle_metrics_conn conn)
          ready
  done;
  (try Unix.close data_sock with Unix.Unix_error _ -> ());
  (try Unix.close metrics_sock with Unix.Unix_error _ -> ());
  Mutex.lock live_mu;
  while !live > 0 do
    Condition.wait none_live live_mu
  done;
  Mutex.unlock live_mu;
  Obs_prof.stop ();
  (match audit_commit with
  | Some commit ->
      Leak_audit.publish_estimate ();
      Leak_audit.set_sink None;
      commit ()
  | None -> ());
  Printf.printf "zc serve: %d connection(s) served, shutting down\n%!"
    (Obs.Metrics.counter_value m_conns)
