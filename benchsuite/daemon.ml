(* Harness for a [zc serve] child process and a ZCRQ client.

   [bin/serve.ml] is not a library, so the daemon is driven the way a
   user runs it: the built [zc] binary, loopback ports, [/healthz] to
   know it is up, [/metrics.json] to read its counters, SIGTERM to stop
   it.  A daemon that does not come up, or does not print its clean
   "connection(s) served" line on the way down, fails the run. *)

open Zipchannel
module Json = Obs_export.Json

(* The [zc] binary dune builds next to this executable's directory. *)
let zc_path () =
  let exe_dir = Filename.dirname Sys.executable_name in
  let path = Filename.concat (Filename.dirname exe_dir) (Filename.concat "bin" "zc.exe") in
  if Sys.file_exists path then path
  else failwith (Printf.sprintf "daemon: %s not found (dune build bin/zc.exe)" path)

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (loopback 0);
      match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false)

let find_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = if i + n > m then None else if String.sub s i n = sub then Some i else go (i + 1) in
  go 0

let read_all fd =
  let b = Buffer.create 4096 and buf = Bytes.create 65536 in
  let rec go () =
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    if n > 0 then begin
      Buffer.add_subbytes b buf 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents b

(* GET [path] from the metrics listener; the body of a 200. *)
let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (loopback port);
      let req = Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path) in
      ignore (Unix.write fd req 0 (Bytes.length req));
      let resp = read_all fd in
      match (String.index_opt resp ' ', find_sub ~sub:"\r\n\r\n" resp) with
      | Some i, Some j when String.length resp >= i + 4 && String.sub resp (i + 1) 3 = "200"
        ->
          String.sub resp (j + 4) (String.length resp - j - 4)
      | _ -> failwith ("daemon: bad HTTP response to " ^ path))

type t = { pid : int; port : int; metrics_port : int; out : Unix.file_descr }

(* Daemons not yet stopped.  A run that dies mid-window still kills and
   reaps them on the way out. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let reaped pid = live := List.filter (( <> ) pid) !live

let start_once ~zc ~extra =
  let port = free_port () and metrics_port = free_port () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    Array.of_list
      ([ zc; "serve"; "--port"; string_of_int port; "--metrics-port"; string_of_int metrics_port ]
      @ extra)
  in
  let pid = Unix.create_process zc args Unix.stdin out_w Unix.stderr in
  live := pid :: !live;
  Unix.close out_w;
  let d = { pid; port; metrics_port; out = out_r } in
  let deadline = Obs.now_ns () + 10_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> (
        match http_get ~port:metrics_port "/healthz" with
        | _ -> Ok d
        | exception (Unix.Unix_error _ | Failure _) ->
            if Obs.now_ns () > deadline then failwith "daemon: no /healthz within 10 s";
            Unix.sleepf 0.002;
            wait ())
    | _ ->
        reaped pid;
        let log = read_all out_r in
        Unix.close out_r;
        Error log
  in
  wait ()

(* Start [zc serve] with default flags plus [extra] and wait for its
   first [/healthz] 200.  The ports are picked free just before the
   exec, so another process can win one in between; only then (the
   child exits before answering) is the start retried. *)
let start ?(extra = []) () =
  let zc = zc_path () in
  let rec go tries =
    match start_once ~zc ~extra with
    | Ok d -> d
    | Error _ when tries > 1 -> go (tries - 1)
    | Error log -> failwith ("daemon: exited during start-up: " ^ String.trim log)
  in
  go 3

let metrics d = Json.parse (http_get ~port:d.metrics_port "/metrics.json")

let num path snap =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some snap) path with
  | Some v -> Option.value ~default:0. (Json.to_num v)
  | None -> 0.

let counter snap name = num [ "counters"; name ] snap
let hist_sum snap name = num [ "histograms"; name; "sum" ] snap
let hist_count snap name = num [ "histograms"; name; "count" ] snap

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      find ())

(* SIGTERM, wait, and require the daemon's clean shutdown line. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  reaped d.pid;
  let log = read_all d.out in
  Unix.close d.out;
  match status with
  | Unix.WEXITED 0 when find_sub ~sub:"connection(s) served" log <> None -> Ok ()
  | _ -> Error ("daemon: unclean exit: " ^ String.trim log)

(* ------------------------------------------------------------------ *)
(* ZCRQ client *)

let wire ~op ~frame_size payload =
  let hdr = Bytes.create 10 in
  Bytes.blit_string "ZCRQ" 0 hdr 0 4;
  Bytes.set hdr 4 (match op with Corpus.Compress -> '\001' | Corpus.Decompress -> '\002');
  Bytes.set hdr 5 (Char.chr (Frame.codec_id Frame.Deflate));
  Bytes.set_int32_le hdr 6 (Int32.of_int frame_size);
  Bytes.cat hdr payload

(* Client-side phase times of one request, in ns from the start. *)
type phases = { connected : int; uploaded : int; first_byte : int; done_ : int }

(* One request: connect, stream [wire] up while reading the response
   (the daemon answers while input still arrives, so a send-then-read
   client could deadlock on socket buffers), half-close, read to EOF.
   The response body after "ZCOK", or [Error] with the daemon's
   message. *)
let request ~port wire =
  let t0 = Obs.now_ns () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (loopback port);
      let connected = Obs.now_ns () - t0 in
      Unix.set_nonblock fd;
      let n = Bytes.length wire in
      let sent = ref 0 and uploaded = ref 0 and first_byte = ref 0 and eof = ref false in
      let resp = Buffer.create 65536 and buf = Bytes.create 65536 in
      while not !eof do
        let want_write = !sent < n in
        match Unix.select [ fd ] (if want_write then [ fd ] else []) [] 30. with
        | [], [], _ -> failwith "request timed out"
        | r, w, _ ->
            if w <> [] then begin
              sent := !sent + Unix.single_write fd wire !sent (min 65536 (n - !sent));
              if !sent = n then begin
                Unix.shutdown fd Unix.SHUTDOWN_SEND;
                uploaded := Obs.now_ns () - t0
              end
            end;
            if r <> [] then begin
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> eof := true
              | k ->
                  if !first_byte = 0 then first_byte := Obs.now_ns () - t0;
                  Buffer.add_subbytes resp buf 0 k
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            end
      done;
      let ph = { connected; uploaded = !uploaded; first_byte = !first_byte; done_ = Obs.now_ns () - t0 } in
      let len = Buffer.length resp in
      let body () = Buffer.sub resp 4 (len - 4) in
      match if len >= 4 then Buffer.sub resp 0 4 else "" with
      | "ZCOK" when !sent = n -> (Ok (Bytes.of_string (body ())), ph)
      | "ZCER" -> (Error ("server: " ^ body ()), ph)
      | _ -> (Error "malformed or truncated response", ph))
