module Metrics = Lattol_obs.Metrics

type endpoint = Tcp of int | Unix_path of string

type t = {
  fd : Unix.file_descr;
  address : string;
  port : int option;
  unlink : string option;
  snapshot : unit -> Metrics.snapshot;
  health : unit -> string option;
  runtime : (unit -> string) option;
  trace : (unit -> string) option;
  stopping : bool Atomic.t;
  scrape_count : int Atomic.t;
  mutable domain : unit Domain.t option;
}

let address t = t.address

let scrapes t = Atomic.get t.scrape_count

(* ------------------------------------------------------------------ *)
(* HTTP plumbing *)

let contains_head s =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then false
    else if
      s.[i] = '\n'
      && (s.[i + 1] = '\n'
         || (i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n'))
    then true
    else go (i + 1)
  in
  go 0

(* Read until the blank line ending the request head (we never need a
   body), bounded in size; the socket carries a receive timeout so a
   stalled client cannot wedge the serving domain. *)
let read_head fd =
  let chunk = Bytes.create 2048 in
  let b = Buffer.create 256 in
  let rec go () =
    if Buffer.length b > 8192 then Buffer.contents b
    else
      let k = Unix.read fd chunk 0 (Bytes.length chunk) in
      if k = 0 then Buffer.contents b
      else begin
        Buffer.add_subbytes b chunk 0 k;
        let s = Buffer.contents b in
        if contains_head s then s else go ()
      end
  in
  go ()

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let k = Unix.write_substring fd s off (n - off) in
      go (off + k)
  in
  go 0

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let route t path =
  match path with
  | "/metrics" ->
    response ~status:"200 OK" ~content_type:Prom.content_type
      (Prom.render (t.snapshot ()))
  | "/metrics.json" ->
    response ~status:"200 OK" ~content_type:"application/json"
      (Metrics.json_of_snapshot (t.snapshot ()))
  | "/runtime.json" -> (
    match t.runtime with
    | None ->
      response ~status:"404 Not Found"
        ~content_type:"application/json" "{\"profiling\":false}"
    | Some f -> (
      match f () with
      | body -> response ~status:"200 OK" ~content_type:"application/json" body
      | exception e ->
        response ~status:"500 Internal Server Error"
          ~content_type:"text/plain; charset=utf-8"
          ("runtime probe raised " ^ Printexc.to_string e ^ "\n")))
  | "/trace.json" -> (
    match t.trace with
    | None ->
      response ~status:"404 Not Found"
        ~content_type:"application/json" "{\"tracing\":false}"
    | Some f -> (
      match f () with
      | body -> response ~status:"200 OK" ~content_type:"application/json" body
      | exception e ->
        response ~status:"500 Internal Server Error"
          ~content_type:"text/plain; charset=utf-8"
          ("trace probe raised " ^ Printexc.to_string e ^ "\n")))
  | "/healthz" -> (
    (* The health probe must answer even if the callback misbehaves: a
       raising probe reads as degraded, never as a wedged endpoint. *)
    match t.health () with
    | None ->
      response ~status:"200 OK" ~content_type:"text/plain; charset=utf-8"
        "ok\n"
    | Some reason ->
      response ~status:"503 Service Unavailable"
        ~content_type:"text/plain; charset=utf-8"
        ("degraded: " ^ reason ^ "\n")
    | exception e ->
      response ~status:"503 Service Unavailable"
        ~content_type:"text/plain; charset=utf-8"
        ("degraded: health probe raised " ^ Printexc.to_string e ^ "\n"))
  | _ ->
    response ~status:"404 Not Found" ~content_type:"text/plain; charset=utf-8"
      "not found\n"

let handle t cfd =
  Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 2.;
  Unix.setsockopt_float cfd Unix.SO_SNDTIMEO 2.;
  let head = read_head cfd in
  let line =
    match String.index_opt head '\n' with
    | Some i -> String.trim (String.sub head 0 i)
    | None -> String.trim head
  in
  let reply =
    match String.split_on_char ' ' line with
    | meth :: target :: _ ->
      if not (String.equal meth "GET") then
        response ~status:"405 Method Not Allowed"
          ~content_type:"text/plain; charset=utf-8" "method not allowed\n"
      else
        let path =
          match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target
        in
        route t path
    | _ ->
      response ~status:"400 Bad Request"
        ~content_type:"text/plain; charset=utf-8" "bad request\n"
  in
  write_all cfd reply;
  Atomic.incr t.scrape_count

(* Top-level so the [Domain.spawn] closure below is a bare application:
   all shared state the loop touches is atomic or socket-owned. *)
let rec accept_loop t =
  if not (Atomic.get t.stopping) then begin
    (match Unix.select [ t.fd ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.fd with
      | cfd, _ ->
        (try handle t cfd with Unix.Unix_error _ | Sys_error _ -> ());
        (try Unix.close cfd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop t
  end

(* ------------------------------------------------------------------ *)

let bind_endpoint = function
  | Tcp port -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    match
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 16
    with
    | () ->
      let actual =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> port
      in
      Ok (fd, Printf.sprintf "127.0.0.1:%d" actual, Some actual, None)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" port
           (Unix.error_message e)))
  | Unix_path path -> (
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16
    with
    | () -> Ok (fd, path, None, Some path)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind socket %s: %s" path
           (Unix.error_message e)))

let start ?(health = fun () -> None) ?runtime ?trace ~snapshot endpoint =
  match bind_endpoint endpoint with
  | Error _ as e -> e
  | Ok (fd, address, port, unlink) ->
    (* A scraper hanging up mid-response must raise EPIPE, not kill the
       run. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let t =
      {
        fd;
        address;
        port;
        unlink;
        snapshot;
        health;
        runtime;
        trace;
        stopping = Atomic.make false;
        scrape_count = Atomic.make 0;
        domain = None;
      }
    in
    t.domain <- Some (Domain.spawn (fun () -> accept_loop t));
    Ok t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    match t.unlink with
    | Some path -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ()
  end
