(** Transports for the serving engine: a per-connection frame loop usable
    over stdio or any fd pair, a Unix-domain-socket listener with a small
    set of acceptor domains, and the client helpers the tests, the fault
    campaign and the e2ebench server-mix workload share.

    The frame loop is where protocol-level faults die. The rules, exercised
    byte-by-byte in [test_server.ml]:

    - clean EOF on a frame boundary → quiet close;
    - truncated prefix or body (peer died mid-frame) → best-effort
      [invalid] response, then close;
    - oversized or negative length prefix → [invalid] response, then close
      (the stream cannot be resynchronised);
    - invalid UTF-8, unparseable JSON or a schema violation → [invalid]
      response and the connection {e keeps serving} (framing is intact);
    - anything the engine throws short of [Sys.Break]/[Out_of_memory] →
      [internal] error response, connection keeps serving.

    Nothing a client sends terminates the daemon. *)

open Ir

(* global statistics (Ir.Stats) *)
let stat_conns = Stats.counter ~component:"server" "connections"

let stat_frame_faults =
  Stats.counter ~component:"server" "frame_faults"
    ~desc:"malformed frames answered with an invalid response"

let send fd (j : Json.t) = Protocol.write_frame fd (Json.to_line j)

(* a response write can hit EPIPE / reset when the peer is gone; that is
   the peer's problem, not the daemon's *)
let send_best_effort fd j =
  match send fd j with
  | () -> true
  | exception Unix.Unix_error (_, _, _) -> false

(** Serve one established connection until it closes, desyncs, or a
    shutdown request lands. Total: never raises on client behaviour. *)
let serve_fd ?(on_response = fun (_ : Json.t) -> ()) engine ~in_fd ~out_fd =
  Stats.incr stat_conns;
  let max_frame = (Engine.policy engine).Engine.p_max_frame in
  let respond j =
    on_response j;
    send_best_effort out_fd j
  in
  let rec loop () =
    match Protocol.read_frame ~max_frame in_fd with
    | exception Unix.Unix_error (_, _, _) -> ()
    | Error Protocol.Closed -> ()
    | Error ((Protocol.Truncated _ | Protocol.Oversized _ | Protocol.Negative _) as fe) ->
      (* the stream is no longer frame-aligned: answer and hang up *)
      Stats.incr stat_frame_faults;
      ignore
        (respond
           (Protocol.invalid_response (Protocol.frame_error_message fe)))
    | Ok body ->
      let response =
        if not (Protocol.utf8_valid body) then
          Protocol.invalid_response "frame body is not valid UTF-8"
        else
          match Json.parse body with
          | Error e ->
            Protocol.invalid_response (Fmt.str "JSON parse error: %s" e)
          | Ok j -> (
            match Protocol.parse_request j with
            | Error e ->
              let id =
                Option.bind (Json.member "id" j) Json.to_string_opt
              in
              Protocol.invalid_response ?id e
            | Ok req -> (
              try Engine.handle_request engine req
              with ex when not (Diag.fatal_exn ex) ->
                Protocol.error_core ~cls:Protocol.Internal
                  (Fmt.str "engine error: %s" (Printexc.to_string ex))))
      in
      (match response with
      | Json.Obj (("status", Json.String "invalid") :: _)
      | Json.Obj (_ :: ("status", Json.String "invalid") :: _) ->
        Stats.incr stat_frame_faults
      | _ -> ());
      if respond response && not (Engine.shutdown_requested engine) then
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Unix-domain-socket listener                                         *)
(* ------------------------------------------------------------------ *)

type listener = {
  l_fd : Unix.file_descr;
  l_path : string;
  l_stop : bool Atomic.t;
  l_domains : unit Domain.t list;
}

(* acceptors poll with a short select timeout so a stop flag (drain,
   SIGTERM, client shutdown request) is noticed without a wakeup pipe *)
let acceptor ?on_response engine listener () =
  while not (Atomic.get listener.l_stop) do
    match Unix.select [ listener.l_fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept listener.l_fd with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        () (* another acceptor won the race *)
      | exception Unix.Unix_error (_, _, _) -> ()
      | conn, _ ->
        Fun.protect
          ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
          (fun () -> serve_fd ?on_response engine ~in_fd:conn ~out_fd:conn);
        if Engine.shutdown_requested engine then
          Atomic.set listener.l_stop true)
  done

(** Bind [path] and serve with [conns] concurrent acceptor domains.
    Returns once the listener is accepting; call {!stop_listener} (or let
    a client [shutdown] request trip the stop flag) to wind it down.
    [on_response] observes every response object sent (response
    journalling); it must be domain-safe. *)
let serve_unix ?on_response engine ~path ~conns =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  let listener =
    { l_fd = fd; l_path = path; l_stop = Atomic.make false; l_domains = [] }
  in
  let domains =
    List.init (max 1 conns) (fun _ ->
        Domain.spawn (acceptor ?on_response engine listener))
  in
  { listener with l_domains = domains }

(** Signal the acceptors to stop, wait for in-flight connections to finish
    their frame loops, close and unlink the socket. *)
let stop_listener l =
  Atomic.set l.l_stop true;
  List.iter Domain.join l.l_domains;
  (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
  try Unix.unlink l.l_path with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(** Connect, retrying briefly while the daemon is still binding. *)
let connect_retry path =
  let rec go n =
    match connect path with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Unix.sleepf 0.05;
      go (n - 1)
  in
  go 50

let send_request fd (j : Json.t) = send fd j

let recv_response ?max_frame fd : (Json.t, string) result =
  match Protocol.read_frame ?max_frame fd with
  | Error fe -> Error (Protocol.frame_error_message fe)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Ok body -> Json.parse body

(** One request/response round trip on an established connection. *)
let rpc ?max_frame fd (j : Json.t) : (Json.t, string) result =
  match send_request fd j with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> recv_response ?max_frame fd

(** Connect, run one rpc, close. *)
let rpc_once ?max_frame path (j : Json.t) : (Json.t, string) result =
  let fd = connect_retry path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> rpc ?max_frame fd j)

(** Write raw bytes (no framing) — the fault campaign's tool for
    malformed-frame injection. *)
let send_raw fd (s : string) =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0
