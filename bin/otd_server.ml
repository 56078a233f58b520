(** otd-server: fault-isolated compilation as a service.

    A long-lived daemon accepting length-prefixed JSON compile jobs over a
    Unix-domain socket ([--socket]) or stdio ([--stdio]), executing each in
    a containment cell (per-job budget, exception barrier, crash
    reproducer) behind a content-addressed result cache with single-flight
    deduplication, bounded retry-with-backoff for budget exhaustion, and
    graceful degradation (admission queue, load shedding, drain on
    SIGTERM/SIGINT).

    Examples:
    - [otd_server --socket /tmp/otd.sock --jobs 4]
    - [otd_server --stdio < requests.bin]
    - [otd_server --self-test]  (in-process fault-injection campaign)
    - [otd_server --socket /tmp/otd.sock --client batch.jsonl]

    The protocol is documented in {!Server.Protocol} and README.md; the
    response journal written by [--journal] validates with
    [otd_json --jsonl --schema=server]. *)

open Cmdliner

let stop_requested = Atomic.make false

let install_signals () =
  (* writes to disconnected clients must error, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let request_stop = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  (try Sys.set_signal Sys.sigterm request_stop with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint request_stop with Invalid_argument _ -> ()

let journal_hook journal =
  match journal with
  | None -> (None, fun () -> ())
  | Some path ->
    let oc = open_out path in
    let mu = Mutex.create () in
    let on_response j =
      Mutex.lock mu;
      output_string oc (Ir.Json.to_line j);
      output_char oc '\n';
      Mutex.unlock mu
    in
    (Some on_response, fun () -> close_out oc)

(* ------------------------------------------------------------------ *)
(* Serve modes                                                         *)
(* ------------------------------------------------------------------ *)

let serve_socket policy ~path ~conns ~journal =
  install_signals ();
  let engine = Server.Engine.create ~policy () in
  let on_response, close_journal = journal_hook journal in
  let listener = Server.Transport.serve_unix ?on_response engine ~path ~conns in
  Fmt.epr "otd-server: serving on %s (%d workers, %d connections)@." path
    policy.Server.Engine.p_jobs conns;
  (* wait for a signal or a client shutdown request, then drain *)
  while
    not (Atomic.get stop_requested)
    && not (Server.Engine.shutdown_requested engine)
  do
    Unix.sleepf 0.2
  done;
  Fmt.epr "otd-server: draining (in-flight jobs finish, new jobs rejected)@.";
  Server.Transport.stop_listener listener;
  Server.Engine.close engine;
  close_journal ();
  Fmt.epr "otd-server: drained, bye@.";
  `Ok ()

let serve_stdio policy ~journal =
  install_signals ();
  let engine = Server.Engine.create ~policy () in
  let on_response, close_journal = journal_hook journal in
  Server.Transport.serve_fd ?on_response engine ~in_fd:Unix.stdin
    ~out_fd:Unix.stdout;
  Server.Engine.close engine;
  close_journal ();
  `Ok ()

(* ------------------------------------------------------------------ *)
(* Client mode: replay a JSONL batch against a live daemon             *)
(* ------------------------------------------------------------------ *)

(* lines are framed as-is (even deliberately broken ones), so poisoned
   batches exercise the daemon's protocol barrier end to end; if the
   daemon hangs up (desynchronizing fault) the client reconnects *)
let run_client ~path file =
  let ic = if file = "-" then stdin else open_in file in
  let fd = ref (Server.Transport.connect_retry path) in
  let reconnect () =
    (try Unix.close !fd with Unix.Unix_error _ -> ());
    fd := Server.Transport.connect_retry path
  in
  let rec go sent =
    match input_line ic with
    | exception End_of_file -> sent
    | line when String.trim line = "" -> go sent
    | line ->
      (try Server.Protocol.write_frame !fd line
       with Unix.Unix_error _ -> reconnect (); Server.Protocol.write_frame !fd line);
      (match Server.Protocol.read_frame !fd with
      | Ok body -> print_endline body
      | Error _ -> reconnect ()
      | exception Unix.Unix_error _ -> reconnect ());
      go (sent + 1)
  in
  let sent = go 0 in
  (try Unix.close !fd with Unix.Unix_error _ -> ());
  if file <> "-" then close_in ic;
  Fmt.epr "otd-server --client: %d frames sent@." sent;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* Self test: the fault-injection campaign                             *)
(* ------------------------------------------------------------------ *)

let run_self_test ~cases ~journal ~reproducer_dir =
  install_signals ();
  let s =
    Fuzz.Server_faults.run ~cases ?journal ?reproducer_dir ()
  in
  let nviol = List.length s.Fuzz.Server_faults.sf_violations in
  Fmt.pr
    "otd-server self-test: %d frames (%d poisoned), %d ok, %d contained, %d \
     invalid, %d closed, %d canaries, %d cache hits, %d reproducers, %d \
     violation%s, %.1f s@."
    s.Fuzz.Server_faults.sf_jobs s.Fuzz.Server_faults.sf_poisoned
    s.Fuzz.Server_faults.sf_ok s.Fuzz.Server_faults.sf_contained
    s.Fuzz.Server_faults.sf_invalid s.Fuzz.Server_faults.sf_closed
    s.Fuzz.Server_faults.sf_canaries s.Fuzz.Server_faults.sf_cache_hits
    s.Fuzz.Server_faults.sf_reproducers nviol
    (if nviol = 1 then "" else "s")
    s.Fuzz.Server_faults.sf_seconds;
  List.iter (Fmt.pr "  VIOLATION: %s@.") s.Fuzz.Server_faults.sf_violations;
  if nviol = 0 then `Ok ()
  else `Error (false, "server fault campaign found violations")

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let run socket stdio client self_test cases jobs conns queue_depth max_frame
    max_steps max_rewrites deadline_ms attempts retry_scale backoff_ms
    retry_after_ms cache_capacity reproducers journal =
  Printexc.record_backtrace true;
  let policy =
    {
      Server.Engine.p_jobs = max 1 jobs;
      p_queue_depth = max 1 queue_depth;
      p_max_frame = max 1024 max_frame;
      p_clamp_max_steps = max_steps;
      p_clamp_max_rewrites = max_rewrites;
      p_clamp_deadline_ms = deadline_ms;
      p_max_attempts = max 1 attempts;
      p_retry_scale = max 2 retry_scale;
      p_backoff_ms = max 0 backoff_ms;
      p_retry_after_ms = max 1 retry_after_ms;
      p_cache_capacity = max 1 cache_capacity;
      p_reproducer_dir = reproducers;
    }
  in
  match (self_test, client, socket, stdio) with
  | Some cases_opt, _, _, _ ->
    let cases = Option.value cases_opt ~default:cases in
    run_self_test ~cases ~journal
      ~reproducer_dir:policy.Server.Engine.p_reproducer_dir
  | None, Some file, Some path, _ -> run_client ~path file
  | None, Some _, None, _ ->
    `Error (false, "--client needs --socket PATH to talk to")
  | None, None, Some path, false -> serve_socket policy ~path ~conns ~journal
  | None, None, None, true -> serve_stdio policy ~journal
  | None, None, Some _, true ->
    `Error (false, "--socket and --stdio are mutually exclusive")
  | None, None, None, false ->
    `Error (false, "pick a mode: --socket PATH, --stdio, or --self-test")

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Serve on (or, with $(b,--client), connect to) a Unix-domain \
              socket at $(docv).")

let stdio =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:"Serve one connection over stdin/stdout and exit on EOF.")

let client =
  Arg.(
    value
    & opt (some string) None
    & info [ "client" ] ~docv:"FILE"
        ~doc:"Client mode: frame each line of the JSONL $(docv) ($(b,-) for \
              stdin) to the daemon at $(b,--socket), print each response \
              line to stdout. Lines are sent verbatim, so poisoned batches \
              reach the daemon's protocol barrier intact.")

let self_test =
  Arg.(
    value
    & opt ~vopt:(Some None) (some (some int)) None
    & info [ "self-test" ] ~docv:"CASES"
        ~doc:"Run the in-process server fault-injection campaign (valid \
              jobs, canaries, budget busters, crash-poisoned transforms, \
              malformed frames) and exit nonzero on any containment or \
              determinism violation.")

let cases =
  Arg.(
    value & opt int 300
    & info [ "cases" ] ~docv:"N" ~doc:"Self-test campaign size.")

let jobs =
  Arg.(
    value & opt int 2
    & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains executing jobs.")

let conns =
  Arg.(
    value & opt int 4
    & info [ "conns" ] ~docv:"N" ~doc:"Concurrent connections served.")

let queue_depth =
  Arg.(
    value & opt int 64
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:"Admitted (queued + running) job limit; excess is shed with a \
              retry_after_ms hint.")

let max_frame =
  Arg.(
    value
    & opt int Server.Protocol.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Frame size limit.")

let max_steps =
  Arg.(
    value
    & opt (some int) Server.Engine.default_policy.Server.Engine.p_clamp_max_steps
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Ceiling on per-job interpreter steps (requests are clamped).")

let max_rewrites =
  Arg.(
    value
    & opt (some int)
        Server.Engine.default_policy.Server.Engine.p_clamp_max_rewrites
    & info [ "max-rewrites" ] ~docv:"N"
        ~doc:"Ceiling on per-job greedy rewrites.")

let deadline_ms =
  Arg.(
    value
    & opt (some int)
        Server.Engine.default_policy.Server.Engine.p_clamp_deadline_ms
    & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Ceiling on per-job deadlines.")

let attempts =
  Arg.(
    value & opt int Server.Engine.default_policy.Server.Engine.p_max_attempts
    & info [ "attempts" ] ~docv:"N"
        ~doc:"Ceiling on the per-job retry allowance (budget-exhausted jobs \
              re-run at escalating budget tiers).")

let retry_scale =
  Arg.(
    value & opt int Server.Engine.default_policy.Server.Engine.p_retry_scale
    & info [ "retry-scale" ] ~docv:"N"
        ~doc:"Budget multiplier per retry tier.")

let backoff_ms =
  Arg.(
    value & opt int Server.Engine.default_policy.Server.Engine.p_backoff_ms
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:"Base backoff between retry tiers.")

let retry_after_ms =
  Arg.(
    value
    & opt int Server.Engine.default_policy.Server.Engine.p_retry_after_ms
    & info [ "retry-after-ms" ] ~docv:"MS"
        ~doc:"Base retry-after hint on shed responses (scaled by backlog).")

let cache_capacity =
  Arg.(
    value
    & opt int Server.Engine.default_policy.Server.Engine.p_cache_capacity
    & info [ "cache" ] ~docv:"N" ~doc:"Result-cache capacity (entries).")

let reproducers =
  Arg.(
    value
    & opt (some string)
        Server.Engine.default_policy.Server.Engine.p_reproducer_dir
    & info [ "reproducers" ] ~docv:"DIR"
        ~doc:"Write crash reproducers for contained failures into $(docv).")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:"Append every response object to $(docv) as JSON Lines \
              (validate with $(b,otd_json --jsonl --schema=server)).")

let cmd =
  let doc = "fault-isolated compilation-as-a-service daemon" in
  Cmd.v
    (Cmd.info "otd-server" ~doc)
    Term.(
      ret
        (const run $ socket $ stdio $ client $ self_test $ cases $ jobs
       $ conns $ queue_depth $ max_frame $ max_steps $ max_rewrites
       $ deadline_ms $ attempts $ retry_scale $ backoff_ms $ retry_after_ms
       $ cache_capacity $ reproducers $ journal))

let () = exit (Cmd.eval cmd)
