(** The serving engine: admission control, worker dispatch, the retry
    ladder and graceful degradation. Transport-agnostic — connection
    loops (see {!Transport}) call {!handle_request} and block for the
    response, so one engine serves stdio, Unix-socket and in-process
    clients identically.

    Life of a compile request:

    + the request's budgets are clamped by server policy, and
      {!Cell.parse} parses the payload and script once, on the connection
      domain: a parse error is answered here, without admission;
    + the job key (payload/script structure × pipeline × limits ×
      attempts) is computed from that parse's fingerprints;
    + the result cache is consulted ({!Rcache}): a hit answers without
      admission; otherwise the request takes the single-flight lease;
    + admission: a draining engine rejects, a full queue sheds with a
      [retry_after_ms] hint — both without burning a worker;
    + admitted jobs are submitted to the engine's private {!Ir.Pool}
      worker set and run inside a {!Cell} containment cell on the parsed
      module, re-attempted on the transient (budget-exhaustion) class at
      escalating budget tiers while the client's [retry.attempts] allows
      (each retry re-parses, since the failed attempt mutated the module);
    + the deterministic response core lands in the cache (leases are
      abandoned on shed/reject so waiters can take over) and is returned
      with the request's id re-attached.

    Cross-job isolation is watched by a sentinel: a module shared by all
    workers is fingerprinted before and after every job; any drift is
    counted ([server/contamination]) and surfaced as an internal error —
    the self-test campaign asserts the counter stays at zero. *)

open Ir

type policy = {
  p_jobs : int;  (** worker domains executing containment cells *)
  p_queue_depth : int;  (** max admitted (queued + running) jobs *)
  p_max_frame : int;  (** protocol frame size limit, bytes *)
  p_clamp_max_steps : int option;
      (** hard per-job ceilings, also applied when the request is silent *)
  p_clamp_max_rewrites : int option;
  p_clamp_deadline_ms : int option;
  p_max_attempts : int;  (** retry-ladder ceiling *)
  p_retry_scale : int;  (** budget multiplier per retry tier *)
  p_backoff_ms : int;  (** base backoff between attempts *)
  p_retry_after_ms : int;  (** shed hint *)
  p_cache_capacity : int;
  p_reproducer_dir : string option;
}

let default_policy =
  {
    p_jobs = 2;
    p_queue_depth = 64;
    p_max_frame = Protocol.default_max_frame;
    p_clamp_max_steps = Some 1_000_000;
    p_clamp_max_rewrites = Some 1_000_000;
    p_clamp_deadline_ms = Some 60_000;
    p_max_attempts = 4;
    p_retry_scale = 4;
    p_backoff_ms = 1;
    p_retry_after_ms = 50;
    p_cache_capacity = 1024;
    p_reproducer_dir = Some (Filename.concat "_artifacts" "server-reproducers");
  }

type t = {
  e_policy : policy;
  e_pool : Pool.t;
  e_cache : Rcache.t;
  e_mu : Mutex.t;
  e_cond : Condition.t;
  mutable e_admitted : int;
  mutable e_draining : bool;
  e_shutdown : bool Atomic.t;  (** a client asked for shutdown *)
  e_sentinel : Ircore.op;  (** shared tripwire for cross-job contamination *)
  e_sentinel_fp : Fingerprint.t;
}

(* global statistics (Ir.Stats) *)
let stat_requests = Stats.counter ~component:"server" "requests"
let stat_sheds = Stats.counter ~component:"server" "sheds"

let stat_rejected_draining =
  Stats.counter ~component:"server" "rejected_draining"

let stat_retries =
  Stats.counter ~component:"server" "retries"
    ~desc:"budget-exhausted attempts re-run at a higher tier"

let stat_contamination =
  Stats.counter ~component:"server" "contamination"
    ~desc:"jobs after which the shared sentinel fingerprint drifted"

(* [server_sentinel(a, b) = a + b] in a module of its own; built, not
   parsed, so job parsing stays confined to {!Cell.parse} *)
let build_sentinel () =
  let open Dialects in
  let m = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"server_sentinel" ~arg_types:[ Typ.i64; Typ.i64 ]
      ~result_types:[ Typ.i64 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block m) f;
  let rw = Dutil.rw_at_end entry in
  let sum =
    Arith.addi rw (Ircore.block_arg entry 0) (Ircore.block_arg entry 1)
  in
  Func.return rw ~operands:[ sum ] ();
  m

let create ?(policy = default_policy) () =
  let sentinel = build_sentinel () in
  {
    e_policy = policy;
    (* [jobs + 1]: the engine itself never participates in fan-outs, so a
       pool sized one above the worker count yields exactly [p_jobs]
       dedicated worker domains behind [Pool.async] *)
    e_pool = Pool.create ~jobs:(max 1 policy.p_jobs + 1);
    e_cache = Rcache.create ~capacity:policy.p_cache_capacity ();
    e_mu = Mutex.create ();
    e_cond = Condition.create ();
    e_admitted = 0;
    e_draining = false;
    e_shutdown = Atomic.make false;
    e_sentinel = sentinel;
    e_sentinel_fp = Fingerprint.op sentinel;
  }

let policy t = t.e_policy
let shutdown_requested t = Atomic.get t.e_shutdown
let draining t =
  Mutex.lock t.e_mu;
  let d = t.e_draining in
  Mutex.unlock t.e_mu;
  d

(* ------------------------------------------------------------------ *)
(* Budget clamping                                                     *)
(* ------------------------------------------------------------------ *)

(* request value capped by the policy ceiling; an unlimited request under
   a ceiling gets the ceiling itself *)
let clamp ~ceiling requested =
  match (requested, ceiling) with
  | Some v, Some c -> Some (min v c)
  | None, Some c -> Some c
  | v, None -> v

let effective_job (p : policy) (c : Protocol.compile) : Cell.job =
  {
    Cell.jb_payload = c.Protocol.c_payload;
    jb_script = c.Protocol.c_script;
    jb_pipeline = c.Protocol.c_pipeline;
    jb_max_steps =
      clamp ~ceiling:p.p_clamp_max_steps
        c.Protocol.c_budget.Protocol.br_max_steps;
    jb_max_rewrites =
      clamp ~ceiling:p.p_clamp_max_rewrites
        c.Protocol.c_budget.Protocol.br_max_rewrites;
    jb_deadline_ms =
      clamp ~ceiling:p.p_clamp_deadline_ms
        c.Protocol.c_budget.Protocol.br_deadline_ms;
  }

let scale_budgets (p : policy) (j : Cell.job) : Cell.job =
  let scale ceiling = function
    | None -> None
    | Some v -> (
      let v = v * p.p_retry_scale in
      match ceiling with Some c -> Some (min v c) | None -> Some v)
  in
  {
    j with
    Cell.jb_max_steps = scale p.p_clamp_max_steps j.Cell.jb_max_steps;
    jb_max_rewrites = scale p.p_clamp_max_rewrites j.Cell.jb_max_rewrites;
    jb_deadline_ms = scale p.p_clamp_deadline_ms j.Cell.jb_deadline_ms;
  }

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let admit t =
  Mutex.lock t.e_mu;
  let verdict =
    if t.e_draining then `Draining
    else if t.e_admitted >= t.e_policy.p_queue_depth then `Shed
    else begin
      t.e_admitted <- t.e_admitted + 1;
      `Admitted
    end
  in
  Mutex.unlock t.e_mu;
  verdict

let release t =
  Mutex.lock t.e_mu;
  t.e_admitted <- t.e_admitted - 1;
  if t.e_admitted = 0 then Condition.broadcast t.e_cond;
  Mutex.unlock t.e_mu

(** Stop admitting new jobs and wait for every in-flight job to finish.
    Idempotent; [serve] loops keep answering with [Draining] rejections
    while the drain completes. *)
let drain t =
  Mutex.lock t.e_mu;
  t.e_draining <- true;
  while t.e_admitted > 0 do
    Condition.wait t.e_cond t.e_mu
  done;
  Mutex.unlock t.e_mu

(** Drain, then stop the worker domains. The engine is unusable after. *)
let close t =
  drain t;
  Pool.shutdown t.e_pool

(* ------------------------------------------------------------------ *)
(* Promises (worker -> requester completion signalling)                *)
(* ------------------------------------------------------------------ *)

type 'a promise = {
  pr_mu : Mutex.t;
  pr_cond : Condition.t;
  mutable pr_value : ('a, exn * Printexc.raw_backtrace) result option;
}

let promise () =
  { pr_mu = Mutex.create (); pr_cond = Condition.create (); pr_value = None }

let resolve pr v =
  Mutex.lock pr.pr_mu;
  pr.pr_value <- Some v;
  Condition.broadcast pr.pr_cond;
  Mutex.unlock pr.pr_mu

(* an exception the task raised is re-raised on the awaiting domain *)
let await pr =
  Mutex.lock pr.pr_mu;
  while Option.is_none pr.pr_value do
    Condition.wait pr.pr_cond pr.pr_mu
  done;
  let v = Option.get pr.pr_value in
  Mutex.unlock pr.pr_mu;
  match v with
  | Ok v -> v
  | Error (ex, bt) -> Printexc.raise_with_backtrace ex bt

(* ------------------------------------------------------------------ *)
(* Job execution (on a worker domain)                                  *)
(* ------------------------------------------------------------------ *)

(** Run the retry ladder for one admitted job. Executes inside a worker;
    returns the deterministic response core. *)
let run_attempts t ~attempts_allowed (base : Cell.job) (parsed : Cell.parsed)
    : Json.t =
  let p = t.e_policy in
  let rec attempt k (job : Cell.job) = function
    | Error msg -> Protocol.error_core ~attempts:k ~cls:Protocol.Parse msg
    | Ok (parsed : Cell.parsed) -> (
      let outcome = Cell.run ?reproducer_dir:p.p_reproducer_dir job parsed in
      (* sentinel tripwire: shared state must be exactly as before the job *)
      let result =
        if Fingerprint.equal (Fingerprint.op t.e_sentinel) t.e_sentinel_fp
        then outcome.Cell.oc_result
        else begin
          Stats.incr stat_contamination;
          Error
            ( Protocol.Internal,
              "cross-job contamination detected: shared sentinel \
               fingerprint drifted" )
        end
      in
      let fps = parsed.Cell.pa_fps in
      match result with
      | Error (Protocol.Budget, _) when k < attempts_allowed ->
        Stats.incr stat_retries;
        (* linear-ish backoff: tiny in-process, real daemons configure it *)
        if p.p_backoff_ms > 0 then
          Unix.sleepf (float_of_int (p.p_backoff_ms * k) /. 1000.);
        let job = scale_budgets p job in
        attempt (k + 1) job (Cell.parse job)
      | Error (cls, msg) ->
        Protocol.error_core ~attempts:k ~fps
          ?reproducer:outcome.Cell.oc_reproducer ~cls msg
      | Ok output -> Protocol.ok_core ~attempts:k ~fps ~output ())
  in
  attempt 1 base (Ok parsed)

let run_on_pool t ~attempts_allowed base parsed =
  let pr = promise () in
  Pool.async t.e_pool (fun () ->
      resolve pr
        (try Ok (run_attempts t ~attempts_allowed base parsed)
         with ex -> Error (ex, Printexc.get_raw_backtrace ())));
  await pr

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let retry_after_ms t =
  let p = t.e_policy in
  Mutex.lock t.e_mu;
  let backlog = t.e_admitted in
  Mutex.unlock t.e_mu;
  p.p_retry_after_ms * max 1 (backlog / max 1 p.p_jobs)

(** Key of the request in the result cache: the cell's job fingerprint
    extended with the attempts allowance (a retried job can succeed where
    a single-shot one fails, so they must not share an entry). *)
let request_key job fps ~attempts_allowed =
  Fingerprint.combine (Cell.job_fingerprint job fps) attempts_allowed

let compile_core t (c : Protocol.compile) : Json.t =
  let p = t.e_policy in
  let job = effective_job p c in
  let attempts_allowed = max 1 (min c.Protocol.c_attempts p.p_max_attempts) in
  match Cell.parse job with
  | Error msg -> Protocol.error_core ~cls:Protocol.Parse msg
  | Ok parsed -> (
    let key = request_key job parsed.Cell.pa_fps ~attempts_allowed in
    let admit_and_run () =
      match admit t with
      | `Draining ->
        Stats.incr stat_rejected_draining;
        `Uncacheable
          (Protocol.error_core ~cls:Protocol.Draining
             "server is draining; job rejected")
      | `Shed ->
        Stats.incr stat_sheds;
        `Uncacheable (Protocol.shed_core ~retry_after_ms:(retry_after_ms t))
      | `Admitted ->
        let core =
          Fun.protect
            ~finally:(fun () -> release t)
            (fun () -> run_on_pool t ~attempts_allowed job parsed)
        in
        `Cacheable core
    in
    if not c.Protocol.c_cache then begin
      match admit_and_run () with
      | `Uncacheable core | `Cacheable core -> core
    end
    else
      match Rcache.find_or_lease t.e_cache key with
      | `Hit core -> core
      | `Lease -> (
        match admit_and_run () with
        | `Cacheable core ->
          Rcache.fulfill t.e_cache key core;
          core
        | `Uncacheable core ->
          Rcache.abandon t.e_cache key;
          core
        | exception ex ->
          Rcache.abandon t.e_cache key;
          raise ex))

let stats_json t =
  let count name =
    match Stats.find_counter ~component:"server" name with
    | Some c -> Stats.value c
    | None -> 0
  in
  Mutex.lock t.e_mu;
  let admitted = t.e_admitted and draining = t.e_draining in
  Mutex.unlock t.e_mu;
  Json.Obj
    [
      ("requests", Json.Int (count "requests"));
      ("jobs_run", Json.Int (count "jobs_run"));
      ("cache_hits", Json.Int (count "cache_hits"));
      ("cache_misses", Json.Int (count "cache_misses"));
      ("singleflight_joins", Json.Int (count "singleflight_joins"));
      ("cache_entries", Json.Int (Rcache.size t.e_cache));
      ("sheds", Json.Int (count "sheds"));
      ("rejected_draining", Json.Int (count "rejected_draining"));
      ("retries", Json.Int (count "retries"));
      ("contained_failures", Json.Int (count "contained_failures"));
      ("exceptions_contained", Json.Int (count "exceptions_contained"));
      ("reproducers", Json.Int (count "reproducers"));
      ("contamination", Json.Int (count "contamination"));
      ("admitted", Json.Int admitted);
      ("draining", Json.Bool draining);
      ("workers", Json.Int t.e_policy.p_jobs);
    ]

(** Handle one parsed request, blocking until the response is ready. *)
let handle_request t (req : Protocol.request) : Json.t =
  Stats.incr stat_requests;
  match req with
  | Protocol.Ping id -> Protocol.pong_response ?id ()
  | Protocol.Stats ->
    Json.Obj
      [
        ("status", Json.String "ok");
        ("kind", Json.String "stats");
        ("stats", stats_json t);
      ]
  | Protocol.Shutdown ->
    Atomic.set t.e_shutdown true;
    Json.Obj
      [ ("status", Json.String "ok"); ("kind", Json.String "shutdown") ]
  | Protocol.Compile c ->
    Protocol.with_id c.Protocol.c_id (compile_core t c)

(** Convenience for in-process clients and tests: parse, validate and
    handle one request value. *)
let handle_json t (j : Json.t) : Json.t =
  match Protocol.parse_request j with
  | Ok req -> handle_request t req
  | Error e ->
    let id = Option.bind (Json.member "id" j) Json.to_string_opt in
    Protocol.invalid_response ?id e
