(** Domain work pool: a small Domainslib-style task pool backing the
    multicore pass manager and the parallel fuzzing campaigns.

    The pool owns [jobs - 1] long-lived worker domains pulling closures off
    a shared queue; the submitting domain always participates in its own
    fan-out, so a pool sized 1 never spawns anything and a fan-out of [n]
    tasks runs on [min jobs n] domains. Tasks are claimed by an atomic
    next-index counter (one task at a time — IR workloads are coarse
    enough that chunking would only hurt balance).

    Sizing is process-global: [set_jobs]/[jobs] configure the degree used
    by {!run}, initialized from the [OTD_JOBS] environment variable (the
    binaries' [--jobs] flag overrides it; their auto default is
    {!default_jobs}). With [jobs () <= 1], {!run} degenerates to a plain
    sequential loop without touching the pool at all — single-domain
    behavior is exactly the status quo.

    The pool is deliberately ambient-agnostic: ambient observability state
    ({!Budget}, {!Profiler}, {!Action}, {!Diag} captures) is
    domain-local, so schedulers that fan out must re-install what their
    tasks need (see [Passes.Pass] for the canonical propagation). *)

type t = {
  p_jobs : int;  (** total domains this pool uses, including the caller *)
  p_mu : Mutex.t;
  p_cond : Condition.t;  (** queue became non-empty, or shutdown *)
  p_queue : (unit -> unit) Queue.t;
  mutable p_stop : bool;
  mutable p_domains : unit Domain.t list;
}

(* global statistics (Ir.Stats) *)
let stat_fanouts =
  Stats.counter ~component:"pool" "fanouts"
    ~desc:"parallel fan-outs submitted to the pool"

let stat_tasks =
  Stats.counter ~component:"pool" "tasks" ~desc:"tasks run by a fan-out"

let worker pool () =
  let rec loop () =
    Mutex.lock pool.p_mu;
    while Queue.is_empty pool.p_queue && not pool.p_stop do
      Condition.wait pool.p_cond pool.p_mu
    done;
    if Queue.is_empty pool.p_queue then Mutex.unlock pool.p_mu
      (* stop requested and drained *)
    else begin
      let task = Queue.pop pool.p_queue in
      Mutex.unlock pool.p_mu;
      (* fan-out bodies contain their own exceptions; a raise here would
         kill the domain, so swallow defensively *)
      (try task () with _ -> ());
      loop ()
    end
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      p_jobs = jobs;
      p_mu = Mutex.create ();
      p_cond = Condition.create ();
      p_queue = Queue.create ();
      p_stop = false;
      p_domains = [];
    }
  in
  pool.p_domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let size pool = pool.p_jobs

let shutdown pool =
  Mutex.lock pool.p_mu;
  pool.p_stop <- true;
  Condition.broadcast pool.p_cond;
  Mutex.unlock pool.p_mu;
  List.iter Domain.join pool.p_domains;
  pool.p_domains <- []

(** Run [f 0 .. f (n-1)] across the pool; the calling domain participates.
    Blocks until every task finished. The first exception raised by a task
    (in claim order) is re-raised in the caller after the fan-out drains —
    tasks are not cancelled. *)
let parallel_for pool n f =
  if n <= 0 then ()
  else if pool.p_jobs <= 1 || n = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    Stats.incr stat_fanouts;
    Stats.add stat_tasks n;
    let next = Atomic.make 0 in
    let fin_mu = Mutex.create () in
    let fin_cond = Condition.create () in
    let remaining = ref n in
    let first_error = Atomic.make None in
    let work () =
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (try f i
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set first_error None (Some (e, bt))));
          Mutex.lock fin_mu;
          decr remaining;
          if !remaining = 0 then Condition.broadcast fin_cond;
          Mutex.unlock fin_mu;
          claim ()
        end
      in
      claim ()
    in
    (* one helper entry per worker that could usefully participate *)
    let helpers = min (pool.p_jobs - 1) (n - 1) in
    Mutex.lock pool.p_mu;
    for _ = 1 to helpers do
      Queue.push work pool.p_queue
    done;
    Condition.broadcast pool.p_cond;
    Mutex.unlock pool.p_mu;
    work ();
    Mutex.lock fin_mu;
    while !remaining > 0 do
      Condition.wait fin_cond fin_mu
    done;
    Mutex.unlock fin_mu;
    match Atomic.get first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(** Submit one detached task to the pool's worker set and return
    immediately. Unlike {!parallel_for} the caller does not participate
    and nothing is awaited — completion signalling is the task's own
    business (see [Server.Engine]'s promises). With a pool of size 1
    there are no workers, so the task runs synchronously in the caller:
    a sequential configuration keeps exactly the sequential semantics. *)
let async pool task =
  if pool.p_jobs <= 1 then task ()
  else begin
    Stats.incr stat_tasks;
    Mutex.lock pool.p_mu;
    Queue.push task pool.p_queue;
    Condition.signal pool.p_cond;
    Mutex.unlock pool.p_mu
  end

(* ------------------------------------------------------------------ *)
(* Process-global pool                                                 *)
(* ------------------------------------------------------------------ *)

let env_jobs () =
  match Sys.getenv_opt "OTD_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

(** The degree an auto-sizing consumer should pick: [OTD_JOBS] when set,
    otherwise the runtime's recommended domain count. *)
let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

(* library-embedded default: OTD_JOBS, else sequential. The binaries opt
   into default_jobs () via --jobs=0 (auto). *)
let configured = ref (match env_jobs () with Some n -> n | None -> 1)
let instance : t option ref = ref None
let instance_mu = Mutex.create ()

let jobs () = !configured

(** Set the process-global parallelism degree. [n = 1] disables the pool;
    an existing pool of a different size is shut down (and re-spawned
    lazily on the next fan-out). *)
let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be >= 1";
  Mutex.lock instance_mu;
  if n <> !configured then begin
    configured := n;
    match !instance with
    | Some pool ->
      instance := None;
      Mutex.unlock instance_mu;
      shutdown pool
    | None -> Mutex.unlock instance_mu
  end
  else Mutex.unlock instance_mu

let get () =
  Mutex.lock instance_mu;
  let pool =
    match !instance with
    | Some pool when pool.p_jobs = !configured -> pool
    | prior ->
      (match prior with
      | Some stale ->
        (* size changed since creation; replace *)
        instance := None;
        shutdown stale
      | None -> ());
      let pool = create ~jobs:!configured in
      instance := Some pool;
      pool
  in
  Mutex.unlock instance_mu;
  pool

(** Fan [f] over [0 .. n-1] on the global pool. With [jobs () <= 1] this
    is exactly [for i = 0 to n - 1 do f i done] — no pool is created and
    no domain is spawned. *)
let run n f =
  if n <= 0 then ()
  else if !configured <= 1 || n = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else parallel_for (get ()) n f
