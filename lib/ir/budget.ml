(** Cooperative execution budgets: bounded interpreter steps, bounded
    greedy rewrites, and an optional wall-clock deadline, threaded through
    the transform interpreter, the greedy driver and the pass pipeline so
    a runaway script or non-terminating rewrite set degrades into a clean,
    diagnosable failure instead of hanging the compiler.

    Like {!Profiler} and {!Action}, the budget is ambient: {!with_budget}
    installs one for a dynamic extent and the check entry points are no-ops
    (a single domain-local read) when none is installed. The ambient slot
    is domain-local but one budget instance may be installed on many
    domains at once — the parallel pass manager shares the pipeline's
    budget across its workers — so the counters are atomics and limits
    bind globally across domains. Exhaustion is sticky and shared — once a
    limit trips on any domain (first writer wins via compare-and-set),
    every subsequent check on every domain reports the same reason, so
    parallel workers drain fast instead of re-burning the budget.

    The deadline is only sampled every {!deadline_stride} checks (plus at
    forced checkpoints such as pass boundaries), keeping the hot-path cost
    to a few atomic operations. *)

type t = {
  b_max_steps : int option;  (** interpreter steps (transform ops run) *)
  b_max_rewrites : int option;  (** greedy rewrites/folds/dce *)
  b_deadline : float option;  (** absolute [Unix.gettimeofday] time *)
  b_steps : int Atomic.t;
  b_rewrites : int Atomic.t;
  b_tick : int Atomic.t;  (** deadline-sampling stride counter *)
  b_exhausted : string option Atomic.t;  (** sticky exhaustion reason *)
}

(* global statistics (Ir.Stats) *)
let stat_steps = Stats.counter ~component:"budget" "steps"
let stat_rewrites = Stats.counter ~component:"budget" "rewrites"

let stat_exhausted =
  Stats.counter ~component:"budget" "exhausted"
    ~desc:"runs that hit a step/rewrite/deadline limit"

let create ?max_steps ?max_rewrites ?deadline_ms () =
  {
    b_max_steps = max_steps;
    b_max_rewrites = max_rewrites;
    b_deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
        deadline_ms;
    b_steps = Atomic.make 0;
    b_rewrites = Atomic.make 0;
    b_tick = Atomic.make 0;
    b_exhausted = Atomic.make None;
  }

let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let active () = Domain.DLS.get current

(** Install [b] for the duration of [f] on this domain. Schedulers that
    fan work across domains install the {e same} instance per task so the
    limits stay global. *)
let with_budget b f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

let steps b = Atomic.get b.b_steps
let rewrites b = Atomic.get b.b_rewrites
let exhausted b = Atomic.get b.b_exhausted

(* first writer wins; everyone reports the winning reason *)
let mark_exhausted b reason =
  if Atomic.compare_and_set b.b_exhausted None (Some reason) then
    Stats.incr stat_exhausted;
  Atomic.get b.b_exhausted

let deadline_stride = 64

(** Sample the wall clock (every [deadline_stride]th call unless [force]). *)
let check_deadline_of b ~force =
  match b.b_deadline with
  | None -> None
  | Some dl ->
    let tick = Atomic.fetch_and_add b.b_tick 1 + 1 in
    if force || tick land (deadline_stride - 1) = 0 then
      let now = Unix.gettimeofday () in
      if now > dl then
        mark_exhausted b
          (Fmt.str "wall-clock deadline exceeded (%.0f ms over)"
             ((now -. dl) *. 1000.))
      else None
    else None

(** Charge one interpreter step; [Some reason] once the budget is gone. *)
let step () =
  match Domain.DLS.get current with
  | None -> None
  | Some b -> (
    let n = Atomic.fetch_and_add b.b_steps 1 + 1 in
    Stats.incr stat_steps;
    match Atomic.get b.b_exhausted with
    | Some r -> Some r
    | None -> (
      match b.b_max_steps with
      | Some m when n > m ->
        mark_exhausted b
          (Fmt.str "interpreter step budget of %d steps exhausted" m)
      | _ -> check_deadline_of b ~force:false))

(** Charge one greedy rewrite (pattern rewrite, fold or DCE). *)
let rewrite () =
  match Domain.DLS.get current with
  | None -> None
  | Some b -> (
    let n = Atomic.fetch_and_add b.b_rewrites 1 + 1 in
    Stats.incr stat_rewrites;
    match Atomic.get b.b_exhausted with
    | Some r -> Some r
    | None -> (
      match b.b_max_rewrites with
      | Some m when n > m ->
        mark_exhausted b
          (Fmt.str "greedy rewrite budget of %d rewrites exhausted" m)
      | _ -> check_deadline_of b ~force:false))

(** Deadline-only poll for hot loops that charge nothing (amortized). *)
let poll () =
  match Domain.DLS.get current with
  | None -> None
  | Some b -> (
    match Atomic.get b.b_exhausted with
    | Some r -> Some r
    | None -> check_deadline_of b ~force:false)

(** Forced check at coarse boundaries (between passes): always samples the
    clock. *)
let checkpoint () =
  match Domain.DLS.get current with
  | None -> None
  | Some b -> (
    match Atomic.get b.b_exhausted with
    | Some r -> Some r
    | None -> check_deadline_of b ~force:true)
