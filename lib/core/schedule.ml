(** Compiled transform schedules: the one way to apply a transform script
    to payload IR (Section 3).

    A schedule performs all script-level resolution once, at compile time,
    and lowers the entry into instruction arrays:

    - a registered transform op becomes [Dispatch], carrying the resolved
      {!Treg.def} and its consumed-operand list; [transform.apply_patterns]
      dispatches a specialized definition closing over the pattern set
      frozen once ({!Ir.Frozen_patterns});
    - [transform.sequence] (entry or nested, with or without
      [failures(suppress)]), [transform.alternatives] and
      [transform.foreach] become [Sequence], [Alternatives] and [Foreach],
      whose bodies are instruction arrays;
    - each [transform.named_sequence] reached by a [transform.include] is
      compiled once into the schedule's callee table, and [Include] refers
      to its entry by index, so recursive includes need no special case;
    - an op that cannot run — unknown, an unresolvable include, an include
      arity mismatch, a malformed region — becomes [Fail], which reports
      its diagnostic when execution reaches it;
    - every SSA value of the script and of its callees is numbered
      statically; the numbering addresses the state's slot arrays
      ({!State.create}).

    Every instruction charges one step, one [transform/ops_executed] tick,
    one unit of the ambient {!Ir.Budget} and one profiler span; registered
    ops all run through {!Dispatch.dispatch_registered} (pre/post-condition
    checks, consumption snapshot/commit, the exception barrier, tracing).
    A script that uses a consumed handle compiles like any other: the run
    fails where {!State.lookup_handle} finds the consumed slot. Static
    checking is {!Flowcheck}'s job ([of_script ~flow:true]).

    Schedules are cached content-addressed: {!of_script} keys the cache by
    the script's structural fingerprint ({!Ir.Fingerprint}), so re-applying
    a structurally identical script — even one re-parsed from text — reuses
    the compiled form. Cache traffic is visible as [schedule/cache_hits],
    [schedule/cache_misses] and [schedule/compile_ms] in {!Ir.Stats};
    compilation and application record [schedule.compile]/[schedule.apply]
    spans in {!Ir.Profiler}. *)

open Ir

let ( let* ) = Result.bind

(* global statistics (Ir.Stats), namespaced under component "schedule" *)
let stat_cache_hits = Stats.counter ~component:"schedule" "cache_hits"
let stat_cache_misses = Stats.counter ~component:"schedule" "cache_misses"
let stat_compiles = Stats.counter ~component:"schedule" "compiles"

let stat_evictions =
  Stats.counter ~component:"schedule" "cache_evictions"
    ~desc:"full cache drops after exceeding the capacity bound"

let stat_compile_ms = Stats.histogram ~component:"schedule" "compile_ms"

(* ------------------------------------------------------------------ *)
(* Compiled form                                                       *)
(* ------------------------------------------------------------------ *)

type instr =
  | Dispatch of {
      i_op : Ircore.op;
      i_def : Treg.def;  (** resolved at compile time *)
      i_consumed : int list;  (** precomputed consumed-operand indices *)
    }
  | Include of {
      i_op : Ircore.op;  (** the [transform.include] op *)
      i_callee : int;  (** index into the schedule's callee table *)
    }
  | Sequence of {
      i_op : Ircore.op;
      i_root : Ircore.value option;  (** bound to the payload root *)
      i_suppress : bool;  (** [failures(suppress)]: run as a transaction *)
      i_body : instr array;
    }
  | Alternatives of { i_op : Ircore.op; i_regions : instr array list }
  | Foreach of {
      i_op : Ircore.op;
      i_arg : Ircore.value option;  (** the iteration variable *)
      i_body : instr array option;  (** [None]: the region has no block *)
    }
  | Fail of { i_op : Ircore.op; i_msg : string }
      (** a definite error, raised when execution reaches the op *)

(** A [named_sequence] compiled once per schedule. *)
type callee = {
  cl_args : Ircore.value list;  (** bound to the include's operands *)
  mutable cl_body : instr array;
      (** set after the table entry exists, so recursive includes resolve *)
  cl_yield : Ircore.op option;  (** bound to the include's results *)
}

type compiled = {
  c_entry : Ircore.op;
  c_root : Ircore.value option;
      (** named_sequence entry argument, bound to the payload root *)
  c_body : instr array;
  c_callees : callee array;
  c_index : (int, int) Hashtbl.t;  (** script value id -> slot *)
  c_slot_count : int;
  c_instrs : int;  (** instructions, nested bodies and callees included *)
}

type t = {
  s_ctx : Context.t;
  s_fingerprint : Fingerprint.t;
  s_compiled : compiled option;  (** [None]: the script has no entry *)
  s_flow : Flowcheck.report option;
      (** annotation-flow report, when [of_script ~flow:true] was asked
          for; a failing report gates {!apply} before any payload is
          touched. Never stored in the schedule cache — the cache key is
          the script fingerprint alone, which predates the flow option —
          so it is recomputed fresh per [of_script] call. *)
}

let fingerprint s = s.s_fingerprint
let flow_report s = s.s_flow

let instr_count s =
  match s.s_compiled with Some c -> c.c_instrs | None -> 0

let slot_count s =
  match s.s_compiled with Some c -> c.c_slot_count | None -> 0

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* statically number every SSA value of the script and of its callees (an
   include may resolve outside [script] when it is nested in a larger
   module): block arguments and op results, in traversal order; the
   numbering is the slot index shared by every application of this
   schedule *)
let build_slot_index script callees =
  let index = Hashtbl.create 64 in
  let next = ref 0 in
  let number (v : Ircore.value) =
    if not (Hashtbl.mem index v.Ircore.v_id) then begin
      Hashtbl.replace index v.Ircore.v_id !next;
      incr next
    end
  in
  List.iter
    (fun root ->
      Ircore.walk
        (fun op ->
          Array.iter number op.Ircore.results;
          List.iter
            (fun r ->
              List.iter
                (fun b -> Array.iter number b.Ircore.b_args)
                (Ircore.region_blocks r))
            op.Ircore.regions)
        root)
    (script :: callees);
  (index, !next)

let script_root op =
  let rec up o =
    match Ircore.parent_op o with None -> o | Some p -> up p
  in
  up op

(* compile-time context: the script root includes resolve against, and the
   callee table built so far, in reverse index order *)
type cx = { root : Ircore.op; mutable callees : (Ircore.op * callee) list }

let fail op fmt = Fmt.kstr (fun m -> Fail { i_op = op; i_msg = m }) fmt

(* an include target is looked up in the script root's symbol table, then
   among all its named sequences *)
let resolve_include root op =
  match Ircore.attr op "target" with
  | Some (Attr.Symbol_ref (callee, _)) -> (
    match Symbol.lookup_in ~table:root callee with
    | Some t -> Ok (callee, t)
    | None -> (
      match
        Symbol.collect root ~f:(fun o ->
            o.Ircore.op_name = Ops.named_sequence_op
            && Symbol.symbol_name o = Some callee)
      with
      | t :: _ -> Ok (callee, t)
      | [] -> Error (Fmt.str "include: no named_sequence @%s" callee)))
  | _ -> Error "transform.include requires a target symbol"

(* [apply_patterns] with resolvable pattern names dispatches a definition
   closing over the set frozen once; unresolvable names are left to the
   registered implementation, which reports them *)
let specialize (op : Ircore.op) (def : Treg.def) =
  if op.Ircore.op_name <> Ops.apply_patterns_op then def
  else
    match Ops.collect_patterns op with
    | patterns, [] ->
      let frozen = Frozen_patterns.freeze patterns in
      {
        def with
        Treg.t_apply = (fun st op -> Ops.apply_frozen_patterns st op frozen);
      }
    | _ -> def

let suppresses op =
  match Ircore.attr op "failure_propagation" with
  | Some (Attr.String "suppress") -> true
  | _ -> false

(* a block runs up to its terminator *)
let rec compile_block cx (block : Ircore.block) : instr array =
  let rec go acc = function
    | [] -> acc
    | op :: _ when op.Ircore.op_name = Ops.yield_op -> acc
    | op :: rest -> (
      match compile_op cx op with
      | Some i -> go (i :: acc) rest
      | None -> go acc rest)
  in
  Array.of_list (List.rev (go [] (Ircore.block_ops block)))

and compile_region cx r =
  match Ircore.region_first_block r with
  | None -> [||]
  | Some b -> compile_block cx b

and compile_op cx (op : Ircore.op) : instr option =
  match op.Ircore.op_name with
  | "transform.named_sequence" ->
    (* a declaration: runs only through include *)
    None
  | "transform.sequence" -> Some (compile_sequence cx op)
  | "transform.alternatives" ->
    Some
      (Alternatives
         {
           i_op = op;
           i_regions = List.map (compile_region cx) op.Ircore.regions;
         })
  | "transform.foreach" ->
    Some
      (match op.Ircore.regions with
      | [ r ] -> (
        match Ircore.region_first_block r with
        | None -> Foreach { i_op = op; i_arg = None; i_body = None }
        | Some b ->
          let arg =
            match Ircore.block_args b with [ a ] -> Some a | _ -> None
          in
          Foreach
            { i_op = op; i_arg = arg; i_body = Some (compile_block cx b) })
      | _ -> fail op "transform.foreach must have one region")
  | "transform.include" -> Some (compile_include cx op)
  | name ->
    Some
      (match Treg.lookup name with
      | None -> fail op "unknown transform operation %s (not registered)" name
      | Some def ->
        Dispatch
          {
            i_op = op;
            i_def = specialize op def;
            i_consumed = Treg.consumes def op;
          })

and compile_sequence cx op =
  match op.Ircore.regions with
  | [ r ] -> (
    match Ircore.region_first_block r with
    | None ->
      Sequence { i_op = op; i_root = None; i_suppress = false; i_body = [||] }
    | Some b ->
      let root = match Ircore.block_args b with [ v ] -> Some v | _ -> None in
      Sequence
        {
          i_op = op;
          i_root = root;
          i_suppress = suppresses op;
          i_body = compile_block cx b;
        })
  | _ -> fail op "transform.sequence must have one region"

and compile_include cx op =
  match resolve_include cx.root op with
  | Error msg -> Fail { i_op = op; i_msg = msg }
  | Ok (name, target) -> (
    match target.Ircore.regions with
    | [ r ] -> (
      let arity = Option.map Ircore.block_args (Ircore.region_first_block r) in
      match arity with
      | Some args when List.length args <> Ircore.num_operands op ->
        fail op "include @%s: expected %d arguments, got %d" name
          (List.length args) (Ircore.num_operands op)
      | _ -> Include { i_op = op; i_callee = callee_index cx target r })
    | _ -> fail op "named_sequence must have one region")

(* the table index of [target], compiling its body on first use; the entry
   exists before its body compiles, so a recursive include finds it *)
and callee_index cx target r =
  let rec find = function
    | [] -> None
    | (op, _) :: rest ->
      if op == target then Some (List.length rest) else find rest
  in
  match find cx.callees with
  | Some i -> i
  | None ->
    let block = Ircore.region_first_block r in
    let callee =
      {
        cl_args = (match block with Some b -> Ircore.block_args b | None -> []);
        cl_body = [||];
        cl_yield =
          (match Option.bind block Ircore.block_last_op with
          | Some y when y.Ircore.op_name = Ops.yield_op -> Some y
          | _ -> None);
      }
    in
    let index = List.length cx.callees in
    cx.callees <- (target, callee) :: cx.callees;
    callee.cl_body <- compile_region cx r;
    index

let rec count_instrs body =
  Array.fold_left (fun n i -> n + 1 + nested_instrs i) 0 body

and nested_instrs = function
  | Sequence { i_body; _ } | Foreach { i_body = Some i_body; _ } ->
    count_instrs i_body
  | Alternatives { i_regions; _ } ->
    List.fold_left (fun n r -> n + count_instrs r) 0 i_regions
  | Dispatch _ | Include _ | Foreach _ | Fail _ -> 0

let compile_entry script entry =
  let cx = { root = script_root entry; callees = [] } in
  let root, body =
    match entry.Ircore.op_name with
    | "transform.sequence" -> (None, [| compile_sequence cx entry |])
    | _ -> (
      (* named_sequence entry: its first argument is the payload root *)
      match entry.Ircore.regions with
      | [ r ] -> (
        match Ircore.region_first_block r with
        | None -> (None, [||])
        | Some b ->
          ( (match Ircore.block_args b with v :: _ -> Some v | [] -> None),
            compile_block cx b ))
      | _ -> (None, [| fail entry "named_sequence must have one region" |]))
  in
  let callees = Array.of_list (List.rev_map snd cx.callees) in
  let index, slot_count =
    build_slot_index script (List.rev_map fst cx.callees)
  in
  {
    c_entry = entry;
    c_root = root;
    c_body = body;
    c_callees = callees;
    c_index = index;
    c_slot_count = slot_count;
    c_instrs =
      Array.fold_left
        (fun n c -> n + count_instrs c.cl_body)
        (count_instrs body) callees;
  }

let compile script =
  Option.map (compile_entry script) (Dispatch.find_entry script)

(* ------------------------------------------------------------------ *)
(* Content-addressed cache                                             *)
(* ------------------------------------------------------------------ *)

let cache : (Fingerprint.t, t) Hashtbl.t = Hashtbl.create 16

(* the cache is process-global and parallel fuzz campaigns compile from
   worker domains, so accesses are serialized (compilation itself runs
   outside the lock) *)
let cache_mu = Mutex.create ()

let with_cache f =
  Mutex.lock cache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mu) f

(** Bound on distinct cached schedules; exceeding it drops the whole cache
    (autotuning loops generate unbounded families of one-shot scripts). *)
let cache_capacity = 512

let clear_cache () = with_cache (fun () -> Hashtbl.reset cache)

let schedule_of ctx (script : Ircore.op) : t =
  let fp = Fingerprint.op script in
  match with_cache (fun () -> Hashtbl.find_opt cache fp) with
  | Some cached ->
    Stats.incr stat_cache_hits;
    (* structurally identical script: the cached schedule (compiled
       against its own copy of the script IR) applies unchanged *)
    { cached with s_ctx = ctx }
  | None ->
    Stats.incr stat_cache_misses;
    Stats.incr stat_compiles;
    let t0 = Unix.gettimeofday () in
    let compiled =
      Profiler.span ~cat:"schedule" "schedule.compile" @@ fun () ->
      compile script
    in
    Stats.observe stat_compile_ms ((Unix.gettimeofday () -. t0) *. 1e3);
    let s =
      {
        s_ctx = ctx;
        s_fingerprint = fp;
        s_compiled = compiled;
        s_flow = None;
      }
    in
    with_cache (fun () ->
        if Hashtbl.length cache >= cache_capacity then begin
          Stats.incr stat_evictions;
          Hashtbl.reset cache
        end;
        Hashtbl.replace cache fp s);
    s

(** Lower [script] to a schedule, consulting the content-addressed cache
    and compiling on miss. [~flow:true] additionally runs the static
    annotation-flow checker ({!Flowcheck.check}) over the script; a failing
    report makes {!apply} return its structured diagnostics as a definite
    error before any payload is touched. The flow report is attached fresh
    to the returned schedule and never enters the schedule cache. *)
let of_script ?(flow = false) ctx (script : Ircore.op) : t =
  let s = schedule_of ctx script in
  if not flow then s else { s with s_flow = Some (Flowcheck.check script) }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* per-instruction preamble: one step, one ops_executed tick, one budget
   unit, one profiler span *)
let with_preamble st (op : Ircore.op) f =
  st.State.steps <- st.State.steps + 1;
  Stats.incr Dispatch.stat_ops_executed;
  match Budget.step () with
  | Some reason ->
    Terror.silenceable ~loc:op.Ircore.op_loc
      "transform interpreter stopped: %s" reason
  | None -> Profiler.span ~cat:"transform" op.Ircore.op_name f

(* copy the handle or parameter association of [src] to [dst], and its
   annotations when they are checked (even when the lookup fails) *)
let bind st ~src ~dst =
  let bound =
    if State.is_param_typ (Ircore.value_typ src) then
      Result.map (State.set_params st dst) (State.lookup_params st src)
    else Result.map (State.set_handle st dst) (State.lookup_handle st src)
  in
  if st.State.config.State.check_annotations then
    State.copy_annots st ~src ~dst;
  bound

(* run [body] as a transaction: a silenceable failure rolls payload and
   handles back to the checkpoint, re-marks the undone actions reverted
   (the journal records what happened) and is counted and traced as
   suppressed by [construct]; a definite error aborts without rollback *)
let rec transaction callees st ~construct body =
  let acur = Action.cursor () in
  let ck = State.checkpoint st in
  match exec_body callees st body with
  | Ok () ->
    State.discard_checkpoint ck;
    Ok ()
  | Error (Terror.Silenceable d) as e ->
    State.rollback st ck;
    Action.revert_since acur;
    Stats.incr Dispatch.stat_suppressed;
    Action.trace (Trace.Suppressed { su_construct = construct; su_diag = d });
    e
  | Error (Terror.Definite _) as e ->
    State.discard_checkpoint ck;
    e

and exec_instr callees st = function
  | Dispatch { i_op; i_def; i_consumed } ->
    with_preamble st i_op @@ fun () ->
    Dispatch.dispatch_registered ~consumed:i_consumed st i_def i_op
  | Include { i_op; i_callee } ->
    with_preamble st i_op @@ fun () ->
    let callee = callees.(i_callee) in
    let rec bind_args i = function
      | [] -> Ok ()
      | arg :: rest ->
        let* () = bind st ~src:(Ircore.operand ~index:i i_op) ~dst:arg in
        bind_args (i + 1) rest
    in
    let* () = bind_args 0 callee.cl_args in
    let* () = exec_body callees st callee.cl_body in
    (* a yielded value that cannot be looked up leaves its result unbound *)
    Option.iter
      (fun y ->
        List.iteri
          (fun i yielded ->
            if i < Ircore.num_results i_op then
              ignore (bind st ~src:yielded ~dst:(Ircore.result ~index:i i_op)))
          (Ircore.operands y))
      callee.cl_yield;
    Ok ()
  | Sequence { i_op; i_root; i_suppress; i_body } -> (
    with_preamble st i_op @@ fun () ->
    Option.iter
      (fun root -> State.set_handle st root [ st.State.payload_root ])
      i_root;
    if not i_suppress then exec_body callees st i_body
    else
      match transaction callees st ~construct:Ops.sequence_op i_body with
      | Error (Terror.Silenceable d) ->
        (* failures(suppress): the rolled-back failure becomes a warning *)
        Context.emit_diag st.State.ctx
          (Diag.warning ~loc:(Diag.loc d)
             ~notes:
               (Diag.notes d
               @ [
                   Diag.note
                     "suppressed by failures(suppress); payload rolled back";
                 ])
             "%s" (Diag.message d));
        Ok ()
      | r -> r)
  | Alternatives { i_op; i_regions } -> (
    with_preamble st i_op @@ fun () ->
    (* regions in order until one succeeds; each starts from the payload
       the op found, since a failed region is rolled back *)
    let rec try_regions last = function
      | [] ->
        let notes =
          match last with
          | None -> []
          | Some d ->
            [ Diag.note "last alternative failed: %s" (Diag.message d) ]
        in
        Terror.silenceable_diag
          (Diag.error ~loc:i_op.Ircore.op_loc ~notes "all alternatives failed")
      | body :: rest -> (
        match transaction callees st ~construct:Ops.alternatives_op body with
        | Error (Terror.Silenceable d) -> try_regions (Some d) rest
        | r -> r)
    in
    match i_regions with [] -> Ok () | _ -> try_regions None i_regions)
  | Foreach { i_op; i_arg; i_body } -> (
    with_preamble st i_op @@ fun () ->
    (* iterate over a snapshot of the handle's payload list: the body may
       rewrite the handle (via the tracking listener) while we iterate *)
    let handle = Ircore.operand ~index:0 i_op in
    let* payload = State.lookup_handle st handle in
    match i_body with
    | None -> Ok ()
    | Some body ->
      let rec go i = function
        | [] -> Ok ()
        | p :: rest ->
          (* a previous iteration may have erased or invalidated this
             payload op; fail cleanly instead of transforming a dangling
             op *)
          if not (State.payload_alive st p) then
            Terror.silenceable ~loc:i_op.Ircore.op_loc
              "transform.foreach: payload op #%d (%s) was erased or \
               invalidated by a previous iteration"
              i p.Ircore.op_name
          else begin
            Option.iter
              (fun arg ->
                State.set_handle st arg [ p ];
                (* the iteration variable inherits the iterated handle's
                   properties afresh each round *)
                if st.State.config.State.check_annotations then
                  State.copy_annots st ~src:handle ~dst:arg)
              i_arg;
            let* () = exec_body callees st body in
            go (i + 1) rest
          end
      in
      go 0 payload)
  | Fail { i_op; i_msg } ->
    with_preamble st i_op @@ fun () -> Terror.definite "%s" i_msg

and exec_body callees st (body : instr array) =
  let n = Array.length body in
  let rec go i =
    if i >= n then Ok ()
    else
      let* () = exec_instr callees st body.(i) in
      go (i + 1)
  in
  go 0

let apply_compiled ~config ctx c ~payload =
  let st =
    State.create ~config ~index:c.c_index ~count:c.c_slot_count ctx payload
  in
  let result =
    (* forced budget check at entry: scripts too short for the amortized
       deadline sampling still honor an expired deadline *)
    match Budget.checkpoint () with
    | Some reason ->
      Terror.silenceable ~loc:c.c_entry.Ircore.op_loc
        "transform interpreter stopped: %s" reason
    | None ->
      Option.iter (fun root -> State.set_handle st root [ payload ]) c.c_root;
      exec_body c.c_callees st c.c_body
  in
  Result.map (fun () -> st.State.steps) result

(** Apply a schedule to [payload]: returns the number of executed
    transform steps, or the first silenceable/definite error. *)
let apply ?(config = State.default_config) (s : t) ~payload :
    (int, Terror.t) result =
  Profiler.span ~cat:"schedule" "schedule.apply" @@ fun () ->
  match (s.s_flow, s.s_compiled) with
  | Some r, _ when not (Flowcheck.ok r) ->
    (* flow gate: statically unsound schedules never touch the payload *)
    Terror.definite_diag (Flowcheck.to_diag r)
  | _, None ->
    Terror.definite
      "no transform entry point (sequence or @__transform_main) found"
  | _, Some c -> apply_compiled ~config s.s_ctx c ~payload

(** One-shot facade: compile (against the cache) and apply; [run
    ~flow:true] rejects statically unsound annotation flow before touching
    the payload. *)
let run ?flow ?config ctx ~script ~payload =
  apply ?config (of_script ?flow ctx script) ~payload
