(** Static annotation-flow checking of transform scripts.

    A forward dataflow pass over script IR that propagates the abstract
    per-handle property intervals of {!Annot} ([must]/[may] sets) along the
    handle SSA values, checking every registered transform's declared
    [requires] clauses and applying its [ensures] clauses — without
    touching any payload. Because the static pass reads the very same
    {!Treg} clauses the dynamic checker enforces, the two can only
    disagree on control-flow approximation:

    - [transform.alternatives]: exactly one region commits dynamically;
      statically the region exits are must-joined (properties guaranteed
      on every region survive, properties on some region become [may]);
    - [transform.foreach]: the body runs zero or more times; statically a
      fixpoint over the loop body, joining with the loop entry, with the
      iteration variable re-bound from the iterated handle each round;
    - [transform.include]: callee bodies are isolated-from-above, so each
      (callee, argument-state) pair has a context-independent summary —
      computed once and cached content-addressed by {!Ir.Fingerprint} plus
      the argument signature, and reused across call sites;
    - [sequence failures(suppress)]: the body may be rolled back, so its
      exit is joined with its entry.

    The approximation only ever rejects more, never less: a statically
    accepted script cannot fail a dynamic annotation-requirement check.
    That containment is exactly what the [flow_diff] differential fuzz
    oracle probes.

    This is the one static analysis of transform scripts. Along the same
    control flow it tracks handle consumption (use after consume, the
    error of the paper's Figure 1a) and, when an [~initial] set is given
    (as [otd_check] does), threads the {!Conditions} op-kind set. Because
    a failing [alternatives] region is rolled back before the next one
    runs, a handle consumed in one region stays usable in the next. *)

open Ir

module Imap = Map.Make (Int)

(* global statistics (Ir.Stats) *)
let stat_checks = Stats.counter ~component:"flowcheck" "checks"

let stat_problems =
  Stats.counter ~component:"flowcheck" "problems"
    ~desc:"static annotation-flow problems reported"

let stat_summary_hits =
  Stats.counter ~component:"flowcheck" "summary_hits"
    ~desc:"include summaries reused from the cache"

let stat_summary_misses =
  Stats.counter ~component:"flowcheck" "summary_misses"

let stat_foreach_rounds =
  Stats.counter ~component:"flowcheck" "foreach_rounds"
    ~desc:"foreach fixpoint iterations across all checks"

(* ---------------- problems & report ---------------- *)

type problem =
  | Unsatisfied_requires of {
      p_op : Ircore.op;
      p_operand : int;
      p_req : Annot.req;
      p_info : Annot.info;
    }
  | Use_after_consume of { u_op : Ircore.op; u_operand : int; u_by : string }
  | Cond_problem of Conditions.problem
      (** op-kind layer ({!Conditions}), only with [~initial] *)
  | Non_convergent of { n_op : Ircore.op }
  | Unsupported of { s_op : Ircore.op; s_reason : string }

let pp_problem fmt = function
  | Unsatisfied_requires { p_op; p_operand; p_req; p_info } ->
    Fmt.pf fmt "%s of %s not met on operand #%d: needs %a, handle carries %a"
      Annot.requirement_tag p_op.Ircore.op_name p_operand Annot.pp_req p_req
      Annot.pp_info p_info
  | Use_after_consume { u_op; u_operand; u_by } ->
    Fmt.pf fmt
      "op '%s' uses operand #%d, but that handle was invalidated by a prior \
       '%s' (use after consume)"
      u_op.Ircore.op_name u_operand u_by
  | Cond_problem p -> Conditions.pp_problem fmt p
  | Non_convergent { n_op } ->
    Fmt.pf fmt
      "%s: property propagation did not converge within the iteration \
       budget"
      n_op.Ircore.op_name
  | Unsupported { s_op; s_reason } ->
    Fmt.pf fmt "cannot statically check %s: %s" s_op.Ircore.op_name s_reason

type report = {
  fr_problems : problem list;
  fr_final : Opset.t option;
      (** op-kind set at script exit, when [~initial] was given *)
}

let ok r = r.fr_problems = []

let pp_report fmt r =
  if r.fr_problems = [] then
    Fmt.pf fmt "  OK: script passes the static check@."
  else
    List.iter (fun p -> Fmt.pf fmt "  ERROR: %a@." pp_problem p) r.fr_problems

(** Structured rejection for the {!Schedule} gate: one definite-error diag
    carrying every problem as a note. *)
let to_diag r =
  let n = List.length r.fr_problems in
  Diag.error
    ~notes:(List.map (fun p -> Diag.note "%a" pp_problem p) r.fr_problems)
    "annotation-flow check rejected the script (%d problem%s)" n
    (if n = 1 then "" else "s")

(* ---------------- abstract environment ---------------- *)

(** Per-program-point state, functional so control-flow joins and
    fixpoints are plain value operations. *)
type env = {
  vals : Annot.info Imap.t;  (** handle value id -> property interval *)
  consumed : string Imap.t;  (** handle value id -> consuming transform *)
  present : Opset.t option;  (** op-kind layer, [None] when not tracked *)
}

let info_of env (v : Ircore.value) =
  Option.value ~default:Annot.empty_info (Imap.find_opt v.Ircore.v_id env.vals)

let opset_equal (a : Opset.t) (b : Opset.t) =
  List.sort_uniq compare a = List.sort_uniq compare b

let join_env a b =
  {
    vals = Imap.union (fun _ x y -> Some (Annot.join x y)) a.vals b.vals;
    consumed = Imap.union (fun _ x _ -> Some x) a.consumed b.consumed;
    present =
      (match (a.present, b.present) with
      | Some p, Some q -> Some (Opset.union p q)
      | _ -> None);
  }

let env_equal a b =
  Imap.equal Annot.info_equal a.vals b.vals
  && Imap.equal String.equal a.consumed b.consumed
  &&
  match (a.present, b.present) with
  | None, None -> true
  | Some p, Some q -> opset_equal p q
  | _ -> false

(* ---------------- analysis context ---------------- *)

type actx = {
  children : (int, Ircore.value list) Hashtbl.t;
      (** reverse alias map: consuming a handle also consumes the handles
          derived from it ({!aliasing_results}) *)
  mutable problems : problem list;
  track : bool;  (** op-kind layer on ([~initial] given) *)
  include_stack : int list ref;
      (** fingerprints of callees being analyzed, for recursion detection;
          shared with summary sub-analyses *)
}

let add_problem actx p = actx.problems <- p :: actx.problems

(** Transforms whose results alias (point into) their operand's payload:
    consuming the operand invalidates these results too. *)
let aliasing_results op =
  match op.Ircore.op_name with
  | "transform.match_op" | "transform.get_parent" | "transform.merge_handles" ->
    true
  | _ -> false

let add_child actx (parent : Ircore.value) (child : Ircore.value) =
  let cur =
    Option.value ~default:[] (Hashtbl.find_opt actx.children parent.Ircore.v_id)
  in
  if not (List.memq child cur) then
    Hashtbl.replace actx.children parent.Ircore.v_id (child :: cur)

let rec consume_value actx ~by consumed (v : Ircore.value) =
  if Imap.mem v.Ircore.v_id consumed then consumed
  else
    let consumed = Imap.add v.Ircore.v_id by consumed in
    List.fold_left
      (consume_value actx ~by)
      consumed
      (Option.value ~default:[] (Hashtbl.find_opt actx.children v.Ircore.v_id))

let check_uses actx env op =
  List.iteri
    (fun i v ->
      match Imap.find_opt v.Ircore.v_id env.consumed with
      | Some by ->
        add_problem actx (Use_after_consume { u_op = op; u_operand = i; u_by = by })
      | None -> ())
    (Ircore.operands op)

(** Fresh results default to the empty property set (what the dynamic side
    records for a transform with no ensures-clause). *)
let results_empty env op =
  {
    env with
    vals =
      List.fold_left
        (fun vs (r : Ircore.value) -> Imap.add r.Ircore.v_id Annot.empty_info vs)
        env.vals (Ircore.results op);
  }

(* ---------------- include summaries ---------------- *)

(** Context-independent effect of one (callee, argument-state) pair:
    callee bodies are isolated-from-above, so they can only consume and
    annotate their own block arguments. *)
type summary = {
  sm_consumed : (int * string) list;
      (** argument indices the callee consumes, with the consumer name —
          mirrored onto the caller's operands, exactly like the dynamic
          payload-overlap propagation in [State.commit_consumption] *)
  sm_results : Annot.info list;  (** per yielded value *)
  sm_problems : problem list;  (** problems inside the callee body *)
}

let summaries : (int * string, summary) Hashtbl.t = Hashtbl.create 16

(* process-global and reachable from parallel fuzz workers: serialize *)
let summaries_mu = Mutex.create ()

let with_summaries f =
  Mutex.lock summaries_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock summaries_mu) f

let summary_key ~fp arg_infos =
  (fp, String.concat ";" (List.map Annot.info_signature arg_infos))

(* ---------------- the dataflow pass ---------------- *)

let foreach_round_budget = 8

let rec flow_block actx env (b : Ircore.block) =
  let rec go env = function
    | [] -> env
    | (op : Ircore.op) :: rest ->
      if op.Ircore.op_name = Ops.yield_op then env
      else go (flow_op actx env op) rest
  in
  go env (Ircore.block_ops b)

and flow_op actx env (op : Ircore.op) =
  match op.Ircore.op_name with
  | "transform.sequence" -> flow_sequence actx env op
  | "transform.named_sequence" -> env (* declaration *)
  | "transform.include" -> flow_include actx env op
  | "transform.alternatives" -> flow_alternatives actx env op
  | "transform.foreach" -> flow_foreach actx env op
  | name -> (
    match Treg.lookup name with
    | Some def -> flow_registered actx env def op
    | None ->
      add_problem actx
        (Unsupported { s_op = op; s_reason = "not a registered transform" });
      results_empty env op)

and flow_sequence actx env op =
  match op.Ircore.regions with
  | [ r ] -> (
    match Ircore.region_first_block r with
    | None -> env
    | Some b ->
      let env_entry =
        match Ircore.block_args b with
        | [ root ] ->
          { env with vals = Imap.add root.Ircore.v_id Annot.empty_info env.vals }
        | _ -> env
      in
      let env_out = flow_block actx env_entry b in
      let suppress =
        match Ircore.attr op "failure_propagation" with
        | Some (Attr.String "suppress") -> true
        | _ -> false
      in
      (* failures(suppress) may roll the whole body back: its effects are
         only possible, not guaranteed *)
      if suppress then join_env env env_out else env_out)
  | _ ->
    add_problem actx
      (Unsupported { s_op = op; s_reason = "sequence must have one region" });
    env

and flow_alternatives actx env op =
  match op.Ircore.regions with
  | [] -> env
  | regions ->
    (* each region starts from the same entry state (dynamic rollback
       restores it); on normal continuation exactly one region has
       committed, so the exits are must-joined *)
    let outs =
      List.map
        (fun r ->
          match Ircore.region_first_block r with
          | None -> env
          | Some b -> flow_block actx env b)
        regions
    in
    (match outs with
    | [] -> env
    | e :: rest -> List.fold_left join_env e rest)

and flow_foreach actx env op =
  check_uses actx env op;
  match op.Ircore.regions with
  | [ r ] -> (
    match Ircore.region_first_block r with
    | None -> env
    | Some body ->
      let operand =
        if Ircore.num_operands op > 0 then Some (Ircore.operand ~index:0 op)
        else None
      in
      let arg =
        match Ircore.block_args body with [ a ] -> Some a | _ -> None
      in
      let rec iterate round env_in =
        Stats.incr stat_foreach_rounds;
        (* the body of a previous round may have consumed the iterated
           handle; re-binding from it is then a use after consume *)
        (match operand with
        | Some v -> (
          match Imap.find_opt v.Ircore.v_id env_in.consumed with
          | Some by ->
            add_problem actx
              (Use_after_consume { u_op = op; u_operand = 0; u_by = by })
          | None -> ())
        | None -> ());
        let env_bound =
          match arg with
          | None -> env_in
          | Some a ->
            let inherited =
              match operand with
              | Some v -> info_of env_in v
              | None -> Annot.empty_info
            in
            { env_in with vals = Imap.add a.Ircore.v_id inherited env_in.vals }
        in
        let env_out = flow_block actx env_bound body in
        let joined = join_env env_in env_out in
        if env_equal joined env_in then env_in
        else if round >= foreach_round_budget then begin
          add_problem actx (Non_convergent { n_op = op });
          joined
        end
        else iterate (round + 1) joined
      in
      iterate 1 env)
  | _ ->
    add_problem actx
      (Unsupported { s_op = op; s_reason = "foreach must have one region" });
    env

and flow_registered actx env (def : Treg.def) op =
  check_uses actx env op;
  (* requires-clauses against the abstract intervals (three-valued: a
     negated atom needs absence from [may], not mere absence from [must]) *)
  List.iter
    (fun (idx, req) ->
      if idx < Ircore.num_operands op then begin
        let info = info_of env (Ircore.operand ~index:idx op) in
        if not (Annot.satisfies info req) then
          add_problem actx
            (Unsatisfied_requires
               { p_op = op; p_operand = idx; p_req = req; p_info = info })
      end)
    (Treg.requires def op);
  (* op-kind layer: same transfer function as Conditions.check, but
     flow-sensitive through joins and fixpoints *)
  let present =
    match env.present with
    | None -> None
    | Some before ->
      let pre = Treg.pre def op and post = Treg.post def op in
      if pre = [] && post = [] then Some before
      else begin
        if Conditions.vacuous ~pre before then
          add_problem actx
            (Cond_problem
               (Conditions.Vacuous
                  { step = op.Ircore.op_name; pre; present = before }));
        Some (Conditions.transfer ~pre ~post before)
      end
  in
  if aliasing_results op then
    List.iter
      (fun r ->
        List.iter (fun parent -> add_child actx parent r) (Ircore.operands op))
      (Ircore.results op);
  let consumed =
    List.fold_left
      (fun c idx ->
        if idx < Ircore.num_operands op then
          consume_value actx ~by:op.Ircore.op_name c
            (Ircore.operand ~index:idx op)
        else c)
      env.consumed (Treg.consumes def op)
  in
  let vals =
    List.fold_left
      (fun vs (r : Ircore.value) -> Imap.add r.Ircore.v_id Annot.empty_info vs)
      env.vals (Ircore.results op)
  in
  let vals =
    List.fold_left
      (fun vs (target, ps) ->
        match target with
        | Annot.On_result i when i < Ircore.num_results op ->
          Imap.add (Ircore.result ~index:i op).Ircore.v_id (Annot.exact ps) vs
        | Annot.On_operand i when i < Ircore.num_operands op ->
          let v = Ircore.operand ~index:i op in
          let cur =
            Option.value ~default:Annot.empty_info
              (Imap.find_opt v.Ircore.v_id vs)
          in
          Imap.add v.Ircore.v_id
            {
              Annot.must = Annot.Props.union cur.Annot.must ps;
              may = Annot.Props.union cur.Annot.may ps;
            }
            vs
        | _ -> vs)
      vals (Treg.ensures def op)
  in
  { vals; consumed; present }

and flow_include actx env op =
  check_uses actx env op;
  let resolved =
    match Ircore.attr op "target" with
    | Some (Attr.Symbol_ref (s, _)) -> (
      let rec find_root (o : Ircore.op) =
        match Ircore.parent_op o with None -> o | Some p -> find_root p
      in
      let root = find_root op in
      match Symbol.lookup_in ~table:root s with
      | Some t -> Ok (s, t)
      | None -> (
        match
          Symbol.collect root ~f:(fun o ->
              o.Ircore.op_name = Ops.named_sequence_op
              && Symbol.symbol_name o = Some s)
        with
        | t :: _ -> Ok (s, t)
        | [] -> Error (Fmt.str "no named_sequence @%s" s)))
    | _ -> Error "include without a target symbol"
  in
  match resolved with
  | Error reason ->
    add_problem actx (Unsupported { s_op = op; s_reason = reason });
    results_empty env op
  | Ok (callee, target) -> (
    match target.Ircore.regions with
    | [ r ] -> (
      match Ircore.region_first_block r with
      | None -> results_empty env op
      | Some body ->
        let args = Ircore.block_args body in
        if List.length args <> Ircore.num_operands op then begin
          add_problem actx
            (Unsupported
               {
                 s_op = op;
                 s_reason =
                   Fmt.str "include @%s: expected %d arguments, got %d" callee
                     (List.length args) (Ircore.num_operands op);
               });
          results_empty env op
        end
        else
          let fp = Fingerprint.op target in
          if List.mem fp !(actx.include_stack) then begin
            add_problem actx
              (Unsupported
                 {
                   s_op = op;
                   s_reason = Fmt.str "recursive include of @%s" callee;
                 });
            results_empty env op
          end
          else
            let arg_infos = List.map (info_of env) (Ircore.operands op) in
            if actx.track then
              (* the op-kind set is one global, path-dependent state — not
                 compositional per callee — so analyze the body inline *)
              flow_include_inline actx env op ~body ~args ~arg_infos ~fp
            else
              flow_include_summary actx env op ~body ~args ~arg_infos ~fp)
    | _ ->
      add_problem actx
        (Unsupported
           { s_op = op; s_reason = "named_sequence must have one region" });
      results_empty env op)

and callee_yields body =
  match Ircore.block_last_op body with
  | Some y when y.Ircore.op_name = Ops.yield_op -> Ircore.operands y
  | _ -> []

and bind_results env op result_infos =
  let vals = ref env.vals in
  List.iteri
    (fun i (r : Ircore.value) ->
      let info =
        Option.value ~default:Annot.empty_info (List.nth_opt result_infos i)
      in
      vals := Imap.add r.Ircore.v_id info !vals)
    (Ircore.results op);
  { env with vals = !vals }

and flow_include_inline actx env op ~body ~args ~arg_infos ~fp =
  actx.include_stack := fp :: !(actx.include_stack);
  let vals =
    List.fold_left2
      (fun vs (a : Ircore.value) info -> Imap.add a.Ircore.v_id info vs)
      env.vals args arg_infos
  in
  let env_out = flow_block actx { env with vals } body in
  actx.include_stack := List.tl !(actx.include_stack);
  (* a consumed callee argument consumes the caller operand too: the two
     share payload, so the dynamic commit marks both *)
  let consumed =
    List.fold_left2
      (fun c (a : Ircore.value) (operand : Ircore.value) ->
        match Imap.find_opt a.Ircore.v_id env_out.consumed with
        | Some by when not (Imap.mem operand.Ircore.v_id c) ->
          consume_value actx ~by c operand
        | _ -> c)
      env_out.consumed args (Ircore.operands op)
  in
  let result_infos = List.map (info_of env_out) (callee_yields body) in
  bind_results { env_out with consumed } op result_infos

and flow_include_summary actx env op ~body ~args ~arg_infos ~fp =
  let key = summary_key ~fp arg_infos in
  let summary =
    match with_summaries (fun () -> Hashtbl.find_opt summaries key) with
    | Some s ->
      Stats.incr stat_summary_hits;
      s
    | None ->
      Stats.incr stat_summary_misses;
      actx.include_stack := fp :: !(actx.include_stack);
      (* fresh, context-free sub-analysis: the callee is isolated from
         above, so its only inputs are the argument intervals *)
      let sub =
        {
          children = Hashtbl.create 16;
          problems = [];
          track = false;
          include_stack = actx.include_stack;
        }
      in
      let vals0 =
        List.fold_left2
          (fun vs (a : Ircore.value) info -> Imap.add a.Ircore.v_id info vs)
          Imap.empty args arg_infos
      in
      let env_out =
        flow_block sub { vals = vals0; consumed = Imap.empty; present = None }
          body
      in
      actx.include_stack := List.tl !(actx.include_stack);
      let sm_consumed =
        List.mapi
          (fun i (a : Ircore.value) ->
            (i, Imap.find_opt a.Ircore.v_id env_out.consumed))
          args
        |> List.filter_map (fun (i, c) -> Option.map (fun by -> (i, by)) c)
      in
      let sm_results = List.map (info_of env_out) (callee_yields body) in
      let s = { sm_consumed; sm_results; sm_problems = sub.problems } in
      with_summaries (fun () ->
          if Hashtbl.length summaries > 512 then Hashtbl.reset summaries;
          Hashtbl.replace summaries key s);
      s
  in
  actx.problems <- summary.sm_problems @ actx.problems;
  let consumed =
    List.fold_left
      (fun c (i, by) ->
        if i < Ircore.num_operands op then
          consume_value actx ~by c (Ircore.operand ~index:i op)
        else c)
      env.consumed summary.sm_consumed
  in
  bind_results { env with consumed } op summary.sm_results

(* ---------------- entry point ---------------- *)

let problem_key = function
  | Unsatisfied_requires { p_op; p_operand; _ } ->
    Fmt.str "req:%d:%d" p_op.Ircore.op_id p_operand
  | Use_after_consume { u_op; u_operand; _ } ->
    Fmt.str "uac:%d:%d" u_op.Ircore.op_id u_operand
  | Cond_problem p -> Fmt.str "cond:%a" Conditions.pp_problem p
  | Non_convergent { n_op } -> Fmt.str "conv:%d" n_op.Ircore.op_id
  | Unsupported { s_op; s_reason } ->
    Fmt.str "unsup:%d:%s" s_op.Ircore.op_id s_reason

let dedup_problems ps =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let k = problem_key p in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    ps

(** Check [script]. With [~initial] (and optionally [~final]) the op-kind
    layer of {!Conditions} is threaded through the same control flow;
    without it, only handle annotations and consumption are tracked and
    include summaries are cached across call sites and checks. *)
let check ?initial ?final (script : Ircore.op) : report =
  Profiler.span ~cat:"flowcheck" "flowcheck.check" @@ fun () ->
  Stats.incr stat_checks;
  let actx =
    {
      children = Hashtbl.create 16;
      problems = [];
      track = initial <> None;
      include_stack = ref [];
    }
  in
  let env0 = { vals = Imap.empty; consumed = Imap.empty; present = initial } in
  let env_final =
    match Dispatch.find_entry script with
    | None ->
      add_problem actx
        (Unsupported
           {
             s_op = script;
             s_reason =
               "no transform entry point (sequence or @__transform_main)";
           });
      env0
    | Some entry -> (
      match entry.Ircore.op_name with
      | "transform.sequence" -> flow_sequence actx env0 entry
      | _ -> (
        (* main named_sequence: its arguments are root handles with no
           established properties *)
        match entry.Ircore.regions with
        | [ r ] -> (
          match Ircore.region_first_block r with
          | None -> env0
          | Some b ->
            let vals =
              List.fold_left
                (fun vs (a : Ircore.value) ->
                  Imap.add a.Ircore.v_id Annot.empty_info vs)
                env0.vals (Ircore.block_args b)
            in
            flow_block actx { env0 with vals } b)
        | _ ->
          add_problem actx
            (Unsupported
               {
                 s_op = entry;
                 s_reason = "named_sequence must have one region";
               });
          env0))
  in
  (match (env_final.present, final) with
  | Some present, Some allowed ->
    let remaining = Opset.leftover ~allowed present in
    if remaining <> [] then
      add_problem actx (Cond_problem (Conditions.Leftover { remaining; allowed }))
  | _ -> ());
  let fr_problems = dedup_problems (List.rev actx.problems) in
  Stats.add stat_problems (List.length fr_problems);
  { fr_problems; fr_final = env_final.present }
