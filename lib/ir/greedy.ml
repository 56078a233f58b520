(** Greedy pattern application driver: applies a set of rewrite patterns to
    a payload subtree until fixpoint, erasing dead pure ops and, given a
    [~materialize] hook, folding constants along the way — MLIR's
    [applyPatternsAndFoldGreedily]. With no patterns and no hook it is the
    [dce] pass.

    The engine is worklist-driven: the payload subtree is seeded once in
    post-order, and after every change the {!Rewriter} listener events push
    back only the affected ops — the users of replaced results, the defining
    ops of erased ops' operands (newly-dead candidates), and newly created
    ops — instead of re-walking the module. Patterns come pre-indexed by
    root op name ({!Frozen_patterns}), so visiting an op only touches its
    candidate patterns, and folded constants are uniqued per block through
    an {!Op_folder}. *)

(** Work budget: at most [max_iterations * (seeded op count)] op visits. *)
let max_iterations = 10

type stats = {
  mutable rewrites : int;
  mutable folds : int;
  mutable dce : int;
  mutable iterations : int;
  mutable match_attempts : int;
      (** pattern and fold candidates tried against visited ops *)
  mutable worklist_pushes : int;
      (** worklist insertions, including the initial seeding *)
}

let create_stats () =
  {
    rewrites = 0;
    folds = 0;
    dce = 0;
    iterations = 0;
    match_attempts = 0;
    worklist_pushes = 0;
  }

(** Attribute of a constant-like op, registered as [def], if any.
    Convention: constant ops carry their value in the ["value"]
    attribute. *)
let constant_value def (op : Ircore.op) =
  match def with
  | Some d when Context.def_has d Context.Constant_like -> Ircore.attr op "value"
  | _ -> None

(* the constant value of [v]'s defining op, if any *)
let operand_constant ctx (v : Ircore.value) =
  match v.Ircore.v_def with
  | Ircore.Op_result (d, _) ->
    constant_value (Context.lookup ctx d.Ircore.op_name) d
  | Ircore.Block_arg _ -> None

let operand_constants ctx (op : Ircore.op) =
  let operands = op.Ircore.operands in
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (operand_constant ctx operands.(i) :: acc)
  in
  go (Array.length operands - 1) []

(** Try to constant-fold [op], registered as [def], in place; returns true
    on success. Folded results are built by [materialize] through [folder],
    which uniques constants per block and hoists them to the block start. Ops
    that already are constants are uniqued through the same table (MLIR's
    [insertKnownConstant]): a duplicate of an earlier constant is replaced
    by it. *)
let try_fold ctx def rewriter materialize folder stats (op : Ircore.op) =
  match constant_value def op with
  | Some attr -> (
    stats.match_attempts <- stats.match_attempts + 1;
    match Op_folder.insert_known_constant folder op attr with
    | Some canonical ->
      Rewriter.replace_op rewriter op ~with_:[ canonical ];
      true
    | None -> false)
  | None -> (
  match def with
  | Some d -> (
    match Context.def_interface d Context.folder_key with
    | None -> false
    | Some { Context.fold } -> (
    stats.match_attempts <- stats.match_attempts + 1;
    match fold op (operand_constants ctx op) with
    | None -> false
    | Some result_attrs ->
      let result_types = List.map Ircore.value_typ (Ircore.results op) in
      let values =
        List.map2
          (fun attr t ->
            Op_folder.materialize folder rewriter materialize ~anchor:op attr t)
          result_attrs result_types
      in
      if List.for_all Option.is_some values then begin
        Rewriter.replace_op rewriter op ~with_:(List.map Option.get values);
        true
      end
      else false))
  | None -> false)

(* Is [op], registered as [def], pure, no terminator, and unused? *)
let is_trivially_dead def (op : Ircore.op) =
  match def with
  | None -> false
  | Some d ->
    Context.def_is_pure d op
    && (not (Context.def_has d Context.Terminator))
    && Array.for_all (fun r -> not (Ircore.has_uses r)) op.Ircore.results

(** The ops below [root] in post-order (defs before users within each
    block). The list is built back to front, so nothing is reversed. *)
let post_order root =
  let acc = ref [] in
  let rec op_back (op : Ircore.op) =
    acc := op :: !acc;
    List.iter region_back (List.rev op.Ircore.regions)
  and region_back r = blocks_back r.Ircore.r_last
  and blocks_back = function
    | None -> ()
    | Some b ->
      ops_back b.Ircore.b_last;
      blocks_back b.Ircore.b_prev
  and ops_back = function
    | None -> ()
    | Some op ->
      op_back op;
      ops_back op.Ircore.op_prev
  in
  List.iter region_back (List.rev root.Ircore.regions);
  !acc

(* global statistics (Ir.Stats): every driver invocation accumulates its
   per-run [stats] record here, so `otd_opt --stats` reports totals without
   the hot loop touching the registry *)
let stat_rewrites = Stats.counter ~component:"greedy" "rewrites"
let stat_folds = Stats.counter ~component:"greedy" "folds"
let stat_dce = Stats.counter ~component:"greedy" "dce"
let stat_match_attempts = Stats.counter ~component:"greedy" "match_attempts"
let stat_worklist_pushes = Stats.counter ~component:"greedy" "worklist_pushes"
let stat_invocations = Stats.counter ~component:"greedy" "invocations"
let stat_non_converged = Stats.counter ~component:"greedy" "non_converged"
let stat_iterations = Stats.histogram ~component:"greedy" "iterations"

let record_trace root stats converged =
  Stats.incr stat_invocations;
  Stats.add stat_rewrites stats.rewrites;
  Stats.add stat_folds stats.folds;
  Stats.add stat_dce stats.dce;
  Stats.add stat_match_attempts stats.match_attempts;
  Stats.add stat_worklist_pushes stats.worklist_pushes;
  Stats.observe stat_iterations (float_of_int stats.iterations);
  if not converged then Stats.incr stat_non_converged;
  (* a note in the ambient action context, built only when one is there *)
  if Action.enabled () then
    Action.trace
      (Trace.Greedy
         {
           gr_root = root.Ircore.op_name;
           gr_rewrites = stats.rewrites;
           gr_folds = stats.folds;
           gr_dce = stats.dce;
           gr_iterations = stats.iterations;
           gr_converged = converged;
           gr_match_attempts = stats.match_attempts;
           gr_pushes = stats.worklist_pushes;
         })

let stat_exceptions_contained =
  Stats.counter ~component:"greedy" "exceptions_contained"
    ~desc:"OCaml exceptions raised by patterns/folders, contained as diags"

(** Run a pattern behind an exception barrier: a raising pattern is reported
    as an error diagnostic (with the backtrace as notes) and treated as a
    non-match, so one broken pattern cannot unwind the whole driver. *)
let rewrite_contained ctx rewriter (p : Pattern.t) (op : Ircore.op) =
  match
    (* route the application through the action framework; with no ambient
       context this is the direct call (hot path: no closure for Action) *)
    match Action.active () with
    | None -> p.Pattern.rewrite rewriter op
    | Some a ->
      Action.run_on a ~tag:"pattern" ~desc:p.Pattern.name
        ~loc:op.Ircore.op_loc ~root:op ~skipped:false (fun () ->
          p.Pattern.rewrite rewriter op)
  with
  | applied -> applied
  | exception e when not (Diag.fatal_exn e) ->
    let bt = Printexc.get_raw_backtrace () in
    Stats.incr stat_exceptions_contained;
    Context.emit_diag ctx
      (Diag.of_exn ~loc:op.Ircore.op_loc
         ~context:(Fmt.str "pattern '%s'" p.Pattern.name)
         e bt);
    false

(** Same barrier around the fold/constant-uniquing path. *)
let fold_contained ctx def rewriter materialize folder stats (op : Ircore.op) =
  match
    match Action.active () with
    | None -> try_fold ctx def rewriter materialize folder stats op
    | Some a ->
      Action.run_on a ~tag:"fold" ~desc:op.Ircore.op_name
        ~loc:op.Ircore.op_loc ~root:op ~skipped:false (fun () ->
          try_fold ctx def rewriter materialize folder stats op)
  with
  | folded -> folded
  | exception e when not (Diag.fatal_exn e) ->
    let bt = Printexc.get_raw_backtrace () in
    Stats.incr stat_exceptions_contained;
    Context.emit_diag ctx
      (Diag.of_exn ~loc:op.Ircore.op_loc
         ~context:(Fmt.str "folder for '%s'" op.Ircore.op_name)
         e bt);
    false

(** Apply [patterns] greedily to the subtree rooted at [root] (the root op
    itself is not rewritten), erasing trivially dead ops. With
    [~materialize], registered {!Context.folder} hooks fold ops and their
    results are built as constants through it; constant ops are uniqued per
    block along the way. Returns [true] if the IR converged — the worklist
    drained — within the {!max_iterations} work budget; a [Diag] warning is
    emitted against [ctx] otherwise. *)
let apply ?materialize ?stats ?rewriter ctx ~patterns root =
  Profiler.span ~cat:"greedy"
    ~args:[ ("root", Profiler.Astr root.Ircore.op_name) ]
    "greedy.apply"
  @@ fun () ->
  let stats = match stats with Some s -> s | None -> create_stats () in
  let rewriter =
    match rewriter with Some rw -> rw | None -> Rewriter.create ()
  in
  let folder = Op_folder.create () in
  let erased = Util.Itbl.create 64 in
  let on_list = Util.Itbl.create 256 in
  let stack = ref [] in
  (* false until the first rewriter event; while clean, every popped op is
     still attached and in scope, so the pop-validity checks can be skipped *)
  let dirty = ref false in
  let push op =
    if
      (not (Util.Itbl.mem erased op.Ircore.op_id))
      && not (Util.Itbl.mem on_list op.Ircore.op_id)
    then begin
      Util.Itbl.replace on_list op.Ircore.op_id ();
      stack := op :: !stack;
      stats.worklist_pushes <- stats.worklist_pushes + 1
    end
  in
  let push_users (op : Ircore.op) =
    Array.iter
      (Ircore.iter_uses (fun u -> push u.Ircore.u_op))
      op.Ircore.results
  in
  let push_operand_defs (op : Ircore.op) =
    Array.iter
      (fun v ->
        match Ircore.defining_op v with Some d -> push d | None -> ())
      op.Ircore.operands
  in
  let listener =
    {
      Rewriter.on_inserted =
        (fun op ->
          dirty := true;
          push op);
      on_replaced =
        (fun op _ ->
          dirty := true;
          (* users now consume the replacement values; revisit them *)
          push_users op;
          (* operand defs may have just lost their last use *)
          push_operand_defs op;
          Util.Itbl.replace erased op.Ircore.op_id ());
      on_erased =
        (fun op ->
          dirty := true;
          push_operand_defs op;
          Util.Itbl.replace erased op.Ircore.op_id ());
      on_modified =
        (fun op ->
          dirty := true;
          push op;
          push_users op);
    }
  in
  Rewriter.add_listener rewriter listener;
  (* seed once, with the first post-order op at the head of the stack so
     defs pop before their users; the ops are distinct by construction, so
     the dedup checks of [push] are skipped *)
  let seed = post_order root in
  let seed_size = List.length seed in
  List.iter
    (fun (op : Ircore.op) -> Util.Itbl.replace on_list op.Ircore.op_id ())
    seed;
  stack := seed;
  stats.worklist_pushes <- stats.worklist_pushes + seed_size;
  let epoch = max 1 seed_size in
  let budget = max_iterations * epoch in
  let processed = ref 0 in
  let continue_ = ref true in
  (* ambient Ir.Budget: each rewrite/fold/dce is one unit of cooperative
     work; exhaustion stops the driver cleanly mid-worklist *)
  let budget_stop = ref None in
  let charge () =
    match Budget.rewrite () with
    | Some reason ->
      budget_stop := Some reason;
      continue_ := false
    | None -> ()
  in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | op :: rest ->
      stack := rest;
      Util.Itbl.remove on_list op.Ircore.op_id;
      (* validity: the erasure listener keeps [erased] authoritative, so a
         live entry only needs to still be attached (detached-but-live ops
         are skipped; they are re-pushed on insertion) *)
      if
        (not !dirty)
        || ((not (Util.Itbl.mem erased op.Ircore.op_id))
           && Option.is_some op.Ircore.op_parent)
      then begin
        incr processed;
        (* one counter sample per epoch of processed ops: the worklist
           depth over time, visible as a counter track in Perfetto *)
        if Profiler.profiling () && !processed mod epoch = 0 then
          Profiler.counter "greedy.worklist"
            (float_of_int (List.length !stack));
        let def = Context.lookup ctx op.Ircore.op_name in
        if is_trivially_dead def op then begin
          let erased_now =
            match Action.active () with
            | None ->
              Rewriter.erase_op rewriter op;
              true
            | Some a ->
              Action.run_on a ~tag:"dce" ~desc:op.Ircore.op_name
                ~loc:op.Ircore.op_loc ~root:op ~skipped:false (fun () ->
                  Rewriter.erase_op rewriter op;
                  true)
          in
          if erased_now then begin
            stats.dce <- stats.dce + 1;
            charge ()
          end
        end
        else if
          match materialize with
          | Some m -> fold_contained ctx def rewriter m folder stats op
          | None -> false
        then begin
          stats.folds <- stats.folds + 1;
          charge ()
        end
        else begin
          match Frozen_patterns.for_op patterns op with
          | [] -> ()
          | candidates ->
            (* snapshot the operands: a pattern may swap one in place,
               leaving the old def without uses (newly dead) *)
            let operands_before = Array.copy op.Ircore.operands in
            let rec try_patterns = function
              | [] -> ()
              | p :: rest ->
                stats.match_attempts <- stats.match_attempts + 1;
                Rewriter.set_ip rewriter (Builder.Before op);
                if rewrite_contained ctx rewriter p op then begin
                  stats.rewrites <- stats.rewrites + 1;
                  charge ();
                  Array.iter
                    (fun (v : Ircore.value) ->
                      match v.Ircore.v_def with
                      | Ircore.Op_result (d, _) -> push d
                      | Ircore.Block_arg _ -> ())
                    operands_before;
                  (* patterns may mutate in place without notifying; be
                     conservative and revisit the root and its users *)
                  if not (Util.Itbl.mem erased op.Ircore.op_id) then begin
                    push op;
                    push_users op
                  end
                end
                else try_patterns rest
            in
            try_patterns candidates
        end;
        if !processed >= budget then continue_ := false
        else if !continue_ then
          (* amortized wall-clock poll: catches deadline expiry even on
             match-only iterations that charge no rewrite *)
          match Budget.poll () with
          | Some reason ->
            budget_stop := Some reason;
            continue_ := false
          | None -> ()
      end
  done;
  Rewriter.remove_listener rewriter listener;
  let pending =
    List.filter
      (fun (op : Ircore.op) ->
        (not (Util.Itbl.mem erased op.Ircore.op_id))
        && Option.is_some (Ircore.op_parent op))
      !stack
  in
  let converged = pending = [] && !budget_stop = None in
  stats.iterations <- (max 1 ((!processed + epoch - 1) / epoch));
  (match !budget_stop with
  | Some reason ->
    Context.emit_diag ctx
      (Diag.warning ~loc:root.Ircore.op_loc
         "greedy rewrite on '%s' stopped early: %s" root.Ircore.op_name
         reason)
  | None ->
    if not converged then
      Context.emit_diag ctx
        (Diag.warning ~loc:root.Ircore.op_loc
           "greedy rewrite on '%s' failed to converge within %d iterations \
            (%d ops still pending)"
           root.Ircore.op_name max_iterations (List.length pending)));
  record_trace root stats converged;
  converged
