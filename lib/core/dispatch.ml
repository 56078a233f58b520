(** Dispatch of registered transform ops (Section 3): the one place where a
    transform op of a compiled {!Schedule} reaches its {!Treg}
    implementation, under the silenceable/definite error discipline.

    Around the implementation, a dispatch checks the op's annotation
    requires-clauses and, when enabled, its dynamic pre-/post-conditions
    (Section 3.3); snapshots and commits the consumption of its operands
    (Section 3.1); optionally re-verifies the payload; records a trace
    event; and runs the implementation behind an exception barrier that
    converts a raised OCaml exception into a definite error carrying the
    backtrace as notes. {!find_entry} selects the entry op of a script. *)

open Ir

let ( let* ) = Result.bind

(* global statistics (Ir.Stats) *)
let stat_ops_executed = Stats.counter ~component:"transform" "ops_executed"

let stat_suppressed =
  Stats.counter ~component:"transform" "silenceable_suppressed"

let stat_exceptions_contained =
  Stats.counter ~component:"transform" "exceptions_contained"
    ~desc:"OCaml exceptions converted to definite errors by the barrier"

(** Check the declared {!Annot} requires-clauses of [def] against the
    accumulated property sets of the operand handles. Failures are definite
    and tagged with {!Annot.requirement_tag} so the differential fuzz
    oracle can tell them from other definite error classes. *)
let check_requires st def op =
  let rec go = function
    | [] -> Ok ()
    | (idx, req) :: rest ->
      if idx >= Ircore.num_operands op then go rest
      else
        let ps = State.get_annots st (Ircore.operand ~index:idx op) in
        if Annot.satisfies_exact ps req then go rest
        else
          Terror.definite ~loc:op.Ircore.op_loc
            "%s of %s not met on operand #%d: needs %a, handle carries %a"
            Annot.requirement_tag def.Treg.t_name idx Annot.pp_req req
            Annot.pp_props ps
  in
  go (Treg.requires def op)

(** Record the declared ensures-clauses after a successful application:
    result targets get a fresh property set, operand targets are refined in
    place (union). *)
let record_ensures st def op =
  List.iter
    (fun (target, ps) ->
      match target with
      | Annot.On_result i ->
        if i < Ircore.num_results op then
          State.set_annots st (Ircore.result ~index:i op) ps
      | Annot.On_operand i ->
        if i < Ircore.num_operands op then
          State.add_annots st (Ircore.operand ~index:i op) ps)
    (Treg.ensures def op)

(** Dynamic post-condition check (Section 3.3): after the transform runs,

    - op kinds the pre-condition claims to consume must afterwards be
      covered by the post-condition (with IRDL constraint verification for
      constrained elements such as [memref.subview.constr]);
    - freshly introduced op kinds must be declared by the post-condition.

    This validates that the declared conditions are accurate specifications
    of the (natively implemented) transformation — "an additional tool to
    detect bugs in transformations". *)
let prepare_post_check st def op =
  let pre = Treg.pre def op and post = Treg.post def op in
  if pre = [] && post = [] then None
  else begin
    let before = Hashtbl.create 32 in
    Ircore.walk
      (fun o -> Hashtbl.replace before o.Ircore.op_name ())
      st.State.payload_root;
    (* the "left behind" half of the check only makes sense when the
       transform's scope is the whole payload (e.g. apply_registered_pass on
       the root); a loop transform targeting one loop says nothing about its
       siblings *)
    let whole_payload =
      Ircore.num_operands op = 0
      ||
      match State.lookup_handle st (Ircore.operand ~index:0 op) with
      | Ok [ p ] -> p == st.State.payload_root
      | _ -> false
    in
    Some
      (fun () ->
        let violation = ref None in
        Ircore.walk
          (fun o ->
            if !violation = None then begin
              let consumed_kind =
                whole_payload && Opset.matches_op_name pre o.Ircore.op_name
              in
              let fresh = not (Hashtbl.mem before o.Ircore.op_name) in
              if
                (consumed_kind || fresh)
                && not (Irdl.opset_covers_op ~ctx:st.State.ctx post o)
              then
                violation :=
                  Some
                    (Fmt.str
                       "op %s %s by transform %s is not covered by its \
                        declared post-condition %a"
                       o.Ircore.op_name
                       (if fresh then "introduced" else "left behind")
                       def.Treg.t_name Opset.pp post)
            end)
          st.State.payload_root;
        match !violation with
        | None -> Ok ()
        | Some msg -> Terror.definite "dynamic post-condition check: %s" msg)
  end

(** Dynamic pre-condition check (Section 3.3): the op kinds required by the
    transform must be present in the targeted payload. *)
let check_preconditions st def op =
  let pre = Treg.pre def op in
  if pre = [] || Ircore.num_operands op = 0 then Ok ()
  else
    match State.lookup_handle st (Ircore.operand ~index:0 op) with
    | Error _ -> Ok () (* reported by the transform itself *)
    | Ok payload ->
      (* one walk per targeted payload op *)
      let present =
        List.fold_left
          (fun acc p ->
            Opset.union acc
              (Opset.exact p.Ircore.op_name :: Opset.of_payload p))
          Opset.empty payload
      in
      if Opset.overlaps pre present then Ok ()
      else
        Terror.silenceable
          "dynamic pre-condition failed for %s: payload contains none of %a"
          def.Treg.t_name Opset.pp pre

let dispatch_impl ~tracing ~consumed st (def : Treg.def) (op : Ircore.op) :
    (unit, Terror.t) result =
  let name = def.Treg.t_name in
  (* annotation requires-clauses come first: using a handle that lacks a
     declared property is a script bug (definite), reported before any
     payload inspection so the static checker can mirror it exactly *)
  let* () =
    if st.State.config.State.check_annotations then check_requires st def op
    else Ok ()
  in
  (* the dynamic pre-condition check applies to *consuming* transforms
     only: they demand their payload kind to be present, whereas a
     non-consuming transform (pass application, hoisting) with nothing
     matching its pre-condition is a legal no-op — the phase-ordering
     variant of that situation is what the static checker's Vacuous
     diagnostic reports. *)
  let* () =
    if st.State.config.State.check_conditions && consumed <> [] then
      check_preconditions st def op
    else Ok ()
  in
  (* snapshot before the transform mutates the payload, commit only on
     success: a silenceable failure leaves both payload and handles
     usable, while success invalidates every handle that pointed into
     the consumed payload (Section 3.1) *)
  let snapshot =
    if consumed = [] then None
    else
      Some
        (State.snapshot_consumption st
           (List.map (fun idx -> Ircore.operand ~index:idx op) consumed))
  in
  let post_check =
    if st.State.config.State.check_conditions then
      prepare_post_check st def op
    else None
  in
  (* attach the failing transform op (and its source location, when the
     script came from text) to the error *)
  let with_context d =
    Diag.add_note
      (Diag.with_loc_if_unknown d op.Ircore.op_loc)
      (Diag.note "while applying %s" name)
  in
  let handle_sizes values =
    List.filter_map (fun v -> State.handle_size st v) values
  in
  let in_sizes = if tracing then handle_sizes (Ircore.operands op) else [] in
  let* () =
    (* exception barrier: a raised OCaml exception becomes a definite
       error with the backtrace attached, instead of unwinding through
       the driver with the IR in an arbitrary state *)
    match Treg.apply def st op with
    | Ok () -> Ok ()
    | Error e -> Error (Terror.map_diag with_context e)
    | exception e when not (Diag.fatal_exn e) ->
      let bt = Printexc.get_raw_backtrace () in
      Stats.incr stat_exceptions_contained;
      Terror.definite_diag
        (with_context
           (Diag.of_exn ~loc:op.Ircore.op_loc
              ~context:(Fmt.str "transform %s" name) e bt))
  in
  if tracing then
    Action.trace
      (Trace.Transform
         {
           tr_op = name;
           tr_loc = op.Ircore.op_loc;
           tr_in = in_sizes;
           tr_out = handle_sizes (Ircore.results op);
         });
  (match snapshot with
  | Some snap -> State.commit_consumption st ~by:name snap
  | None -> ());
  let* () =
    match post_check with
    | Some check -> check ()
    | None -> Ok ()
  in
  let* () =
    (* a pure transform never touches payload IR, so re-verifying after it
       cannot observe anything new — skip the O(payload) walk *)
    if st.State.config.State.expensive_checks && not (Treg.is_pure def) then
      match Verifier.verify st.State.ctx st.State.payload_root with
      | Ok () -> Ok ()
      | Error diags ->
        Terror.definite "payload verification failed after %s: %a" name
          (Fmt.list ~sep:Fmt.comma Diag.pp)
          diags
    else Ok ()
  in
  (* ensures-clauses are recorded only after full success, so a failed
     transform never claims its properties *)
  if st.State.config.State.check_annotations then record_ensures st def op;
  Ok ()

(** Dispatch one registered transform op, whose definition [def] and
    consumed-operand indices [consumed] the schedule resolved ahead of
    time: pre-condition check, consumption snapshot, exception barrier
    around the implementation, trace recording, consumption commit,
    post-condition check and (optional) payload re-verification. *)
let dispatch_registered ~consumed st (def : Treg.def) (op : Ircore.op) :
    (unit, Terror.t) result =
  (* the single action site for registered transforms, so a
     [--debug-counter=transform:…] bisection sees every transform op. A
     skipped dispatch succeeds vacuously (its result handles stay empty),
     like a transform whose pre-condition matched nothing. The action is
     anchored at the payload the op rewrites, so IR-change snapshots see
     its changes. *)
  match Action.active () with
  | None -> dispatch_impl ~tracing:false ~consumed st def op
  | Some a ->
    Action.run_on a ~tag:"transform" ~desc:def.Treg.t_name
      ~loc:op.Ircore.op_loc ~root:st.State.payload_root ~skipped:(Ok ())
      (fun () -> dispatch_impl ~tracing:true ~consumed st def op)

(** Find the main entry of a transform script: either the op itself if it is
    a sequence/named_sequence, or a [@__transform_main] named sequence
    inside a module. *)
let find_entry script =
  match script.Ircore.op_name with
  | "transform.sequence" | "transform.named_sequence" -> Some script
  | _ -> (
    match
      Symbol.collect script ~f:(fun o ->
          o.Ircore.op_name = Ops.named_sequence_op
          && (Symbol.symbol_name o = Some "__transform_main"
             || Symbol.symbol_name o = Some "transform_main"))
    with
    | t :: _ -> Some t
    | [] -> (
      match
        Symbol.collect script ~f:(fun o ->
            o.Ircore.op_name = Ops.sequence_op)
      with
      | t :: _ -> Some t
      | [] -> None))
