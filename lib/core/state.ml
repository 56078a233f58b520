(** Transform-interpreter state: the association table between transform
    handles (SSA values of the transform IR) and payload operations, the
    parameter table, and the consumed/invalidated bookkeeping of Section 3.1.

    The state owns a {!Ir.Rewriter} whose listener keeps handles up to date
    when payload ops are replaced or erased by transformations ("operation
    replaced"/"erased" events). *)

open Ir

type config = {
  expensive_checks : bool;
      (** verify the payload after every transform step *)
  check_conditions : bool;
      (** dynamically check declared pre-/post-conditions (Section 3.3) *)
  check_annotations : bool;
      (** dynamically check declared annotation requires/ensures clauses
          ({!Annot}); a violated [requires] is a definite error *)
}

let default_config =
  {
    expensive_checks = false;
    check_conditions = false;
    check_annotations = false;
  }

type t = {
  ctx : Context.t;
  payload_root : Ircore.op;
  config : config;
  index : (int, int) Hashtbl.t;
      (** transform value id -> slot; every SSA value of the script is
          numbered statically by the schedule, which owns the index *)
  handles : Ircore.op list option array;  (** slot -> payload ops *)
  params : Attr.t list option array;  (** slot -> parameter attrs *)
  consumed : string option array;  (** slot -> consuming transform *)
  invalidated_payload : (int, string) Hashtbl.t;
      (** payload op id -> transform that invalidated it *)
  annots : (int, Annot.Props.t) Hashtbl.t;
      (** value id -> accumulated payload-property annotations; keyed by
          value id, not slot — annotation checking is an opt-in debugging
          mode, not a hot path *)
  rewriter : Rewriter.t;
  mutable steps : int;  (** executed transform ops, for stats *)
}

let is_param_typ = function
  | Typ.Opaque ("transform", "param") -> true
  | _ -> false

(** A fresh state over [payload_root] with [count] empty slots addressed
    through [index]. *)
let create ?(config = default_config) ~index ~count ctx payload_root =
  let t =
    {
      ctx;
      payload_root;
      config;
      index;
      handles = Array.make count None;
      params = Array.make count None;
      consumed = Array.make count None;
      invalidated_payload = Hashtbl.create 64;
      annots = Hashtbl.create 16;
      rewriter = Rewriter.create ();
      steps = 0;
    }
  in
  (* rewrite every live handle entry through [f]; [None] keeps the entry
     unchanged *)
  let remap_handles f =
    Array.iteri
      (fun i entry ->
        match entry with
        | Some ops -> (
          match f ops with
          | Some ops' -> t.handles.(i) <- Some ops'
          | None -> ())
        | None -> ())
      t.handles
  in
  (* track payload mutations: update handles on replace, drop on erase *)
  Rewriter.add_listener t.rewriter
    {
      Rewriter.on_inserted = ignore;
      (* in-place modification keeps the op, so handles stay valid *)
      on_modified = ignore;
      on_replaced =
        (fun op with_ ->
          let replacement_ops =
            List.filter_map Ircore.defining_op with_
            |> List.fold_left
                 (fun acc o -> if List.memq o acc then acc else acc @ [ o ])
                 []
          in
          remap_handles (fun ops ->
              if List.memq op ops then
                Some
                  (List.concat_map
                     (fun o -> if o == op then replacement_ops else [ o ])
                     ops)
              else None));
      on_erased =
        (fun op ->
          remap_handles (fun ops ->
              if List.memq op ops then
                Some (List.filter (fun o -> not (o == op)) ops)
              else None));
    };
  t

(* ------------------------------------------------------------------ *)
(* Handle access                                                       *)
(* ------------------------------------------------------------------ *)

(* global statistics (Ir.Stats): every handle association records how much
   payload it carries, so `--stats` shows the interpreter's payload volume *)
let stat_handles_set = Stats.counter ~component:"transform" "handles_set"

let stat_handle_payloads =
  Stats.counter ~component:"transform" "handle_payloads"

(* the slot of a value the script writes; every script value is numbered,
   so a value outside the index is a caller bug *)
let slot t (v : Ircore.value) =
  match Hashtbl.find_opt t.index v.Ircore.v_id with
  | Some i -> i
  | None ->
    invalid_arg
      (Fmt.str "State: transform value %d has no slot" v.Ircore.v_id)

let set_handle t v ops =
  Stats.incr stat_handles_set;
  Stats.add stat_handle_payloads (List.length ops);
  t.handles.(slot t v) <- Some ops

let set_params t v attrs = t.params.(slot t v) <- Some attrs

(* raw reads of one slot array; a value outside the index reads as unset.
   The public lookups layer the consumption and invalidation checks on
   top *)
let read t store (v : Ircore.value) =
  match Hashtbl.find_opt t.index v.Ircore.v_id with
  | Some i -> store.(i)
  | None -> None

(* annotation accessors: a missing entry means the empty property set *)
let get_annots t (v : Ircore.value) =
  match Hashtbl.find_opt t.annots v.Ircore.v_id with
  | Some ps -> ps
  | None -> Annot.Props.empty

let set_annots t (v : Ircore.value) ps =
  Hashtbl.replace t.annots v.Ircore.v_id ps

let add_annots t (v : Ircore.value) ps =
  Hashtbl.replace t.annots v.Ircore.v_id (Annot.Props.union (get_annots t v) ps)

(** Copy the accumulated annotations of [src] onto [dst] (include
    argument/yield binding, foreach iteration binding). *)
let copy_annots t ~src ~dst = set_annots t dst (get_annots t src)

(** Payload ops of a handle; checks consumption. *)
let lookup_handle t (v : Ircore.value) : (Ircore.op list, Terror.t) result =
  match read t t.consumed v with
  | Some by ->
    Terror.definite
      "use of a handle invalidated by transform '%s' (handle consumed)" by
  | None -> (
    match read t t.handles v with
    | None -> Terror.definite "use of an undefined handle"
    | Some ops -> (
      (* a handle is also dead if any of its payload ops were invalidated
         indirectly (nested in a consumed payload op) *)
      match
        List.find_map
          (fun op ->
            Option.map
              (fun by -> by)
              (Hashtbl.find_opt t.invalidated_payload op.Ircore.op_id))
          ops
      with
      | Some by ->
        Terror.definite
          "use of a handle whose payload was invalidated by transform '%s'" by
      | None -> Ok ops))

(** Non-failing peek at the payload size of a handle or parameter value,
    for tracing: does not check consumption and never errors. *)
let handle_size t v =
  match read t t.handles v with
  | Some ops -> Some (List.length ops)
  | None -> (
    match read t t.params v with
    | Some attrs -> Some (List.length attrs)
    | None -> None)

let lookup_params t (v : Ircore.value) : (Attr.t list, Terror.t) result =
  match read t t.params v with
  | None -> Terror.definite "use of an undefined parameter"
  | Some attrs -> Ok attrs

(** A single integer parameter. *)
let lookup_int_param t v =
  match lookup_params t v with
  | Error e -> Error e
  | Ok [ Attr.Int (n, _) ] -> Ok n
  | Ok attrs ->
    Terror.definite "expected a single integer parameter, got %d attrs"
      (List.length attrs)

(** Pre-consumption snapshot: taken *before* a consuming transform runs, so
    that aliasing can be resolved even though the transform (via the tracking
    listener) rewrites handle contents while it executes. Records the ids of
    all payload ops nested under the consumed handles, plus a copy of the
    current handle slots. *)
type consume_snapshot = {
  cs_subtree : (int, unit) Hashtbl.t;  (** payload op ids to be invalidated *)
  cs_handles : Ircore.op list option array;
  cs_operands : int list;  (** slots of the consumed operands *)
}

let snapshot_consumption t (operands : Ircore.value list) =
  let cs_subtree = Hashtbl.create 32 in
  let cs_operands =
    List.filter_map (fun v -> Hashtbl.find_opt t.index v.Ircore.v_id) operands
  in
  List.iter
    (fun i ->
      match t.handles.(i) with
      | Some ops ->
        List.iter
          (fun op ->
            Ircore.walk
              (fun nested -> Hashtbl.replace cs_subtree nested.Ircore.op_id ())
              op)
          ops
      | None -> ())
    cs_operands;
  { cs_subtree; cs_handles = Array.copy t.handles; cs_operands }

(** Commit a consumption (invalidation, Section 3.1): the consumed handles
    and every *pre-existing* handle pointing into the same payload subtrees
    become invalid; handles produced by the consuming transform itself are
    fresh and stay valid. *)
let commit_consumption t ~by (snap : consume_snapshot) =
  List.iter (fun i -> t.consumed.(i) <- Some by) snap.cs_operands;
  Hashtbl.iter (fun oid () -> Hashtbl.replace t.invalidated_payload oid by)
    snap.cs_subtree;
  Array.iteri
    (fun i entry ->
      match entry with
      | Some ops
        when (not (List.mem i snap.cs_operands))
             && List.exists
                  (fun o -> Hashtbl.mem snap.cs_subtree o.Ircore.op_id)
                  ops ->
        t.consumed.(i) <- Some by
      | _ -> ())
    snap.cs_handles

(** Is [op] still a live payload op: attached under the payload root and not
    invalidated by a consuming transform? Used by iteration constructs
    ([transform.foreach]) to detect payload that died mid-iteration. *)
let payload_alive t (op : Ircore.op) =
  (op == t.payload_root || Ircore.is_ancestor ~ancestor:t.payload_root op)
  && not (Hashtbl.mem t.invalidated_payload op.Ircore.op_id)

(* ------------------------------------------------------------------ *)
(* Transactional checkpoints                                           *)
(* ------------------------------------------------------------------ *)

let stat_rollbacks =
  Stats.counter ~component:"transform" "rollbacks"
    ~desc:"payload+state rollbacks after contained failures"

(** Full interpreter-state snapshot: the payload (via {!Ir.Checkpoint}) plus
    copies of the slot arrays and of every side table keyed by op/value
    identity. {!rollback} restores the payload and refills the slots and
    tables, remapping payload references through the checkpoint's op
    correspondence. *)
type checkpoint = {
  ck_payload : Checkpoint.t;
  ck_handles : Ircore.op list option array;
  ck_params : Attr.t list option array;
  ck_consumed : string option array;
  ck_invalidated : (int, string) Hashtbl.t;
  ck_annots : (int, Annot.Props.t) Hashtbl.t;
}

let checkpoint t =
  {
    ck_payload = Checkpoint.take t.payload_root;
    ck_handles = Array.copy t.handles;
    ck_params = Array.copy t.params;
    ck_consumed = Array.copy t.consumed;
    ck_invalidated = Hashtbl.copy t.invalidated_payload;
    ck_annots = Hashtbl.copy t.annots;
  }

(** Restore payload and state to their state at {!checkpoint}. Handle
    entries are remapped to the restored copies of their payload ops;
    payload ops with no checkpoint-time image (ops created after the
    snapshot) are dropped. Single-shot, like the underlying
    {!Ir.Checkpoint}. *)
let rollback t (ck : checkpoint) =
  Checkpoint.restore ck.ck_payload;
  let remap_ops = List.filter_map (Checkpoint.remap_op ck.ck_payload) in
  Array.iteri
    (fun i entry -> t.handles.(i) <- Option.map remap_ops entry)
    ck.ck_handles;
  Array.blit ck.ck_params 0 t.params 0 (Array.length t.params);
  Array.blit ck.ck_consumed 0 t.consumed 0 (Array.length t.consumed);
  Hashtbl.reset t.annots;
  Hashtbl.iter (Hashtbl.replace t.annots) ck.ck_annots;
  Hashtbl.reset t.invalidated_payload;
  Hashtbl.iter
    (fun oid by ->
      let oid' =
        match Checkpoint.remap_op_id ck.ck_payload oid with
        | Some op -> op.Ircore.op_id
        | None -> oid
      in
      Hashtbl.replace t.invalidated_payload oid' by)
    ck.ck_invalidated;
  Stats.incr stat_rollbacks

(** Release a checkpoint whose transaction committed. *)
let discard_checkpoint (ck : checkpoint) = Checkpoint.discard ck.ck_payload

let rewriter t = t.rewriter

(** Drop payload ops that are no longer attached under the payload root from
    every handle. Used after running black-box passes (which own their own
    rewriters, so replace/erase events are not observable). *)
let prune t =
  (* climb to the root: an op nested inside an erased subtree still has a
     parent block (the detached region), so [op_parent <> None] is not
     enough to prove it is live *)
  let alive op = Ircore.is_ancestor ~ancestor:t.payload_root op in
  Array.iteri
    (fun i entry ->
      match entry with
      | Some ops ->
        let ops' = List.filter alive ops in
        if List.length ops' <> List.length ops then t.handles.(i) <- Some ops'
      | None -> ())
    t.handles
