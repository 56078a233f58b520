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

(** Flat slot storage installed by compiled schedules ({!Schedule}): every
    SSA value of the transform script is numbered statically at compile
    time, so on the hot path the handle/param/consumed side tables become a
    single int→int probe (the slot index) plus array reads, instead of
    separate hashtable probes per table. Values outside the index fall back
    to the hashtables. *)
type slots = {
  sl_index : (int, int) Hashtbl.t;
      (** transform value id -> slot; owned by the schedule, read-only here *)
  sl_handles : Ircore.op list option array;
  sl_params : Attr.t list option array;
  sl_values : Ircore.value list option array;
  sl_consumed : string option array;
}

type t = {
  ctx : Context.t;
  payload_root : Ircore.op;
  config : config;
  handles : (int, Ircore.op list) Hashtbl.t;  (** value id -> payload ops *)
  params : (int, Attr.t list) Hashtbl.t;  (** value id -> parameter attrs *)
  values : (int, Ircore.value list) Hashtbl.t;
      (** value id -> payload values (for value handles) *)
  consumed : (int, string) Hashtbl.t;  (** value id -> consuming transform *)
  invalidated_payload : (int, string) Hashtbl.t;
      (** payload op id -> transform that invalidated it *)
  annots : (int, Annot.Props.t) Hashtbl.t;
      (** value id -> accumulated payload-property annotations; no slot
          path — annotation checking is an opt-in debugging mode, not a
          hot path *)
  rewriter : Rewriter.t;
  mutable slots : slots option;  (** present only under a compiled schedule *)
  mutable steps : int;  (** executed transform ops, for stats *)
}

(** Install statically numbered slot storage ([count] slots addressed through
    [index]). Called once per application by the compiled-schedule executor;
    the arrays are fresh per state, the index is shared with the schedule. *)
let install_slots t ~index ~count =
  t.slots <-
    Some
      {
        sl_index = index;
        sl_handles = Array.make count None;
        sl_params = Array.make count None;
        sl_values = Array.make count None;
        sl_consumed = Array.make count None;
      }

let slot_of t vid =
  match t.slots with
  | None -> None
  | Some s -> (
    match Hashtbl.find_opt s.sl_index vid with
    | Some i -> Some (s, i)
    | None -> None)

let is_handle_typ = function
  | Typ.Opaque ("transform", body) ->
    body = "any_op" || body = "any_value"
    || (String.length body >= 3 && String.sub body 0 3 = "op<")
  | _ -> false

let is_param_typ = function
  | Typ.Opaque ("transform", "param") -> true
  | _ -> false

let create ?(config = default_config) ctx payload_root =
  let t =
    {
      ctx;
      payload_root;
      config;
      handles = Hashtbl.create 64;
      params = Hashtbl.create 16;
      values = Hashtbl.create 16;
      consumed = Hashtbl.create 16;
      invalidated_payload = Hashtbl.create 64;
      annots = Hashtbl.create 16;
      rewriter = Rewriter.create ();
      slots = None;
      steps = 0;
    }
  in
  (* rewrite every live handle entry — hashtable and slot storage alike —
     through [f]; [None] keeps the entry unchanged *)
  let remap_handles f =
    Hashtbl.iter
      (fun vid ops ->
        match f ops with
        | Some ops' -> Hashtbl.replace t.handles vid ops'
        | None -> ())
      (Hashtbl.copy t.handles);
    match t.slots with
    | None -> ()
    | Some s ->
      Array.iteri
        (fun i entry ->
          match entry with
          | Some ops -> (
            match f ops with
            | Some ops' -> s.sl_handles.(i) <- Some ops'
            | None -> ())
          | None -> ())
        s.sl_handles
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

let set_handle t (v : Ircore.value) ops =
  Stats.incr stat_handles_set;
  Stats.add stat_handle_payloads (List.length ops);
  match slot_of t v.Ircore.v_id with
  | Some (s, i) -> s.sl_handles.(i) <- Some ops
  | None -> Hashtbl.replace t.handles v.Ircore.v_id ops

let set_params t (v : Ircore.value) attrs =
  match slot_of t v.Ircore.v_id with
  | Some (s, i) -> s.sl_params.(i) <- Some attrs
  | None -> Hashtbl.replace t.params v.Ircore.v_id attrs

(* slot-aware raw reads; the public lookups layer the consumption and
   invalidation checks on top *)
let find_handle t vid =
  match slot_of t vid with
  | Some (s, i) -> s.sl_handles.(i)
  | None -> Hashtbl.find_opt t.handles vid

let find_params t vid =
  match slot_of t vid with
  | Some (s, i) -> s.sl_params.(i)
  | None -> Hashtbl.find_opt t.params vid

let find_consumed t vid =
  match slot_of t vid with
  | Some (s, i) -> s.sl_consumed.(i)
  | None -> Hashtbl.find_opt t.consumed vid

let mark_consumed t vid by =
  match slot_of t vid with
  | Some (s, i) -> s.sl_consumed.(i) <- Some by
  | None -> Hashtbl.replace t.consumed vid by

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

(** Iterate every live (value id, payload ops) handle association across
    both stores. *)
let iter_handles t f =
  Hashtbl.iter f t.handles;
  match t.slots with
  | None -> ()
  | Some s ->
    Hashtbl.iter
      (fun vid i ->
        match s.sl_handles.(i) with Some ops -> f vid ops | None -> ())
      s.sl_index

(** Payload ops of a handle; checks consumption. *)
let lookup_handle t (v : Ircore.value) : (Ircore.op list, Terror.t) result =
  match find_consumed t v.Ircore.v_id with
  | Some by ->
    Terror.definite
      "use of a handle invalidated by transform '%s' (handle consumed)" by
  | None -> (
    match find_handle t v.Ircore.v_id with
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
let handle_size t (v : Ircore.value) =
  match find_handle t v.Ircore.v_id with
  | Some ops -> Some (List.length ops)
  | None -> (
    match find_params t v.Ircore.v_id with
    | Some attrs -> Some (List.length attrs)
    | None -> None)

let lookup_params t (v : Ircore.value) : (Attr.t list, Terror.t) result =
  match find_params t v.Ircore.v_id with
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
    current handle table. *)
type consume_snapshot = {
  cs_subtree : (int, unit) Hashtbl.t;  (** payload op ids to be invalidated *)
  cs_handles : (int, Ircore.op list) Hashtbl.t;
  cs_operands : int list;  (** value ids of the consumed operands *)
}

let snapshot_consumption t (operands : Ircore.value list) =
  let cs_subtree = Hashtbl.create 32 in
  List.iter
    (fun v ->
      match find_handle t v.Ircore.v_id with
      | Some ops ->
        List.iter
          (fun op ->
            Ircore.walk_op op ~pre:(fun nested ->
                Hashtbl.replace cs_subtree nested.Ircore.op_id ()))
          ops
      | None -> ())
    operands;
  let cs_handles = Hashtbl.copy t.handles in
  (match t.slots with
  | None -> ()
  | Some s ->
    Hashtbl.iter
      (fun vid i ->
        match s.sl_handles.(i) with
        | Some ops -> Hashtbl.replace cs_handles vid ops
        | None -> ())
      s.sl_index);
  {
    cs_subtree;
    cs_handles;
    cs_operands = List.map (fun v -> v.Ircore.v_id) operands;
  }

(** Commit a consumption (invalidation, Section 3.1): the consumed handles
    and every *pre-existing* handle pointing into the same payload subtrees
    become invalid; handles produced by the consuming transform itself are
    fresh and stay valid. *)
let commit_consumption t ~by (snap : consume_snapshot) =
  List.iter (fun vid -> mark_consumed t vid by) snap.cs_operands;
  Hashtbl.iter (fun oid () -> Hashtbl.replace t.invalidated_payload oid by)
    snap.cs_subtree;
  Hashtbl.iter
    (fun vid ops ->
      if
        (not (List.mem vid snap.cs_operands))
        && List.exists (fun o -> Hashtbl.mem snap.cs_subtree o.Ircore.op_id) ops
      then mark_consumed t vid by)
    snap.cs_handles

(** Direct consumption of a single handle (no aliasing pass). *)
let consume t ~by (v : Ircore.value) =
  commit_consumption t ~by (snapshot_consumption t [ v ])

(** Remove payload ops from the invalidated set (used when a transform
    re-associates fresh payload with old locations, e.g. after cloning). *)
let bless_payload t op =
  Ircore.walk_op op ~pre:(fun nested ->
      Hashtbl.remove t.invalidated_payload nested.Ircore.op_id)

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
    copies of every side table keyed by op/value identity. {!rollback}
    restores the payload and refills the tables, remapping payload
    references through the checkpoint's op/value correspondence. *)
type slot_checkpoint = {
  sck_handles : Ircore.op list option array;
  sck_params : Attr.t list option array;
  sck_values : Ircore.value list option array;
  sck_consumed : string option array;
}

type checkpoint = {
  ck_payload : Checkpoint.t;
  ck_handles : (int, Ircore.op list) Hashtbl.t;
  ck_params : (int, Attr.t list) Hashtbl.t;
  ck_values : (int, Ircore.value list) Hashtbl.t;
  ck_consumed : (int, string) Hashtbl.t;
  ck_invalidated : (int, string) Hashtbl.t;
  ck_annots : (int, Annot.Props.t) Hashtbl.t;
  ck_slots : slot_checkpoint option;
}

let checkpoint t =
  {
    ck_payload = Checkpoint.take t.payload_root;
    ck_handles = Hashtbl.copy t.handles;
    ck_params = Hashtbl.copy t.params;
    ck_values = Hashtbl.copy t.values;
    ck_consumed = Hashtbl.copy t.consumed;
    ck_invalidated = Hashtbl.copy t.invalidated_payload;
    ck_annots = Hashtbl.copy t.annots;
    ck_slots =
      (match t.slots with
      | None -> None
      | Some s ->
        Some
          {
            sck_handles = Array.copy s.sl_handles;
            sck_params = Array.copy s.sl_params;
            sck_values = Array.copy s.sl_values;
            sck_consumed = Array.copy s.sl_consumed;
          });
  }

(** Restore payload and handle tables to their state at {!checkpoint}.
    Handle entries are remapped to the restored copies of their payload
    ops/values; entries whose payload has no checkpoint-time image (ops
    created after the snapshot) are dropped. Single-shot, like the
    underlying {!Ir.Checkpoint}. *)
let rollback t (ck : checkpoint) =
  Checkpoint.restore ck.ck_payload;
  let refill dst src remap =
    Hashtbl.reset dst;
    Hashtbl.iter (fun k v -> Hashtbl.replace dst k (remap v)) src
  in
  let remap_ops = List.filter_map (Checkpoint.remap_op ck.ck_payload) in
  let remap_vals = List.filter_map (Checkpoint.remap_value ck.ck_payload) in
  refill t.handles ck.ck_handles remap_ops;
  refill t.params ck.ck_params Fun.id;
  refill t.values ck.ck_values remap_vals;
  refill t.consumed ck.ck_consumed Fun.id;
  refill t.annots ck.ck_annots Fun.id;
  (match (t.slots, ck.ck_slots) with
  | Some s, Some sck ->
    let restore dst src remap =
      Array.iteri (fun i entry -> dst.(i) <- Option.map remap entry) src
    in
    restore s.sl_handles sck.sck_handles remap_ops;
    restore s.sl_params sck.sck_params Fun.id;
    restore s.sl_values sck.sck_values remap_vals;
    restore s.sl_consumed sck.sck_consumed Fun.id
  | _ -> ());
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
  Hashtbl.iter
    (fun vid ops ->
      let ops' = List.filter alive ops in
      if List.length ops' <> List.length ops then
        Hashtbl.replace t.handles vid ops')
    (Hashtbl.copy t.handles);
  match t.slots with
  | None -> ()
  | Some s ->
    Array.iteri
      (fun i entry ->
        match entry with
        | Some ops ->
          let ops' = List.filter alive ops in
          if List.length ops' <> List.length ops then
            s.sl_handles.(i) <- Some ops'
        | None -> ())
      s.sl_handles
