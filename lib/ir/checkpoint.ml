(** Payload checkpoints: transactional snapshot/restore of an op subtree,
    the substrate of the interpreter's rollback semantics (the paper's
    Section 3 error discipline made real rather than conventional: a
    silenceable failure must leave the payload recoverable even when the
    failing region already mutated it — upstream MLIR's [alternatives]
    clones the payload for the same reason).

    A checkpoint is a detached deep clone of the subtree taken through
    {!Ircore.clone_op}, plus the op/value correspondence between the live
    subtree and the clone. {!restore} splices the cloned content back into
    the (still live) root op in place — the root's identity is preserved,
    every op and value below it is replaced by its snapshot copy — and the
    recorded correspondence then lets callers remap any side tables keyed
    by op/value identity ({!Transform.State} remaps its handle tables
    through {!remap_op}/{!remap_value}).

    Validity: the root op must still be attached (or be the payload root)
    when restoring, and values referenced by the subtree but defined
    outside it must still be live — both hold trivially for the module-
    level payload roots the transform interpreter checkpoints. A
    checkpoint is single-shot: restoring or discarding it spends it.

    Cost model: {!take} is a full structural clone of the subtree — O(ops)
    time and memory; {!restore} is O(ops of the mutated subtree) to drop
    references plus O(1) splicing. See DESIGN.md "Transactional transform
    execution". *)

type t = {
  cp_root : Ircore.op;  (** live root whose content was captured *)
  mutable cp_clone : Ircore.op option;  (** detached copy; [None] once spent *)
  cp_ops : (int, Ircore.op) Hashtbl.t;  (** original op id -> clone op *)
  cp_values : (int, Ircore.value) Hashtbl.t;
      (** original value id -> clone value *)
  cp_op_count : int;  (** ops captured, for stats/benchmarks *)
}

(* global statistics (Ir.Stats) *)
let stat_taken = Stats.counter ~component:"checkpoint" "taken"
let stat_restored = Stats.counter ~component:"checkpoint" "restored"

let stat_ops_captured =
  Stats.counter ~component:"checkpoint" "ops_captured"

(** Snapshot the subtree rooted at [root]. The root op itself is part of
    the checkpoint: its attributes and regions are captured (operands and
    result identities are untouched by {!restore}). *)
let take root =
  Profiler.span ~cat:"checkpoint" "checkpoint.take" @@ fun () ->
  let mapping = Ircore.Mapping.create () in
  let clone = Ircore.clone_op ~mapping root in
  let ops = Hashtbl.create 64 in
  (* walk original and clone in lockstep (structurally identical trees) to
     record the op correspondence; [Mapping] already has the values *)
  let rec zip_op o c =
    Hashtbl.replace ops o.Ircore.op_id c;
    List.iter2 zip_region o.Ircore.regions c.Ircore.regions
  and zip_region ro rc =
    List.iter2 zip_block (Ircore.region_blocks ro) (Ircore.region_blocks rc)
  and zip_block bo bc =
    List.iter2 zip_op (Ircore.block_ops bo) (Ircore.block_ops bc)
  in
  zip_op root clone;
  let count = Hashtbl.length ops in
  Stats.incr stat_taken;
  Stats.add stat_ops_captured count;
  {
    cp_root = root;
    cp_clone = Some clone;
    cp_ops = ops;
    cp_values = mapping.Ircore.Mapping.values;
    cp_op_count = count;
  }

let op_count cp = cp.cp_op_count
let spent cp = cp.cp_clone = None

let take_clone cp what =
  match cp.cp_clone with
  | Some c ->
    cp.cp_clone <- None;
    c
  | None -> invalid_arg (Fmt.str "Checkpoint.%s: checkpoint already spent" what)

(** Roll the live subtree back to its checkpointed content. The current
    (mutated) regions of the root are discarded; the snapshot's regions and
    attributes are spliced in. The root op keeps its identity, position,
    operands and results. After restore, {!remap_op}/{!remap_value} map
    checkpoint-time ops/values to their restored (clone) copies. *)
let restore cp =
  Profiler.span ~cat:"checkpoint" "checkpoint.restore" @@ fun () ->
  let clone = take_clone cp "restore" in
  let root = cp.cp_root in
  (* the discarded content may use values defined outside the subtree *)
  Ircore.iter_children Ircore.drop_all_references root;
  Ircore.set_regions root clone.Ircore.regions;
  clone.Ircore.regions <- [];
  root.Ircore.attrs <- clone.Ircore.attrs;
  (* the clone shell's operands still hold uses on the root's operand
     values (clone_op maps out-of-subtree values to themselves) *)
  Ircore.drop_all_references clone;
  Stats.incr stat_restored

(** Release a checkpoint that will not be restored (the transaction
    committed): drops the clone's uses on out-of-subtree values so the
    snapshot is fully disconnected and collectable. *)
let discard cp =
  if not (spent cp) then begin
    Ircore.drop_all_references (take_clone cp "discard")
  end

(** The restored copy of a checkpoint-time op, valid after {!restore}.
    The root maps to itself; ops created after the checkpoint was taken
    have no image and yield [None]. *)
let remap_op cp (op : Ircore.op) =
  if op == cp.cp_root then Some op
  else Hashtbl.find_opt cp.cp_ops op.Ircore.op_id

(** Same, by op id (for side tables keyed on ids). *)
let remap_op_id cp id =
  if id = cp.cp_root.Ircore.op_id then Some cp.cp_root
  else Hashtbl.find_opt cp.cp_ops id

(** The restored copy of a checkpoint-time value ([None] for values born
    after the checkpoint; out-of-subtree values map to themselves). *)
let remap_value cp (v : Ircore.value) =
  match Hashtbl.find_opt cp.cp_values v.Ircore.v_id with
  | Some v' -> Some v'
  | None ->
    (* values defined outside the checkpointed subtree survive unchanged *)
    if Ircore.value_defined_within ~ancestor:cp.cp_root v then None
    else Some v
