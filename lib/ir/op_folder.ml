(** Folder-level constant uniquing — MLIR's [OperationFolder].

    When greedy folding materializes the result of a fold as a constant op,
    a naive driver builds a fresh op next to every folded user, so repeated
    folding litters the block with duplicate constants that CSE later has to
    clean up. The folder instead uniques materialized constants per
    [(block, value attribute, result type)] and hoists them to the start of
    the block, so every fold of the same value in the same block reuses one
    op that dominates all its users.

    The same table also uniques the constants that already exist in the
    input (MLIR's [insertKnownConstant]): when the greedy driver visits a
    constant-like op whose (block, value, type) is already known, the op is
    deduplicated into the first occurrence. *)

(** Block id, value attribute, result type. Attributes compare with
    {!Attr.equal}, so constants [0.0] and [-0.0] stay distinct. *)
module Key = Hashtbl.Make (struct
  type t = int * Attr.t * Typ.t

  let equal (b, a, t) (b', a', t') = b = b' && Attr.equal a a' && t = t'
  let hash (b, a, t) = Hashtbl.hash (b, Attr.hash a, t)
end)

type entry = {
  cv : Ircore.value;
  hoisted : bool;
      (** built by {!materialize} at the start of the block, so it dominates
          every op of the block. Known constants recorded in place do not —
          they only dominate ops that come after them. *)
}

type t = entry Key.t

let create () : t = Key.create 32

(** Is the cached [v] still a valid uniqued constant for block [b]? The
    defining op may have been erased (dropping its parent) or moved to a
    different block by a later rewrite; both invalidate the cache entry. *)
let still_valid b v =
  match Ircore.defining_op v with
  | None -> false
  | Some def -> (
    match Ircore.op_parent def with
    | Some parent -> parent.Ircore.b_id = b.Ircore.b_id
    | None -> false)

(** Materialize attribute [attr] of type [typ] as a constant usable at
    [anchor], through the driver's [materialize] hook. Reuses the uniqued
    constant of [anchor]'s block when one exists; otherwise builds one at
    the start of the block and records it. Detached anchors fall back to
    un-uniqued materialization just before the anchor's position. *)
let materialize t rw materialize_fn ~anchor attr typ =
  (* constant materialization is its own action: skipping it makes the
     enclosing fold give up cleanly (a [None] result aborts the fold) *)
  let materialize_fn rw attr typ =
    match Action.active () with
    | None -> materialize_fn rw attr typ
    | Some a ->
      Action.run_on a ~tag:"fold.materialize" ~desc:anchor.Ircore.op_name
        ~loc:anchor.Ircore.op_loc ~root:anchor ~skipped:None (fun () ->
          materialize_fn rw attr typ)
  in
  match Ircore.op_parent anchor with
  | None ->
    Rewriter.set_ip rw (Builder.Before anchor);
    materialize_fn rw attr typ
  | Some block -> (
    let key = (block.Ircore.b_id, attr, typ) in
    match Key.find_opt t key with
    (* only hoisted entries are safe to reuse from an arbitrary anchor: an
       in-place known constant may sit after the anchor in the block *)
    | Some e when e.hoisted && still_valid block e.cv -> Some e.cv
    | _ ->
      let saved = Rewriter.ip rw in
      Rewriter.set_ip rw (Builder.At_start block);
      let v = materialize_fn rw attr typ in
      Rewriter.set_ip rw saved;
      (match v with
      | Some v -> Key.replace t key { cv = v; hoisted = true }
      | None -> Key.remove t key);
      v)

(** Record the existing constant-like [op] (with value [attr] and a single
    result) in the uniquing table. Returns [Some canonical] when an
    equivalent constant is already known for the same block — the caller
    should replace [op]'s uses with it — and [None] when [op] itself became
    (or already was) the canonical constant. Within a straight-line block
    the first-recorded occurrence precedes any later duplicate, and hence
    its users, so redirecting them preserves dominance. *)
let insert_known_constant t (op : Ircore.op) attr =
  match (Ircore.op_parent op, op.Ircore.results) with
  | Some block, [| r |] -> (
    let key = (block.Ircore.b_id, attr, Ircore.value_typ r) in
    match Key.find_opt t key with
    | Some e when still_valid block e.cv ->
      if e.cv == r then None else Some e.cv
    | _ ->
      Key.replace t key { cv = r; hoisted = false };
      None)
  | _ -> None
