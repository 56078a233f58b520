(** The mutable IR graph: values, operations, blocks and regions, mirroring
    MLIR's in-memory design so that rewrites cost O(1) per edit:
    - ops within a block and blocks within a region are intrusive
      doubly-linked lists, so insertion, erasure and moves are O(1);
    - every operand slot owns one use node (upstream [IROperand]) threaded
      into an intrusive doubly-linked use list on its value, so linking,
      unlinking and retargeting a use is O(1) and allocates nothing;
    - each block keeps a lazily renumbered op order index (upstream
      [Operation::isBeforeInBlock]), so {!is_before_in_block} is two int
      compares after at most one O(n) renumber per edited block;
    - each op, block and region owns the one [Some] cell that every link
      to it holds ([op_self], [b_self], [r_self], made with it), so
      linking, unlinking and moving ops and blocks allocates nothing. *)

type value = {
  v_id : int;
  mutable v_typ : Typ.t;
  v_def : vdef;
  mutable v_uses : use;
      (** head of this value's use list, newest use first; [nil_use] when
          the value is unused *)
}

and vdef =
  | Op_result of op * int
  | Block_arg of block * int

(** The use node of operand slot [u_index] of [u_op]. [nil_use] stands for
    "no node" in the links, so linking allocates no option box. *)
and use = {
  u_op : op;
  u_index : int;
  mutable u_value : value;  (** the value this slot holds *)
  mutable u_prev : use;  (** newer use of [u_value] *)
  mutable u_next : use;  (** older use of [u_value] *)
}

and op = {
  op_id : int;
  op_name : string;
  mutable operands : value array;
  mutable op_uses : use array;  (** one use node per operand slot *)
  mutable results : value array;
  mutable attrs : Attr.dict;
  mutable regions : region list;
  mutable successors : block array;
  mutable op_parent : block option;
  mutable op_prev : op option;
  mutable op_next : op option;
  mutable op_self : op option;
      (** [Some] this op, set once by the constructor: the cell its
          neighbours, its block and its regions point to *)
  mutable op_order : int;
      (** position in the parent block; meaningful while the block's
          [b_order_valid] is set *)
  mutable op_loc : Loc.t;
}

and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_first : op option;
  mutable b_last : op option;
  mutable b_parent : region option;
  mutable b_prev : block option;
  mutable b_next : block option;
  mutable b_self : block option;
      (** [Some] this block, set once by {!create_block} *)
  mutable b_order_valid : bool;
      (** the [op_order] of this block's ops increases along the list;
          cleared by every insertion *)
}

and region = {
  r_id : int;
  mutable r_first : block option;
  mutable r_last : block option;
  mutable r_parent : op option;
  mutable r_self : region option;
      (** [Some] this region, set once by {!create_region} *)
}

(* ------------------------------------------------------------------ *)
(* Values and use lists                                                *)
(* ------------------------------------------------------------------ *)

(* The list sentinel. It is shared by every domain, so nothing may ever
   write to it: the link code below tests for it before each write. *)
let rec nil_use =
  { u_op = nil_op; u_index = -1; u_value = nil_value; u_prev = nil_use;
    u_next = nil_use }

and nil_op =
  { op_id = -1; op_name = ""; operands = [||]; op_uses = [||];
    results = [||]; attrs = []; regions = []; successors = [||];
    op_parent = None; op_prev = None; op_next = None; op_self = None;
    op_order = 0; op_loc = Loc.unknown }

and nil_value =
  { v_id = -1; v_typ = Typ.i1; v_def = Op_result (nil_op, 0);
    v_uses = nil_use }

let value_typ v = v.v_typ
let value_id v = v.v_id

let new_result op index typ =
  { v_id = Util.fresh_id (); v_typ = typ; v_def = Op_result (op, index);
    v_uses = nil_use }

let defining_op v =
  match v.v_def with Op_result (op, _) -> Some op | Block_arg _ -> None

(** Apply [f] to the uses of [v], newest first. [f] must not edit the use
    list; iterate a {!value_uses} snapshot to do that. *)
let iter_uses f v =
  let rec go u =
    if u != nil_use then begin
      f u;
      go u.u_next
    end
  in
  go v.v_uses

(** The uses of [v], newest first. *)
let value_uses v =
  let[@tail_mod_cons] rec go u =
    if u == nil_use then [] else u :: go u.u_next
  in
  go v.v_uses

let has_uses v = v.v_uses != nil_use

(** Exactly one use — O(1), unlike counting with {!num_uses}. *)
let has_one_use v = v.v_uses != nil_use && v.v_uses.u_next == nil_use

let num_uses v =
  let rec go n u = if u == nil_use then n else go (n + 1) u.u_next in
  go 0 v.v_uses

(** Link the node [u] at the head of [v]'s use list. *)
let add_use v u =
  u.u_value <- v;
  u.u_prev <- nil_use;
  u.u_next <- v.v_uses;
  if v.v_uses != nil_use then v.v_uses.u_prev <- u;
  v.v_uses <- u

(** Unlink [u] from its value's use list, keeping the order of the rest;
    a no-op on an unlinked node. *)
let remove_use u =
  if u.u_prev != nil_use then u.u_prev.u_next <- u.u_next
  else if u.u_value.v_uses == u then u.u_value.v_uses <- u.u_next;
  if u.u_next != nil_use then u.u_next.u_prev <- u.u_prev;
  u.u_prev <- nil_use;
  u.u_next <- nil_use

(** Is [u] linked into the use list of the value it holds? *)
let use_is_linked u =
  if u.u_prev != nil_use then u.u_prev.u_next == u else u.u_value.v_uses == u

let new_use op index v =
  let u =
    { u_op = op; u_index = index; u_value = v; u_prev = nil_use;
      u_next = nil_use }
  in
  add_use v u;
  u

(* ------------------------------------------------------------------ *)
(* Op creation                                                         *)
(* ------------------------------------------------------------------ *)

(* one use node per operand slot, in a loop: no closure *)
let new_uses op operands =
  let n = Array.length operands in
  if n = 0 then [||]
  else begin
    let uses = Array.make n nil_use in
    for i = 0 to n - 1 do
      uses.(i) <- new_use op i operands.(i)
    done;
    uses
  end

(** Make [op] the parent of [regions] and set them as its regions. *)
let set_regions op regions =
  op.regions <- regions;
  List.iter (fun r -> r.r_parent <- op.op_self) regions

(** The op constructor. It takes ownership of [operands] and
    [successors]; it allocates the op, its [Some] cell, its results and
    their array, and its use nodes and their array, nothing else. *)
let make ~operands ~result_types ~attrs ~regions ~successors ~loc op_name =
  let op =
    {
      op_id = Util.fresh_id ();
      op_name;
      operands;
      op_uses = [||];
      results = [||];
      attrs;
      regions = [];
      successors;
      op_parent = None;
      op_prev = None;
      op_next = None;
      op_self = None;
      op_order = 0;
      op_loc = loc;
    }
  in
  op.op_self <- Some op;
  let n = Array.length result_types in
  if n > 0 then begin
    let results = Array.make n nil_value in
    for i = 0 to n - 1 do
      results.(i) <- new_result op i result_types.(i)
    done;
    op.results <- results
  end;
  op.op_uses <- new_uses op operands;
  set_regions op regions;
  op

let result ?(index = 0) op =
  if index >= Array.length op.results then
    invalid_arg
      (Fmt.str "op %s has %d results, requested %d" op.op_name
         (Array.length op.results) index);
  op.results.(index)

let results op = Array.to_list op.results
let operands op = Array.to_list op.operands
let operand ?(index = 0) op = op.operands.(index)
let num_operands op = Array.length op.operands
let num_results op = Array.length op.results

let attr op name = Attr.find name op.attrs
let set_attr op name v = op.attrs <- Attr.set name v op.attrs
let remove_attr op name = op.attrs <- Attr.remove name op.attrs
let has_attr op name = Option.is_some (attr op name)

let set_operand op index v =
  if not (op.operands.(index) == v) then begin
    let u = op.op_uses.(index) in
    remove_use u;
    op.operands.(index) <- v;
    add_use v u
  end

let set_operands op vs =
  Array.iter remove_use op.op_uses;
  op.operands <- Array.of_list vs;
  op.op_uses <- new_uses op op.operands

(* ------------------------------------------------------------------ *)
(* Linking ops into blocks                                             *)
(* ------------------------------------------------------------------ *)

let op_parent op = op.op_parent
let op_next op = op.op_next
let op_prev op = op.op_prev

let block_ops b =
  let rec go acc = function
    | None -> List.rev acc
    | Some op -> go (op :: acc) op.op_next
  in
  go [] b.b_first

let block_first_op b = b.b_first
let block_last_op b = b.b_last

(** Number of ops in [b]; O(n). *)
let block_num_ops b =
  let rec go n = function None -> n | Some op -> go (n + 1) op.op_next in
  go 0 b.b_first

let assert_detached op =
  if Option.is_some op.op_parent then
    invalid_arg (Fmt.str "op %s is already attached to a block" op.op_name)

let insert_at_end b op =
  assert_detached op;
  b.b_order_valid <- false;
  op.op_parent <- b.b_self;
  op.op_prev <- b.b_last;
  op.op_next <- None;
  (match b.b_last with
  | None -> b.b_first <- op.op_self
  | Some last -> last.op_next <- op.op_self);
  b.b_last <- op.op_self

let insert_at_start b op =
  assert_detached op;
  b.b_order_valid <- false;
  op.op_parent <- b.b_self;
  op.op_next <- b.b_first;
  op.op_prev <- None;
  (match b.b_first with
  | None -> b.b_last <- op.op_self
  | Some first -> first.op_prev <- op.op_self);
  b.b_first <- op.op_self

let insert_before ~anchor op =
  assert_detached op;
  let b =
    match anchor.op_parent with
    | Some b -> b
    | None -> invalid_arg "insert_before: anchor is detached"
  in
  b.b_order_valid <- false;
  op.op_parent <- anchor.op_parent;
  op.op_prev <- anchor.op_prev;
  op.op_next <- anchor.op_self;
  (match anchor.op_prev with
  | None -> b.b_first <- op.op_self
  | Some p -> p.op_next <- op.op_self);
  anchor.op_prev <- op.op_self

let insert_after ~anchor op =
  assert_detached op;
  let b =
    match anchor.op_parent with
    | Some b -> b
    | None -> invalid_arg "insert_after: anchor is detached"
  in
  b.b_order_valid <- false;
  op.op_parent <- anchor.op_parent;
  op.op_next <- anchor.op_next;
  op.op_prev <- anchor.op_self;
  (match anchor.op_next with
  | None -> b.b_last <- op.op_self
  | Some n -> n.op_prev <- op.op_self);
  anchor.op_next <- op.op_self

(** Unlink [op] from its block without touching uses or nested regions.
    The block's order index stays valid: the rest keep their order. *)
let detach op =
  match op.op_parent with
  | None -> ()
  | Some b ->
    (match op.op_prev with
    | None -> b.b_first <- op.op_next
    | Some p -> p.op_next <- op.op_next);
    (match op.op_next with
    | None -> b.b_last <- op.op_prev
    | Some n -> n.op_prev <- op.op_prev);
    op.op_parent <- None;
    op.op_prev <- None;
    op.op_next <- None

let move_before ~anchor op =
  detach op;
  insert_before ~anchor op

let move_after ~anchor op =
  detach op;
  insert_after ~anchor op

let move_to_end b op =
  detach op;
  insert_at_end b op

(* ------------------------------------------------------------------ *)
(* Blocks and regions                                                  *)
(* ------------------------------------------------------------------ *)

(** A fresh value for argument [i] of [b], of type [t], not yet among
    [b]'s arguments: {!add_block_args} appends a batch of them. *)
let new_block_arg b i t =
  { v_id = Util.fresh_id (); v_typ = t; v_def = Block_arg (b, i);
    v_uses = nil_use }

(* store [args] at [all.(i)], [all.(i + 1)], ...; each must be that
   argument of [b] *)
let rec store_block_args b all i = function
  | [] -> ()
  | v :: rest ->
    (match v.v_def with
    | Block_arg (b', j) when b' == b && j = i -> all.(i) <- v
    | _ -> invalid_arg "add_block_args: not the next argument of the block");
    store_block_args b all (i + 1) rest

(** Append [args], made by {!new_block_arg} for [b] at the indices that
    follow its arguments, with one copy of the argument array. *)
let add_block_args b args =
  match args with
  | [] -> ()
  | first :: _ ->
    let base = Array.length b.b_args in
    let all = Array.make (base + List.length args) first in
    Array.blit b.b_args 0 all 0 base;
    store_block_args b all base args;
    b.b_args <- all

let create_block ?(args = []) () =
  let b =
    {
      b_id = Util.fresh_id ();
      b_args = [||];
      b_first = None;
      b_last = None;
      b_parent = None;
      b_prev = None;
      b_next = None;
      b_self = None;
      b_order_valid = false;
    }
  in
  b.b_self <- Some b;
  add_block_args b (List.mapi (new_block_arg b) args);
  b

let block_args b = Array.to_list b.b_args
let block_arg b i = b.b_args.(i)
let block_parent b = b.b_parent

let add_block_arg b t =
  let v = new_block_arg b (Array.length b.b_args) t in
  add_block_args b [ v ];
  v

let create_region () =
  let r =
    { r_id = Util.fresh_id (); r_first = None; r_last = None; r_parent = None;
      r_self = None }
  in
  r.r_self <- Some r;
  r

let region_blocks r =
  let rec go acc = function
    | None -> List.rev acc
    | Some b -> go (b :: acc) b.b_next
  in
  go [] r.r_first

let region_first_block r = r.r_first

let append_block r b =
  if Option.is_some b.b_parent then
    invalid_arg "append_block: block already attached";
  b.b_parent <- r.r_self;
  b.b_prev <- r.r_last;
  b.b_next <- None;
  (match r.r_last with
  | None -> r.r_first <- b.b_self
  | Some last -> last.b_next <- b.b_self);
  r.r_last <- b.b_self

let insert_block_after r ~anchor b =
  if Option.is_some b.b_parent then
    invalid_arg "insert_block_after: block already attached";
  b.b_parent <- r.r_self;
  b.b_prev <- anchor.b_self;
  b.b_next <- anchor.b_next;
  (match anchor.b_next with
  | None -> r.r_last <- b.b_self
  | Some n -> n.b_prev <- b.b_self);
  anchor.b_next <- b.b_self

let detach_block b =
  match b.b_parent with
  | None -> ()
  | Some r ->
    (match b.b_prev with
    | None -> r.r_first <- b.b_next
    | Some p -> p.b_next <- b.b_next);
    (match b.b_next with
    | None -> r.r_last <- b.b_prev
    | Some n -> n.b_prev <- b.b_prev);
    b.b_parent <- None;
    b.b_prev <- None;
    b.b_next <- None

(** Region with a single empty block, the common case for structured ops. *)
let single_block_region ?(args = []) () =
  let r = create_region () in
  append_block r (create_block ~args ());
  r

let region_with_block b =
  let r = create_region () in
  append_block r b;
  r

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

(* One link walk serves the traversals below. It calls [f x] on each op,
   so a caller passing its state as [x] needs no closure, and allocates
   nothing. It reads each op's next link before calling [f] on it, so [f]
   may detach or erase the op it is given, or insert new ops beside it
   (those are not visited); it must not unlink any other op or block. *)
type order = Pre | Post | Children

let rec traverse order f x op =
  match order with
  | Pre ->
    f x op;
    traverse_regions order f x op.regions
  | Post ->
    traverse_regions order f x op.regions;
    f x op
  | Children -> f x op

and traverse_regions order f x = function
  | [] -> ()
  | r :: rest ->
    traverse_blocks order f x r.r_first;
    traverse_regions order f x rest

and traverse_blocks order f x = function
  | None -> ()
  | Some b ->
    traverse_ops order f x b.b_first;
    traverse_blocks order f x b.b_next

and traverse_ops order f x = function
  | None -> ()
  | Some op ->
    let next = op.op_next in
    traverse order f x op;
    traverse_ops order f x next

let apply f op = f op

(** Apply [f] to [op] and every op nested in it, in pre-order. *)
let walk f op = traverse Pre apply f op

(** Apply [f] to every op nested in [op], then to [op] (post-order). *)
let walk_post f op = traverse Post apply f op

(** [f x] on every op nested in [op], in post-order, but not on [op]. *)
let walk_nested_post f x op = traverse_regions Post f x op.regions

(** Apply [f] to each op directly inside [op]'s regions, region by region
    and block by block. *)
let iter_children f op = traverse_regions Children apply f op.regions

(** Parent op of [op], if attached. *)
let parent_op op =
  match op.op_parent with
  | None -> None
  | Some b -> ( match b.b_parent with None -> None | Some r -> r.r_parent)

let rec is_ancestor ~ancestor op =
  if ancestor == op then true
  else match parent_op op with None -> false | Some p -> is_ancestor ~ancestor p

(** Is [op] a proper ancestor of (or equal to) the op defining/owning [v]? *)
let value_defined_within ~ancestor v =
  match v.v_def with
  | Op_result (op, _) -> is_ancestor ~ancestor op
  | Block_arg (b, _) -> (
    match b.b_parent with
    | None -> false
    | Some r -> (
      match r.r_parent with
      | None -> false
      | Some owner -> is_ancestor ~ancestor owner))

(* ------------------------------------------------------------------ *)
(* Replacement and erasure                                             *)
(* ------------------------------------------------------------------ *)

(* move the use list starting at [u] onto [with_], node by node *)
let rec move_uses with_ u =
  if u != nil_use then begin
    let next = u.u_next in
    u.u_op.operands.(u.u_index) <- with_;
    add_use with_ u;
    move_uses with_ next
  end

(** Retarget every use of [v] to [with_]. The nodes move newest first, each
    to the head of [with_]'s list, so they end up there in reverse order. *)
let replace_all_uses_with v ~with_ =
  if not (v == with_) then begin
    let first = v.v_uses in
    v.v_uses <- nil_use;
    move_uses with_ first
  end

(** Drop all operand uses held by [op] and, recursively, by its regions.
    Required before erasing a subtree that may contain forward references. *)
let drop_all_references op =
  walk
    (fun o ->
      Array.iter remove_use o.op_uses;
      o.operands <- [||];
      o.op_uses <- [||])
    op

exception Has_live_uses of op

(* raise [Has_live_uses n] at the first use from [u] on, newest first, that
   lies outside [root]'s subtree *)
let rec check_uses_within root n u =
  if u != nil_use then begin
    if not (is_ancestor ~ancestor:root u.u_op) then raise (Has_live_uses n);
    check_uses_within root n u.u_next
  end

(* the uses of [n]'s results, result by result, must lie within [root] *)
let check_results_within root n =
  for i = 0 to Array.length n.results - 1 do
    check_uses_within root n n.results.(i).v_uses
  done

(** Erase [op]: unlink it, drop its operand uses (recursively through
    regions). Raises [Has_live_uses] if any result still has uses outside the
    erased subtree. *)
let erase op =
  (* results of nested ops must not be used outside the subtree either;
     the erased op is the walk's state, so no closure is built *)
  traverse Pre check_results_within op op;
  detach op;
  drop_all_references op

(** Erase without checking uses; callers must know the uses are dead. *)
let erase_unchecked op =
  detach op;
  drop_all_references op

(* retarget the uses of [results.(i + k)] to the list's [k]th value *)
let rec replace_results results i = function
  | [] -> ()
  | v :: rest ->
    replace_all_uses_with results.(i) ~with_:v;
    replace_results results (i + 1) rest

(** Replace [op] by [values] (one per result) and erase it. *)
let replace op ~with_ =
  if List.length with_ <> Array.length op.results then
    invalid_arg "replace: result arity mismatch";
  replace_results op.results 0 with_;
  erase op

(* ------------------------------------------------------------------ *)
(* Cloning                                                             *)
(* ------------------------------------------------------------------ *)

(** Value remapping used while cloning. *)
module Mapping = struct
  type t = {
    values : (int, value) Hashtbl.t;
    blocks : (int, block) Hashtbl.t;
  }

  let create () = { values = Hashtbl.create 16; blocks = Hashtbl.create 4 }
  let map_value m ~from ~to_ = Hashtbl.replace m.values from.v_id to_
  let lookup_value m v = Option.value ~default:v (Hashtbl.find_opt m.values v.v_id)
  let map_block m ~from ~to_ = Hashtbl.replace m.blocks from.b_id to_
  let lookup_block m b = Option.value ~default:b (Hashtbl.find_opt m.blocks b.b_id)
end

let rec clone_op ?(mapping = Mapping.create ()) op =
  let operands = Array.map (Mapping.lookup_value mapping) op.operands in
  let result_types = Array.map value_typ op.results in
  let regions = List.map (clone_region ~mapping) op.regions in
  let successors = Array.map (Mapping.lookup_block mapping) op.successors in
  let cloned =
    make ~operands ~result_types ~attrs:op.attrs ~regions ~successors
      ~loc:op.op_loc op.op_name
  in
  Array.iteri
    (fun i r -> Mapping.map_value mapping ~from:r ~to_:cloned.results.(i))
    op.results;
  (* Remap forward references inside cloned regions now that results exist. *)
  iter_children
    (walk (fun n ->
         Array.iteri
           (fun index v ->
             let v' = Mapping.lookup_value mapping v in
             if not (v == v') then set_operand n index v')
           n.operands))
    cloned;
  cloned

and clone_region ~mapping r =
  let r' = create_region () in
  (* First create all blocks (with args) so successors can be remapped. *)
  let blocks = region_blocks r in
  let cloned_blocks =
    List.map
      (fun b ->
        let b' = create_block ~args:(List.map (fun a -> a.v_typ) (block_args b)) () in
        Mapping.map_block mapping ~from:b ~to_:b';
        Array.iteri
          (fun i a -> Mapping.map_value mapping ~from:a ~to_:b'.b_args.(i))
          b.b_args;
        append_block r' b';
        b')
      blocks
  in
  List.iter2
    (fun b b' ->
      List.iter
        (fun op -> insert_at_end b' (clone_op ~mapping op))
        (block_ops b))
    blocks cloned_blocks;
  r'

(* ------------------------------------------------------------------ *)
(* Misc                                                                *)
(* ------------------------------------------------------------------ *)

let op_dialect op = Util.dialect_of_op_name op.op_name

let stat_ops_renumbered =
  Stats.counter ~component:"ircore" "ops_renumbered"
    ~desc:"ops given a fresh order index by a lazy block renumber"

(** Number the ops of [b] in list order and mark its order index valid. *)
let renumber b =
  let rec go i = function
    | None -> i
    | Some op ->
      op.op_order <- i;
      go (i + 1) op.op_next
  in
  Stats.add stat_ops_renumbered (go 0 b.b_first);
  b.b_order_valid <- true

(** Does [a] come before [b] in their common block? The first query after
    an insertion renumbers that block, and only that block: a pool task
    queries only blocks of the function it owns. *)
let is_before_in_block a b =
  match (a.op_parent, b.op_parent) with
  | Some ba, Some bb when ba == bb ->
    if not ba.b_order_valid then renumber ba;
    a.op_order < b.op_order
  | _ -> invalid_arg "is_before_in_block: ops not in the same block"
