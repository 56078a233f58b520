(** The rewriter: IR mutation entry point used by patterns, passes and the
    transform interpreter. All structural changes are funneled through it so
    that registered listeners observe op insertion, replacement and erasure —
    the mechanism the Transform dialect uses to keep handles up to date
    (Section 3.1 of the paper). *)

type listener = {
  on_inserted : Ircore.op -> unit;  (** op freshly created and inserted *)
  on_replaced : Ircore.op -> Ircore.value list -> unit;
      (** op about to be erased, with its result replacements *)
  on_erased : Ircore.op -> unit;  (** op about to be erased, no replacement *)
  on_modified : Ircore.op -> unit;
      (** op mutated in place ({!modify_in_place}); op stays live *)
}

let null_listener =
  {
    on_inserted = ignore;
    on_replaced = (fun _ _ -> ());
    on_erased = ignore;
    on_modified = ignore;
  }

type t = { builder : Builder.t; mutable listeners : listener list }

let create ?(ip = Builder.Detached) () =
  { builder = Builder.create ~ip (); listeners = [] }

let add_listener t l = t.listeners <- l :: t.listeners

(** Detach a listener previously passed to {!add_listener} (compared by
    physical identity). *)
let remove_listener t l =
  t.listeners <- List.filter (fun x -> not (x == l)) t.listeners
let builder t = t.builder
let set_ip t ip = Builder.set_ip t.builder ip

(* Ambient (domain-local) listeners, observing every rewriter on this
   domain for a dynamic extent. Passes create their own rewriter instances
   internally, so observers that cannot thread a listener into them — the
   incremental verifier's dirty tracking — attach here instead. *)
let ambient : listener list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(** Observe every rewriter notification on this domain while [f] runs. *)
let with_listener l f =
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient (l :: saved);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f

let all_listeners t = t.listeners @ Domain.DLS.get ambient

let notify_inserted t op =
  List.iter (fun l -> l.on_inserted op) (all_listeners t)

(* nested ops disappear together with their parent, and are reported
   before it *)
let notify_erased_tree t op =
  let listeners = all_listeners t in
  Ircore.walk_post (fun o -> List.iter (fun l -> l.on_erased o) listeners) op

let insert t op =
  ignore (Builder.insert t.builder op);
  notify_inserted t op

(** Create an op at the current insertion point and notify listeners. *)
let build t ?operands ?result_types ?attrs ?regions ?successors ?loc name =
  let op =
    Ircore.create ?operands ?result_types ?attrs ?regions ?successors ?loc name
  in
  insert t op;
  op

let build1 t ?operands ?result_types ?attrs ?regions ?successors ?loc name =
  Ircore.result (build t ?operands ?result_types ?attrs ?regions ?successors ?loc name)

(** Replace [op]'s results by [with_] and erase it. *)
let replace_op t op ~with_ =
  List.iter (fun l -> l.on_replaced op with_) (all_listeners t);
  (* notify nested erasures *)
  Ircore.iter_children (notify_erased_tree t) op;
  Ircore.replace op ~with_

(** Replace [op] by a freshly built op inserted just before it. Result types
    and attributes default to those of [op]. *)
let replace_op_with t op ?operands ?result_types ?attrs ?regions ?successors
    name =
  let saved = Builder.ip t.builder in
  Builder.set_ip t.builder (Builder.Before op);
  let result_types =
    match result_types with
    | Some ts -> ts
    | None -> List.map Ircore.value_typ (Ircore.results op)
  in
  let attrs =
    match attrs with Some a -> a | None -> op.Ircore.attrs
  in
  let new_op = build t ?operands ~result_types ~attrs ?regions ?successors name in
  replace_op t op ~with_:(Ircore.results new_op);
  Builder.set_ip t.builder saved;
  new_op

let erase_op t op =
  notify_erased_tree t op;
  Ircore.erase op

(** In-place modification bracket: notifies listeners through [on_modified]
    so dependent state (worklists, handle maps) can be refreshed without
    treating the op as erased. *)
let modify_in_place t op f =
  let r = f () in
  List.iter (fun l -> l.on_modified op) (all_listeners t);
  r

(** Inline all ops of [block] before [anchor], replacing uses of the block's
    arguments by [arg_values]. The block is left empty (and detached). *)
let inline_block_before t ~anchor ~arg_values block =
  let args = Ircore.block_args block in
  if List.length args <> List.length arg_values then
    invalid_arg "inline_block_before: argument arity mismatch";
  List.iter2
    (fun arg v -> Ircore.replace_all_uses_with arg ~with_:v)
    args arg_values;
  List.iter
    (fun op ->
      Ircore.detach op;
      Ircore.insert_before ~anchor op;
      notify_inserted t op)
    (Ircore.block_ops block);
  Ircore.detach_block block

(** Split [block] before [op]: ops from [op] (inclusive) move to a fresh
    block appended right after [block] in the same region. Returns the new
    block. *)
let split_block_before _t block op =
  let region =
    match Ircore.block_parent block with
    | Some r -> r
    | None -> invalid_arg "split_block_before: detached block"
  in
  let new_block = Ircore.create_block () in
  Ircore.insert_block_after region ~anchor:block new_block;
  let rec move = function
    | None -> ()
    | Some o ->
      let next = Ircore.op_next o in
      Ircore.detach o;
      Ircore.insert_at_end new_block o;
      move next
  in
  move (Some op);
  new_block
