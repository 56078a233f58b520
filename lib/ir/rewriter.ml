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

type t = { mutable ip : Builder.ip; mutable listeners : listener list }

let create ?(ip = Builder.Detached) () = { ip; listeners = [] }

let add_listener t l = t.listeners <- l :: t.listeners

(** Detach a listener previously passed to {!add_listener} (compared by
    physical identity). *)
let remove_listener t l =
  t.listeners <- List.filter (fun x -> not (x == l)) t.listeners
let ip t = t.ip
let set_ip t ip = t.ip <- ip

(* Ambient (domain-local) listeners, observing every rewriter on this
   domain for a dynamic extent. Passes create their own rewriter instances
   internally, so observers that cannot thread a listener into them — the
   action framework's provenance recording — attach here instead. *)
let ambient : listener list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(** Observe every rewriter notification on this domain while [f] runs. *)
let with_listener l f =
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient (l :: saved);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f

type event = Inserted | Replaced | Erased | Modified

(* Report [ev] on [op] to each of [ls] in order ([with_] only for
   [Replaced]): a top-level loop, so a notification allocates nothing. *)
let rec each ev op with_ = function
  | [] -> ()
  | l :: ls ->
    (match ev with
    | Inserted -> l.on_inserted op
    | Replaced -> l.on_replaced op with_
    | Erased -> l.on_erased op
    | Modified -> l.on_modified op);
    each ev op with_ ls

(* the rewriter's own listeners first, then the ambient ones *)
let notify t ev op with_ =
  each ev op with_ t.listeners;
  each ev op with_ (Domain.DLS.get ambient)

let notify_erased t op = notify t Erased op []

let insert t op =
  (match t.ip with
  | Builder.Detached -> ()
  | At_end b -> Ircore.insert_at_end b op
  | At_start b -> Ircore.insert_at_start b op
  | Before anchor -> Ircore.insert_before ~anchor op
  | After anchor ->
    Ircore.insert_after ~anchor op;
    (* keep building after the op just inserted *)
    t.ip <- After op);
  notify t Inserted op []

(** Build an op with {!Ircore.make}, which takes ownership of [operands],
    insert it at the insertion point and notify listeners. *)
let build t ~operands ~result_types ?(attrs = []) ?(regions = [])
    ?(successors = [||]) ?(loc = Loc.unknown) name =
  let op =
    Ircore.make ~operands ~result_types ~attrs ~regions ~successors ~loc name
  in
  insert t op;
  op

(** Like {!build} for an op with no results. *)
let build0 t ~operands ?attrs ?regions ?successors ?loc name =
  ignore
    (build t ~operands ~result_types:[||] ?attrs ?regions ?successors ?loc name)

(** Like {!build} but returns the single result value. *)
let build1 t ~operands ~result_types ?attrs ?regions ?successors ?loc name =
  Ircore.result
    (build t ~operands ~result_types ?attrs ?regions ?successors ?loc name)

(** Replace [op]'s results by [with_] and erase it. Nested ops disappear
    with it and are reported as erased after it, innermost first. *)
let replace_op t op ~with_ =
  notify t Replaced op with_;
  Ircore.walk_nested_post notify_erased t op;
  Ircore.replace op ~with_

(** Replace [op] by a freshly built op inserted just before it. Attributes
    default to those of [op]. [operands] must not be [op]'s own array. *)
let replace_op_with t op ~operands ~result_types ?attrs ?regions ?successors
    name =
  let saved = t.ip in
  t.ip <- Before op;
  let attrs = match attrs with Some a -> a | None -> op.Ircore.attrs in
  let new_op =
    build t ~operands ~result_types ~attrs ?regions ?successors name
  in
  replace_op t op ~with_:(Ircore.results new_op);
  t.ip <- saved;
  new_op

(** Erase [op]; nested ops are reported before it, innermost first. *)
let erase_op t op =
  Ircore.walk_nested_post notify_erased t op;
  notify_erased t op;
  Ircore.erase op

(** In-place modification bracket: notifies listeners through [on_modified]
    so dependent state (worklists, handle maps) can be refreshed without
    treating the op as erased. *)
let modify_in_place t op f =
  let r = f () in
  notify t Modified op [];
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
      notify t Inserted op [])
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
