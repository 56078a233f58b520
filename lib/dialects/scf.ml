(** The scf dialect: structured control flow — [scf.for] (with iteration
    arguments), [scf.if], [scf.while], [scf.forall] and their terminators. *)

open Ir

let for_op = "scf.for"
let forall_op = "scf.forall"
let if_op = "scf.if"
let while_op = "scf.while"
let yield_op = "scf.yield"
let condition_op = "scf.condition"

let verify_for op =
  let ( let* ) = Result.bind in
  let* () = Verifier.expect_min_operands 3 op in
  let* () = Verifier.expect_regions 1 op in
  let n_iter = Ircore.num_operands op - 3 in
  if Ircore.num_results op <> n_iter then
    Error
      (Fmt.str "expected %d results (one per iter arg), got %d" n_iter
         (Ircore.num_results op))
  else
    match op.Ircore.regions with
    | [ r ] -> (
      match Ircore.region_first_block r with
      | Some b when List.length (Ircore.block_args b) = n_iter + 1 -> Ok ()
      | Some b ->
        Error
          (Fmt.str "body must have %d block arguments, has %d" (n_iter + 1)
             (List.length (Ircore.block_args b)))
      | None -> Error "body region must have a block")
    | _ -> Error "expected a single region"

let loop_like : Context.loop_like =
  {
    Context.ll_lower_bound = (fun op -> Some (Ircore.operand ~index:0 op));
    ll_upper_bound = (fun op -> Some (Ircore.operand ~index:1 op));
    ll_step = (fun op -> Some (Ircore.operand ~index:2 op));
    ll_induction_var =
      (fun op ->
        match op.Ircore.regions with
        | [ r ] ->
          Option.map (fun b -> Ircore.block_arg b 0) (Ircore.region_first_block r)
        | _ -> None);
    ll_body =
      (fun op ->
        match op.Ircore.regions with
        | [ r ] -> Ircore.region_first_block r
        | _ -> None);
  }

let register ctx =
  Context.register_op ctx for_op ~summary:"counted loop with iter args"
    ~verify:verify_for
    ~canonicalizers:[ "scf.for_zero_trip"; "scf.for_single_trip" ]
    ~interfaces:(Util.Univ.add Context.loop_like_key loop_like Util.Univ.empty);
  Context.register_op ctx forall_op
    ~summary:"multi-dimensional parallel loop nest"
    ~traits:[ Context.No_terminator ]
    ~verify:
      (Verifier.all
         [ Verifier.expect_regions 1; Verifier.expect_attr "static_upper_bound" ]);
  Context.register_op ctx if_op ~summary:"conditional with results"
    ~canonicalizers:[ "scf.if_constant_cond" ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_regions 2 ]);
  Context.register_op ctx while_op ~summary:"general while loop"
    ~verify:(Verifier.expect_regions 2);
  Context.register_op ctx yield_op ~summary:"region terminator"
    ~traits:[ Context.Terminator; Context.Return_like ];
  Context.register_op ctx condition_op ~summary:"while condition terminator"
    ~traits:[ Context.Terminator ]
    ~verify:(Verifier.expect_min_operands 1)

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let yield rw ?(operands = []) () =
  Rewriter.build0 rw ~operands:(Array.of_list operands) yield_op

(** Build [scf.for %iv = lb to ub step step iter_args(...)], populating the
    body via [body : rw -> iv -> iter_args -> yielded values]. *)
let build_for rw ~lb ~ub ~step ?(iter_args = []) body =
  let iter_types = List.map Ircore.value_typ iter_args in
  let block = Ircore.create_block ~args:(Typ.index :: iter_types) () in
  let region = Ircore.region_with_block block in
  let op =
    Rewriter.build rw
      ~operands:(Array.of_list (lb :: ub :: step :: iter_args))
      ~result_types:(Array.of_list iter_types) ~regions:[ region ] for_op
  in
  let body_rw = Dutil.rw_at_end block in
  let iv = Ircore.block_arg block 0 in
  let iters = List.tl (Ircore.block_args block) in
  let yielded = body body_rw iv iters in
  yield body_rw ~operands:yielded ();
  op

(** Build [scf.if] with optional else region. *)
let build_if rw ~cond ~result_types ~then_ ~else_ =
  let then_block = Ircore.create_block () in
  let else_block = Ircore.create_block () in
  let op =
    Rewriter.build rw ~operands:[| cond |]
      ~result_types:(Array.of_list result_types)
      ~regions:
        [ Ircore.region_with_block then_block; Ircore.region_with_block else_block ]
      if_op
  in
  let trw = Dutil.rw_at_end then_block in
  let tv = then_ trw in
  yield trw ~operands:tv ();
  let erw = Dutil.rw_at_end else_block in
  let ev = else_ erw in
  yield erw ~operands:ev ();
  op

(* ------------------------------------------------------------------ *)
(* Canonicalization patterns                                           *)
(* ------------------------------------------------------------------ *)

let bounds_const v = Arith.constant_int_of_value v

(* shared: splice a single-block region's body before [anchor], mapping the
   block args and returning the mapped yield operands *)
let splice_region_before rw ~anchor ~arg_values region =
  match Ircore.region_first_block region with
  | None -> None
  | Some body -> (
    match Ircore.block_last_op body with
    | Some y when y.Ircore.op_name = yield_op ->
      let mapping = Ircore.Mapping.create () in
      List.iter2
        (fun arg v -> Ircore.Mapping.map_value mapping ~from:arg ~to_:v)
        (Ircore.block_args body) arg_values;
      Rewriter.set_ip rw (Builder.Before anchor);
      List.iter
        (fun op ->
          if not (op == y) then
            Rewriter.insert rw (Ircore.clone_op ~mapping op))
        (Ircore.block_ops body);
      Some
        (List.map (Ircore.Mapping.lookup_value mapping) (Ircore.operands y))
    | _ -> None)

let () =
  (* a loop with zero iterations yields its init values *)
  Pattern.register_make ~name:"scf.for_zero_trip" ~root:for_op (fun rw op ->
      if Ircore.num_operands op < 3 then false
      else
      match
        ( bounds_const (Ircore.operand ~index:0 op),
          bounds_const (Ircore.operand ~index:1 op),
          bounds_const (Ircore.operand ~index:2 op) )
      with
      | Some lb, Some ub, Some st when st > 0 && ub <= lb ->
        Rewriter.replace_op rw op
          ~with_:(List.filteri (fun i _ -> i >= 3) (Ircore.operands op));
        true
      | _ -> false);
  (* a loop with exactly one iteration is its body at iv = lb *)
  Pattern.register_make ~name:"scf.for_single_trip" ~root:for_op (fun rw op ->
      if Ircore.num_operands op < 3 then false
      else
      match
        ( bounds_const (Ircore.operand ~index:0 op),
          bounds_const (Ircore.operand ~index:1 op),
          bounds_const (Ircore.operand ~index:2 op) )
      with
      | Some lb, Some ub, Some st
        when st > 0 && ub > lb && ub - lb <= st -> (
        let inits = List.filteri (fun i _ -> i >= 3) (Ircore.operands op) in
        match op.Ircore.regions with
        | [ r ] -> (
          match
            splice_region_before rw ~anchor:op
              ~arg_values:(Ircore.operand ~index:0 op :: inits)
              r
          with
          | Some yielded ->
            Rewriter.replace_op rw op ~with_:yielded;
            true
          | None -> false)
        | _ -> false)
      | _ -> false);
  (* scf.if with a constant condition inlines the taken region *)
  Pattern.register_make ~name:"scf.if_constant_cond" ~root:if_op (fun rw op ->
      let cond_const =
        match Ircore.defining_op (Ircore.operand ~index:0 op) with
        | Some d when d.Ircore.op_name = Arith.constant_op -> (
          match Ircore.attr d "value" with
          | Some (Attr.Bool b) -> Some b
          | Some (Attr.Int (1, _)) -> Some true
          | Some (Attr.Int (0, _)) -> Some false
          | _ -> None)
        | _ -> None
      in
      match (cond_const, op.Ircore.regions) with
      | Some b, [ t; e ] -> (
        let chosen = if b then t else e in
        match splice_region_before rw ~anchor:op ~arg_values:[] chosen with
        | Some yielded ->
          Rewriter.replace_op rw op ~with_:yielded;
          true
        | None -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let is_for op = op.Ircore.op_name = for_op
let lower_bound op = Ircore.operand ~index:0 op
let upper_bound op = Ircore.operand ~index:1 op
let step op = Ircore.operand ~index:2 op
let iter_init_args op = List.filteri (fun i _ -> i >= 3) (Ircore.operands op)

let body_block op =
  match op.Ircore.regions with
  | [ r ] -> (
    match Ircore.region_first_block r with
    | Some b -> b
    | None -> invalid_arg "scf op without body block")
  | _ -> invalid_arg "scf op without single region"

let induction_var op = Ircore.block_arg (body_block op) 0
let iter_args op = List.tl (Ircore.block_args (body_block op))

let yield_of op =
  match Ircore.block_last_op (body_block op) with
  | Some t when t.Ircore.op_name = yield_op -> t
  | _ -> invalid_arg "scf op body lacks scf.yield"

(** Static trip-count info when bounds and step are constants. *)
let static_bounds op =
  match
    ( Arith.constant_int_of_value (lower_bound op),
      Arith.constant_int_of_value (upper_bound op),
      Arith.constant_int_of_value (step op) )
  with
  | Some lb, Some ub, Some st when st > 0 -> Some (lb, ub, st)
  | _ -> None

let static_trip_count op =
  match static_bounds op with
  | Some (lb, ub, st) -> Some (max 0 ((ub - lb + st - 1) / st))
  | None -> None
