(** Transform-dialect operations: context registration (names, verifiers,
    traits) and interpreter implementations registered in {!Treg}.

    Structural ops ([sequence], [named_sequence], [include], [alternatives],
    [foreach], [yield]) compile to their own {!Schedule} instructions; all
    other transforms dispatch through the {!Treg} registry — the
    extensibility point of Section 3.2. *)

open Ir
open Dialects

let ( let* ) = Result.bind

let h = Typ.transform_any_op
let p = Typ.transform_param

(* names *)
let sequence_op = "transform.sequence"
let named_sequence_op = "transform.named_sequence"
let yield_op = "transform.yield"
let include_op = "transform.include"
let alternatives_op = "transform.alternatives"
let foreach_op = "transform.foreach"
let match_op = "transform.match_op"
let param_constant_op = "transform.param_constant"
let loop_split_op = "transform.loop_split"
let loop_tile_op = "transform.loop_tile"
let loop_unroll_op = "transform.loop_unroll"
let loop_interchange_op = "transform.loop_interchange"
let loop_hoist_op = "transform.loop_hoist"
let loop_vectorize_op = "transform.loop_vectorize"
let loop_fuse_op = "transform.loop_fuse"
let loop_peel_op = "transform.loop_peel"
let to_library_op = "transform.to_library"
let structured_tile_op = "transform.structured_tile"
let structured_to_library_op = "transform.structured_to_library"
let structured_to_loops_op = "transform.structured_to_loops"
let apply_registered_pass_op = "transform.apply_registered_pass"
let apply_patterns_op = "transform.apply_patterns"
let pattern_ref_op = "transform.pattern"
let print_op = "transform.print"
let get_parent_op = "transform.get_parent"
let merge_handles_op = "transform.merge_handles"
let split_handle_op = "transform.split_handle"
let annotate_op = "transform.annotate"
let enzyme_ad_op = "transform.enzyme_ad"

(* ------------------------------------------------------------------ *)
(* Context registration                                                *)
(* ------------------------------------------------------------------ *)

let register_context ctx =
  let reg = Context.register_op ctx in
  (* failure-propagation mode of the paper's sequence op: [propagate]
     (default) forwards silenceable failures, [suppress] rolls the body
     back and downgrades them to warnings *)
  let verify_failure_propagation op =
    match Ircore.attr op "failure_propagation" with
    | None | Some (Attr.String ("propagate" | "suppress")) -> Ok ()
    | Some a ->
      Error
        (Fmt.str
           "invalid failure_propagation %a: expected \"propagate\" or \
            \"suppress\""
           Attr.pp a)
  in
  reg sequence_op ~summary:"top-level transform sequence"
    ~traits:[ Context.No_terminator ]
    ~verify:
      (Verifier.all [ Verifier.expect_regions 1; verify_failure_propagation ]);
  reg named_sequence_op ~summary:"reusable transform macro"
    ~traits:[ Context.Symbol; Context.Isolated_from_above; Context.No_terminator ]
    ~verify:
      (Verifier.all [ Verifier.expect_regions 1; Verifier.expect_attr "sym_name" ]);
  reg yield_op ~traits:[ Context.Terminator; Context.Return_like ];
  reg include_op ~verify:(Verifier.expect_attr "target");
  reg alternatives_op ~traits:[ Context.No_terminator ];
  reg foreach_op ~traits:[ Context.No_terminator ]
    ~verify:(Verifier.all [ Verifier.expect_operands 1; Verifier.expect_regions 1 ]);
  reg match_op
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  reg param_constant_op
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 0;
           Verifier.expect_results 1;
           Verifier.expect_attr "value";
         ]);
  reg loop_split_op
    ~verify:
      (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_results 2 ]);
  reg loop_tile_op
    ~verify:
      (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_results 2 ]);
  reg loop_unroll_op ~verify:(Verifier.expect_min_operands 1);
  reg loop_interchange_op
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  reg loop_hoist_op
    ~verify:
      (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_results 1 ]);
  reg loop_vectorize_op
    ~verify:
      (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_results 1 ]);
  reg loop_fuse_op
    ~verify:
      (Verifier.all [ Verifier.expect_operands 2; Verifier.expect_results 1 ]);
  reg loop_peel_op
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 1;
           Verifier.expect_results 2;
           Verifier.expect_attr "iterations";
         ]);
  reg to_library_op
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 1;
           Verifier.expect_attr "library";
         ]);
  reg structured_tile_op
    ~verify:
      (Verifier.all
         [
           Verifier.expect_min_operands 1;
           Verifier.expect_results 2;
           Verifier.expect_attr "tile_sizes";
         ]);
  reg structured_to_library_op
    ~verify:
      (Verifier.all
         [ Verifier.expect_operands 1; Verifier.expect_attr "library" ]);
  reg structured_to_loops_op ~verify:(Verifier.expect_operands 1);
  reg apply_registered_pass_op
    ~verify:
      (Verifier.all
         [ Verifier.expect_operands 1; Verifier.expect_attr "pass_name" ]);
  reg apply_patterns_op
    ~traits:[ Context.No_terminator ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_regions 1 ]);
  reg pattern_ref_op ~verify:(Verifier.expect_attr "name");
  reg print_op;
  reg get_parent_op
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  reg merge_handles_op ~verify:(Verifier.expect_results 1);
  reg split_handle_op
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_min_operands 1 ]);
  reg annotate_op
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_attr "name" ]);
  reg enzyme_ad_op ~verify:(Verifier.expect_operands 1)

(* ------------------------------------------------------------------ *)
(* Implementation helpers                                              *)
(* ------------------------------------------------------------------ *)

let operand_handle st op i = State.lookup_handle st (Ircore.operand ~index:i op)

(** Integer option from attribute or trailing param operand. *)
let int_config st op ~attr_name ~operand_index =
  match Ircore.attr op attr_name with
  | Some (Attr.Int (n, _)) -> Ok (Some n)
  | Some a -> Terror.definite "attribute %s: expected integer, got %a" attr_name Attr.pp a
  | None ->
    if Ircore.num_operands op > operand_index then
      let* n =
        State.lookup_int_param st (Ircore.operand ~index:operand_index op)
      in
      Ok (Some n)
    else Ok None

let set_result st op i ops = State.set_handle st (Ircore.result ~index:i op) ops

(** Run [f] on each payload op of the operand handle; collects outputs. *)
let over_payload st op ~index f =
  let* payload = operand_handle st op index in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = f x in
      go (y :: acc) rest
  in
  go [] payload

let as_silenceable = function
  | Ok v -> Ok v
  | Error msg -> Terror.silenceable "%s" msg

(** Pattern references of a [transform.apply_patterns] region, in source
    order: resolved patterns plus the names that failed to resolve. Shared
    between the interpreted implementation below and the schedule compiler
    ({!Schedule}), which freezes the resolved set once at compile time. *)
let collect_patterns op =
  let patterns = ref [] in
  let missing = ref [] in
  (match op.Ircore.regions with
  | [ _ ] ->
    Ircore.iter_children
      (fun ref_op ->
        let pname =
          let n = ref_op.Ircore.op_name in
          if n = pattern_ref_op then
            match Ircore.attr ref_op "name" with
            | Some (Attr.String s) -> Some s
            | _ -> None
          else
            let prefix = "transform.pattern." in
            if
              String.length n > String.length prefix
              && String.sub n 0 (String.length prefix) = prefix
            then
              Some
                (String.sub n (String.length prefix)
                   (String.length n - String.length prefix))
            else None
        in
        match pname with
        | Some name -> (
          match Pattern.lookup name with
          | Some pat -> patterns := pat :: !patterns
          | None -> missing := name :: !missing)
        | None -> ())
      op
  | _ -> ());
  (List.rev !patterns, List.rev !missing)

(** Greedily apply a frozen pattern set to every payload op of the target
    handle — the execution half of [transform.apply_patterns], shared with
    the compiled path. *)
let apply_frozen_patterns st op frozen =
  let* targets = State.lookup_handle st (Ircore.operand ~index:0 op) in
  List.iter
    (fun target ->
      ignore
        (Greedy.apply ~materialize:Dutil.materialize_arith_constant
           ~rewriter:(State.rewriter st) st.State.ctx ~patterns:frozen target))
    targets;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Treg registrations                                                  *)
(* ------------------------------------------------------------------ *)

let scf_for_set = [ Opset.exact "scf.for" ]

let loop_arith_set =
  [
    Opset.exact "scf.for"; Opset.exact "scf.yield"; Opset.exact "arith.addi";
    Opset.exact "arith.muli"; Opset.exact "arith.minsi";
    Opset.exact "arith.constant";
  ]

(* annotation-flow declarations ({!Annot}): the property sets established
   and demanded by the transforms below. The same clauses are read by the
   dynamic checker ([State.check_annotations]) and by the static
   {!Flowcheck} pass, so the two can only disagree on control-flow
   approximation, never on the specs themselves. *)
let props l = Annot.Props.of_list l

(** Properties established by a (non-identity) tiling: always "tiled",
    plus the statically known leading tile size when the sizes come from an
    attribute rather than parameter operands. *)
let tiled_props op =
  let base = props [ Annot.flag "tiled" ] in
  match Ircore.attr op "tile_sizes" with
  | Some (Attr.Int_array (s0 :: _)) when s0 > 0 ->
    Annot.Props.add (Annot.keyed "tiled_by" s0) base
  | _ -> base

let register_impls () =
  (* ------------ match_op ------------ *)
  Treg.register ~name:match_op
    ~spec:
      {
        Treg.default_spec with
        summary =
          "collect payload ops under the given roots, by name, dialect, \
           implemented interface and/or attribute presence";
        arity = Some 1;
        pure = true;
      }
    (fun st op ->
      let str_attr name =
        match Ircore.attr op name with
        | Some (Attr.String s) -> Some s
        | _ -> None
      in
      let name = str_attr "op_name" in
      let dialect = str_attr "dialect" in
      let iface = str_attr "interface" in
      let attr_present = str_attr "has_attr" in
      let select = Option.value ~default:"all" (str_attr "select") in
      let* () =
        if name = None && dialect = None && iface = None && attr_present = None
        then
          Terror.definite
            "match_op needs at least one of op_name/dialect/interface/has_attr"
        else Ok ()
      in
      let matches (o : Ircore.op) =
        (match name with Some n -> o.Ircore.op_name = n | None -> true)
        && (match dialect with
           | Some d -> Ircore.op_dialect o = d
           | None -> true)
        && (match iface with
           | Some i -> Context.implements st.State.ctx o.Ircore.op_name i
           | None -> true)
        &&
        match attr_present with
        | Some a -> Ircore.has_attr o a
        | None -> true
      in
      let* roots = operand_handle st op 0 in
      let all = List.concat_map (Symbol.collect ~f:matches) roots in
      let* selected =
        match select with
        | "all" -> Ok all
        | "first" | "second" | "third" | "last" -> (
          let idx =
            match select with
            | "first" -> 0
            | "second" -> 1
            | "third" -> 2
            | _ -> List.length all - 1
          in
          match List.nth_opt all idx with
          | Some x -> Ok [ x ]
          | None ->
            Terror.silenceable "no %s matching op found under the target"
              select)
        | s -> Terror.definite "unknown match selector %S" s
      in
      set_result st op 0 selected;
      Ok ());
  (* ------------ param_constant ------------ *)
  Treg.register ~name:param_constant_op
    ~spec:
      {
        Treg.default_spec with
        summary = "constant transform parameter";
        arity = Some 0;
        pure = true;
      }
    (fun st op ->
      match Ircore.attr op "value" with
      | Some v ->
        State.set_params st (Ircore.result op) [ v ];
        Ok ()
      | None -> Terror.definite "param_constant without value");
  (* ------------ loop_split ------------ *)
  Treg.register ~name:loop_split_op
    ~spec:
      {
        Treg.default_spec with
        summary = "split a loop into a divisible main part and a remainder";
        consumes = Treg.consumes_first;
        pre = (fun _ -> scf_for_set);
        post = (fun _ -> loop_arith_set);
        ensures =
          (fun _ ->
            let ps = props [ Annot.flag "split" ] in
            [ (Annot.On_result 0, ps); (Annot.On_result 1, ps) ]);
      }
    (fun st op ->
      let* divisor = int_config st op ~attr_name:"div_by" ~operand_index:1 in
      let* divisor =
        match divisor with
        | Some d -> Ok d
        | None -> Terror.definite "loop_split requires div_by"
      in
      let rw = State.rewriter st in
      let* pairs =
        over_payload st op ~index:0 (fun loop ->
            as_silenceable (Passes.Loop_utils.split rw loop ~divisor))
      in
      set_result st op 0 (List.map fst pairs);
      set_result st op 1 (List.map snd pairs);
      Ok ());
  (* ------------ loop_tile ------------ *)
  let tile_is_noop op =
    (* tiling by 0 in every dimension is the identity; the handle is then
       forwarded, not consumed (and the simplifier can drop the op) *)
    match Ircore.attr op "tile_sizes" with
    | Some (Attr.Int_array sizes) ->
      sizes <> [] && List.for_all (fun s -> s = 0) sizes
    | _ -> false
  in
  Treg.register ~name:loop_tile_op
    ~spec:
      {
        Treg.default_spec with
        summary = "tile a perfect loop nest";
        consumes = (fun op -> if tile_is_noop op then [] else [ 0 ]);
        pre = (fun _ -> scf_for_set);
        post = (fun _ -> loop_arith_set);
        ensures =
          (fun op ->
            if tile_is_noop op then []
            else
              [
                (Annot.On_result 0, tiled_props op);
                (Annot.On_result 1, props [ Annot.flag "tiled" ]);
              ]);
      }
    (fun st op ->
      let* sizes =
        match Ircore.attr op "tile_sizes" with
        | Some (Attr.Int_array sizes) -> Ok sizes
        | Some _ -> Terror.definite "tile_sizes must be an integer array"
        | None ->
          (* take sizes from parameter operands *)
          let rec go i acc =
            if i >= Ircore.num_operands op then Ok (List.rev acc)
            else
              let* n = State.lookup_int_param st (Ircore.operand ~index:i op) in
              go (i + 1) (n :: acc)
          in
          go 1 []
      in
      if sizes = [] then Terror.definite "loop_tile requires tile sizes"
      else if tile_is_noop op then begin
        let* payload = operand_handle st op 0 in
        set_result st op 0 payload;
        set_result st op 1 payload;
        Ok ()
      end
      else
        let rw = State.rewriter st in
        let* pairs =
          over_payload st op ~index:0 (fun loop ->
              as_silenceable (Passes.Loop_utils.tile rw loop ~sizes))
        in
        (* result 0: outermost tile loop; result 1: outermost point loop *)
        set_result st op 0
          (List.concat_map
             (fun (tiles, _) -> match tiles with t :: _ -> [ t ] | [] -> [])
             pairs);
        set_result st op 1
          (List.concat_map
             (fun (_, points) -> match points with q :: _ -> [ q ] | [] -> [])
             pairs);
        Ok ());
  (* ------------ loop_unroll ------------ *)
  let unroll_is_noop op =
    match Ircore.attr op "factor" with
    | Some (Attr.Int (1, _)) -> true
    | _ -> false
  in
  Treg.register ~name:loop_unroll_op
    ~spec:
      {
        Treg.default_spec with
        summary = "unroll a loop fully or by a factor";
        consumes = (fun op -> if unroll_is_noop op then [] else [ 0 ]);
        pre = (fun _ -> scf_for_set);
        post =
          (fun _ -> [ Opset.exact "arith.constant"; Opset.exact "arith.addi" ]);
        requires =
          (* the scalar unroller does not understand vector loop bodies *)
          (fun _ -> [ (0, Irdl.Not (Irdl.Atom (Annot.Has "vectorized"))) ]);
      }
    (fun st op ->
      let full = Ircore.has_attr op "full" in
      let rw = State.rewriter st in
      if unroll_is_noop op then Ok () (* unrolling by 1 is the identity *)
      else if full then
        let* _ =
          over_payload st op ~index:0 (fun loop ->
              as_silenceable (Passes.Loop_utils.unroll_full rw loop))
        in
        Ok ()
      else
        let* factor = int_config st op ~attr_name:"factor" ~operand_index:1 in
        match factor with
        | None -> Terror.definite "loop_unroll requires {full} or a factor"
        | Some f ->
          let* _ =
            over_payload st op ~index:0 (fun loop ->
                as_silenceable (Passes.Loop_utils.unroll_by rw loop ~factor:f))
          in
          Ok ());
  (* ------------ loop_interchange ------------ *)
  Treg.register ~name:loop_interchange_op
    ~spec:
      {
        Treg.default_spec with
        summary = "interchange a loop with its single nested loop";
        arity = Some 1;
        consumes = Treg.consumes_first;
        pre = (fun _ -> scf_for_set);
        post = (fun _ -> scf_for_set);
        ensures =
          (fun _ -> [ (Annot.On_result 0, props [ Annot.flag "interchanged" ]) ]);
      }
    (fun st op ->
      let rw = State.rewriter st in
      let* swapped =
        over_payload st op ~index:0 (fun loop ->
            as_silenceable (Passes.Loop_utils.interchange rw loop))
      in
      set_result st op 0 swapped;
      Ok ());
  (* ------------ loop_hoist ------------ *)
  Treg.register ~name:loop_hoist_op
    ~spec:
      {
        Treg.default_spec with
        summary = "hoist loop-invariant ops out of the loop";
        pre = (fun _ -> scf_for_set);
        post = (fun _ -> []);
        ensures =
          (fun _ -> [ (Annot.On_result 0, props [ Annot.flag "hoisted" ]) ]);
      }
    (fun st op ->
      let rw = State.rewriter st in
      let* moved =
        over_payload st op ~index:0 (fun loop ->
            as_silenceable (Passes.Loop_utils.hoist_invariants st.State.ctx rw loop))
      in
      set_result st op 0 (List.concat moved);
      Ok ());
  (* ------------ loop_vectorize ------------ *)
  Treg.register ~name:loop_vectorize_op
    ~spec:
      {
        Treg.default_spec with
        summary = "vectorize an innermost loop";
        consumes = Treg.consumes_first;
        pre = (fun _ -> scf_for_set);
        post =
          (fun _ ->
            [
              Opset.exact "scf.for"; Opset.exact "vector.load";
              Opset.exact "vector.store"; Opset.exact "vector.splat";
            ]);
        requires =
          (* the strip-mined vectorizer expects a tiled point loop and
             refuses to vectorize twice *)
          (fun _ ->
            [
              ( 0,
                Irdl.All
                  [
                    Irdl.Atom (Annot.Has "tiled");
                    Irdl.Not (Irdl.Atom (Annot.Has "vectorized"));
                  ] );
            ]);
        ensures =
          (fun _ -> [ (Annot.On_result 0, props [ Annot.flag "vectorized" ]) ]);
      }
    (fun st op ->
      let* width = int_config st op ~attr_name:"width" ~operand_index:1 in
      let width = Option.value ~default:8 width in
      let rw = State.rewriter st in
      let* vectorized =
        over_payload st op ~index:0 (fun loop ->
            as_silenceable (Passes.Loop_utils.vectorize rw loop ~width))
      in
      set_result st op 0 vectorized;
      Ok ());
  (* ------------ loop_fuse ------------ *)
  Treg.register ~name:loop_fuse_op
    ~spec:
      {
        Treg.default_spec with
        summary = "fuse a sibling loop into the target (user-asserted legality)";
        arity = Some 2;
        consumes = (fun _ -> [ 0; 1 ]);
        pre = (fun _ -> scf_for_set);
        post = (fun _ -> scf_for_set);
      }
    (fun st op ->
      let* a_ops = operand_handle st op 0 in
      let* b_ops = operand_handle st op 1 in
      match (a_ops, b_ops) with
      | [ a ], [ b ] ->
        let rw = State.rewriter st in
        let* fused = as_silenceable (Passes.Loop_utils.fuse_siblings rw a b) in
        set_result st op 0 [ fused ];
        Ok ()
      | _ ->
        Terror.silenceable
          "loop_fuse requires singleton handles (got %d and %d payload ops)"
          (List.length a_ops) (List.length b_ops));
  (* ------------ loop_peel ------------ *)
  Treg.register ~name:loop_peel_op
    ~spec:
      {
        Treg.default_spec with
        summary = "peel leading iterations into a separate loop";
        arity = Some 1;
        consumes = Treg.consumes_first;
        pre = (fun _ -> scf_for_set);
        post = (fun _ -> loop_arith_set);
        ensures =
          (fun _ ->
            let ps = props [ Annot.flag "peeled" ] in
            [ (Annot.On_result 0, ps); (Annot.On_result 1, ps) ]);
      }
    (fun st op ->
      let* iterations = int_config st op ~attr_name:"iterations" ~operand_index:1 in
      let* iterations =
        match iterations with
        | Some n -> Ok n
        | None -> Terror.definite "loop_peel requires an iteration count"
      in
      let rw = State.rewriter st in
      let* pairs =
        over_payload st op ~index:0 (fun loop ->
            as_silenceable (Passes.Loop_utils.peel_front rw loop ~iterations))
      in
      set_result st op 0 (List.map fst pairs);
      set_result st op 1 (List.map snd pairs);
      Ok ());
  (* ------------ to_library ------------ *)
  Treg.register ~name:to_library_op
    ~spec:
      {
        Treg.default_spec with
        summary = "replace a matmul loop nest with a microkernel library call";
        arity = Some 1;
        consumes = Treg.consumes_first;
        pre = (fun _ -> scf_for_set);
        post =
          (fun _ -> [ Opset.exact "func.call"; Opset.exact "memref.subview" ]);
      }
    (fun st op ->
      let library =
        match Ircore.attr op "library" with
        | Some (Attr.String s) -> s
        | _ -> "libxsmm"
      in
      let rw = State.rewriter st in
      let* calls =
        over_payload st op ~index:0 (fun loop ->
            as_silenceable
              (Passes.Loop_utils.replace_with_library_call rw st.State.ctx loop
                 ~library))
      in
      if Ircore.num_results op > 0 then set_result st op 0 calls;
      Ok ());
  (* ------------ structured transforms on linalg ops ------------ *)
  let linalg_matmul_set = [ Opset.exact "linalg.matmul" ] in
  Treg.register ~name:structured_tile_op
    ~spec:
      {
        Treg.default_spec with
        summary = "tile a linalg.matmul into loops over subviews";
        consumes = Treg.consumes_first;
        pre = (fun _ -> linalg_matmul_set);
        post =
          (fun _ ->
            [
              Opset.exact "scf.for"; Opset.exact "scf.yield";
              Opset.exact "memref.subview"; Opset.exact "linalg.matmul";
              Opset.exact "arith.constant";
            ]);
        ensures =
          (fun op ->
            [
              (Annot.On_result 0, props [ Annot.flag "tiled" ]);
              (Annot.On_result 1, tiled_props op);
            ]);
      }
    (fun st op ->
      let* sizes =
        match Ircore.attr op "tile_sizes" with
        | Some (Attr.Int_array sizes) -> Ok sizes
        | _ -> Terror.definite "structured_tile requires tile_sizes"
      in
      let rw = State.rewriter st in
      let* pairs =
        over_payload st op ~index:0 (fun target ->
            as_silenceable (Passes.Structured.tile_matmul rw target ~sizes))
      in
      set_result st op 0 (List.concat_map fst pairs);
      set_result st op 1 (List.map snd pairs);
      Ok ());
  Treg.register ~name:structured_to_library_op
    ~spec:
      {
        Treg.default_spec with
        summary = "replace a linalg.matmul with a microkernel library call";
        arity = Some 1;
        consumes = Treg.consumes_first;
        pre = (fun _ -> linalg_matmul_set);
        post = (fun _ -> [ Opset.exact "func.call" ]);
      }
    (fun st op ->
      let library =
        match Ircore.attr op "library" with
        | Some (Attr.String s) -> s
        | _ -> "libxsmm"
      in
      let rw = State.rewriter st in
      let* calls =
        over_payload st op ~index:0 (fun target ->
            as_silenceable
              (Passes.Structured.matmul_to_library rw target ~library))
      in
      if Ircore.num_results op > 0 then set_result st op 0 calls;
      Ok ());
  Treg.register ~name:structured_to_loops_op
    ~spec:
      {
        Treg.default_spec with
        summary = "lower a linalg.matmul to an scf loop nest";
        arity = Some 1;
        consumes = Treg.consumes_first;
        pre = (fun _ -> linalg_matmul_set);
        post =
          (fun _ ->
            [
              Opset.exact "scf.for"; Opset.exact "scf.yield";
              Opset.exact "memref.load"; Opset.exact "memref.store";
              Opset.exact "arith.mulf"; Opset.exact "arith.addf";
              Opset.exact "arith.constant";
            ]);
      }
    (fun st op ->
      let rw = State.rewriter st in
      let* _ =
        over_payload st op ~index:0 (fun target ->
            as_silenceable (Passes.Structured.matmul_to_loops rw target))
      in
      Ok ());
  (* ------------ apply_registered_pass ------------ *)
  Treg.register ~name:apply_registered_pass_op
    ~spec:
      {
        Treg.default_spec with
        summary = "run a pass from the pass registry on the target payload";
        arity = Some 1;
        pre =
          (fun op ->
            match Ircore.attr op "pass_name" with
            | Some (Attr.String name) -> (
              match Passes.Pass.lookup name with
              | Some p -> p.Passes.Pass.pre
              | None -> [])
            | _ -> []);
        post =
          (fun op ->
            match Ircore.attr op "pass_name" with
            | Some (Attr.String name) -> (
              match Passes.Pass.lookup name with
              | Some p -> p.Passes.Pass.post
              | None -> [])
            | _ -> []);
        ensures =
          (fun op ->
            match Ircore.attr op "pass_name" with
            | Some (Attr.String name) when Ircore.num_results op > 0 ->
              [ (Annot.On_result 0, props [ Annot.flag ("pass." ^ name) ]) ]
            | _ -> []);
      }
    (fun st op ->
      let* pass_name =
        match Ircore.attr op "pass_name" with
        | Some (Attr.String s) -> Ok s
        | _ -> Terror.definite "apply_registered_pass requires pass_name"
      in
      match Passes.Pass.lookup pass_name with
      | None -> Terror.definite "no registered pass named %S" pass_name
      | Some pass ->
        let* targets = operand_handle st op 0 in
        (* an earlier target's pass run may erase a later target (e.g. a
           loop nested in one the pass just simplified away); such corpses
           are detached from the payload root and must not anchor a pass *)
        let live target =
          Ircore.is_ancestor ~ancestor:st.State.payload_root target
        in
        let in_pass d =
          Diag.add_note d (Diag.note "in registered pass '%s'" pass_name)
        in
        (* each target runs through the pass manager's own runner: budget
           checkpoint, span, [pass] action, fan-out over the target's
           functions and exception barrier. A failing pass is silenceable;
           a raising one stays definite, so [alternatives] cannot roll a
           crash back and hide it. *)
        let rec go = function
          | [] -> Ok ()
          | target :: rest when not (live target) -> go rest
          | target :: rest -> (
            match Passes.Pass.run_one pass st.State.ctx target with
            | Ok () -> go rest
            | Error (Passes.Pass.Failed d) ->
              Terror.silenceable_diag (in_pass d)
            | Error (Passes.Pass.Raised d) -> Terror.definite_diag (in_pass d))
        in
        let* () = go targets in
        State.prune st;
        if Ircore.num_results op > 0 then set_result st op 0 targets;
        Ok ());
  (* ------------ apply_patterns ------------ *)
  Treg.register ~name:apply_patterns_op
    ~spec:
      {
        Treg.default_spec with
        summary = "greedily apply the listed rewrite patterns to the target";
        arity = Some 1;
      }
    (fun st op ->
      let patterns, missing = collect_patterns op in
      if missing <> [] then
        Terror.definite "unknown patterns: %s" (String.concat ", " missing)
      else
        (* freeze once; the root index is shared across every target *)
        apply_frozen_patterns st op (Frozen_patterns.freeze patterns));
  (* ------------ print ------------ *)
  Treg.register ~name:print_op
    ~spec:
      {
        Treg.default_spec with
        summary = "print the payload ops of a handle";
        pure = true;
      }
    (fun st op ->
      let tag =
        match Ircore.attr op "name" with Some (Attr.String s) -> s | _ -> ""
      in
      if Ircore.num_operands op = 0 then begin
        Fmt.epr "[transform.print %s]@.%a@." tag Printer.pp_op st.State.payload_root;
        Ok ()
      end
      else
        let* payload = operand_handle st op 0 in
        List.iter
          (fun p -> Fmt.epr "[transform.print %s]@.%a@." tag Printer.pp_op p)
          payload;
        Ok ());
  (* ------------ get_parent ------------ *)
  Treg.register ~name:get_parent_op
    ~spec:
      {
        Treg.default_spec with
        summary = "navigate to the closest enclosing op (optionally by name)";
        arity = Some 1;
        pure = true;
      }
    (fun st op ->
      let wanted =
        match Ircore.attr op "op_name" with
        | Some (Attr.String s) -> Some s
        | _ -> None
      in
      let* payload = operand_handle st op 0 in
      let parents =
        List.filter_map
          (fun child ->
            let rec up o =
              match Ircore.parent_op o with
              | None -> None
              | Some par -> (
                match wanted with
                | None -> Some par
                | Some w -> if par.Ircore.op_name = w then Some par else up par)
            in
            up child)
          payload
      in
      (* dedup by identity *)
      let parents =
        List.fold_left
          (fun acc x -> if List.memq x acc then acc else acc @ [ x ])
          [] parents
      in
      set_result st op 0 parents;
      Ok ());
  (* ------------ merge_handles ------------ *)
  Treg.register ~name:merge_handles_op
    ~spec:
      { Treg.default_spec with summary = "concatenate handles"; pure = true }
    (fun st op ->
      let rec go i acc =
        if i >= Ircore.num_operands op then Ok (List.rev acc)
        else
          let* ops = operand_handle st op i in
          go (i + 1) (List.rev_append ops acc)
      in
      let* all = go 0 [] in
      set_result st op 0 all;
      Ok ());
  (* ------------ split_handle ------------ *)
  Treg.register ~name:split_handle_op
    ~spec:
      {
        Treg.default_spec with
        summary = "split an N-op handle into N single-op handles";
        arity = Some 1;
        pure = true;
      }
    (fun st op ->
      let* payload = operand_handle st op 0 in
      let n = Ircore.num_results op in
      if List.length payload <> n then
        Terror.silenceable
          "split_handle: handle has %d payload ops but %d results"
          (List.length payload) n
      else begin
        List.iteri (fun i p -> set_result st op i [ p ]) payload;
        Ok ()
      end);
  (* ------------ annotate ------------ *)
  Treg.register ~name:annotate_op
    ~spec:
      {
        Treg.default_spec with
        summary = "attach a unit or given attribute to the payload ops";
        arity = Some 1;
        ensures =
          (fun op ->
            match Ircore.attr op "name" with
            | Some (Attr.String name) ->
              (* refines the operand handle in place: annotate has no
                 results, so this is what makes joins and fixpoints
                 observable to the static checker *)
              [ (Annot.On_operand 0, props [ Annot.flag ("annot." ^ name) ]) ]
            | _ -> []);
      }
    (fun st op ->
      let* name =
        match Ircore.attr op "name" with
        | Some (Attr.String s) -> Ok s
        | _ -> Terror.definite "annotate requires a name"
      in
      let value = Option.value ~default:Attr.Unit (Ircore.attr op "value") in
      let* payload = operand_handle st op 0 in
      List.iter (fun p -> Ircore.set_attr p name value) payload;
      Ok ())

let registered = ref false

(** Register everything (context-independent parts are process-global). *)
let register ctx =
  register_context ctx;
  if not !registered then begin
    registered := true;
    register_impls ()
  end
