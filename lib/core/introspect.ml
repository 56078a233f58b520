(** Transform-script introspection (Section 3.4, Figure 5): automatically
    configuring transformations from their position in the script.

    The running example is automatic differentiation: the AD transform must
    emit "add" ops of the dialect that is current at its point in the
    pipeline (StableHLO-level, arith-level or LLVM-level). Instead of asking
    the user for this detail, {!infer_add_kinds} walks the script, tracks the
    abstraction level through the post-conditions of the preceding lowering
    steps, and sets each [transform.enzyme_ad]'s [add_op] attribute. *)

open Ir

(** Map a dialect to its addition operation. *)
let add_op_of_dialect = function
  | "shlo" -> Some "shlo.add"
  | "arith" -> Some "arith.addf"
  | "llvm" -> Some "llvm.fadd"
  | "tosa" -> Some "tosa.add"
  | "linalg" -> Some "arith.addf"
  | _ -> None

(** The "current dialect" after a checkable step: the dialect most recently
    introduced by a post-condition that has an add op. *)
let level_after current (post : Opset.t) =
  let dialect_of = function
    | Opset.Dialect d -> d
    | Opset.Exact n | Opset.Constrained (n, _) -> Util.dialect_of_op_name n
    | Opset.Interface _ -> ""
  in
  List.fold_left
    (fun acc e ->
      let d = dialect_of e in
      if Option.is_some (add_op_of_dialect d) && d <> "tosa" then d else acc)
    current post

(** Walk the script's entry sequence; set the [add_op] attribute of every
    [transform.enzyme_ad] op that does not already have one. Returns the
    inferred kinds in order. *)
let infer_add_kinds script =
  let inferred = ref [] in
  let current = ref "shlo" in
  Ircore.walk
    (fun op ->
      if op.Ircore.op_name = Ops.enzyme_ad_op then begin
        let kind =
          match Ircore.attr op "add_op" with
          | Some (Attr.String s) -> s
          | _ -> (
            match add_op_of_dialect !current with
            | Some a -> a
            | None -> "arith.addf")
        in
        Ircore.set_attr op "add_op" (Attr.String kind);
        inferred := kind :: !inferred
      end
      else
        match Treg.lookup op.Ircore.op_name with
        | Some def -> current := level_after !current (Treg.post def op)
        | None -> ())
    script;
  List.rev !inferred

(* ------------------------------------------------------------------ *)
(* The demonstration AD transform                                      *)
(* ------------------------------------------------------------------ *)

(** A deliberately small forward-mode AD: for every differentiable float
    multiply in the target, accumulate a partial-derivative sum using the
    *configured* add kind. The point reproduced from the paper is not the
    math but the configuration: the add ops must come from the dialect
    current at this position of the pipeline, or later lowerings break. *)
let differentiable_mul = [ "shlo.multiply"; "arith.mulf"; "llvm.fmul" ]

let register_enzyme_ad () =
  Treg.register ~name:Ops.enzyme_ad_op
    ~spec:
      {
        Treg.default_spec with
        summary = "demonstration AD emitting adds of the configured dialect";
        arity = Some 1;
        post =
          (fun op ->
            match Ircore.attr op "add_op" with
            | Some (Attr.String s) -> [ Opset.exact s ]
            | _ -> []);
      }
    (fun st op ->
      let add_kind =
        match Ircore.attr op "add_op" with
        | Some (Attr.String s) -> s
        | _ -> "arith.addf"
      in
      match State.lookup_handle st (Ircore.operand ~index:0 op) with
      | Error e -> Error e
      | Ok targets ->
        let rw = State.rewriter st in
        List.iter
          (fun target ->
            let muls =
              Symbol.collect target ~f:(fun o ->
                  List.mem o.Ircore.op_name differentiable_mul)
            in
            List.iter
              (fun mul ->
                (* d(x*y) = x*dy + y*dx; emit the partial-derivative sum
                   using the configured add op *)
                Rewriter.set_ip rw (Builder.After mul);
                let r = Ircore.result mul in
                let x = Ircore.operand ~index:0 mul in
                let y = Ircore.operand ~index:1 mul in
                ignore r;
                let grad =
                  Rewriter.build1 rw ~operands:[| x; y |]
                    ~result_types:[| Ircore.value_typ x |]
                    add_kind
                in
                Ircore.set_attr
                  (Option.get (Ircore.defining_op grad))
                  "enzyme.gradient" Attr.Unit)
              muls)
          targets;
        Ok ())

(** Number of gradient add ops of each kind in a payload (for tests). *)
let count_gradient_adds payload =
  let counts = Hashtbl.create 4 in
  Ircore.walk
    (fun op ->
      if Ircore.has_attr op "enzyme.gradient" then
        Hashtbl.replace counts op.Ircore.op_name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts op.Ircore.op_name)))
    payload;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare
