(** Experiment E8 (Section 3.4, Figure 5): transform-IR introspection.

    An AD transform must emit "add" ops matching the abstraction level at
    its position in the pipeline. We build three scripts placing
    [transform.enzyme_ad] before any lowering (StableHLO level), after the
    shlo→arith lowering, and after the arith→LLVM lowering, run
    {!Transform.Introspect.infer_add_kinds} on each, then execute them and
    check the gradient adds that actually appear in the payload. *)

open Ir

(* a small lowering pass: shlo elementwise ops -> arith (registered once) *)
let registered = ref false

let register_shlo_to_arith () =
  if not !registered then begin
    registered := true;
    let rename to_ rw op =
      let operands = Array.copy op.Ircore.operands in
      let result_types = Array.map Ircore.value_typ op.results in
      ignore (Rewriter.replace_op_with rw op ~operands ~result_types to_)
    in
    Passes.Pass.register
      (Passes.Pass.conversion ~name:"convert-shlo-to-arith"
         ~summary:"lower StableHLO-like elementwise ops to arith"
         ~pre:[ Opset.dialect "shlo" ]
         ~post:
           [
             Opset.exact "arith.addf"; Opset.exact "arith.subf";
             Opset.exact "arith.mulf"; Opset.exact "arith.divf";
             Opset.exact "arith.constant";
           ]
         [
           ("shlo.add", rename "arith.addf");
           ("shlo.subtract", rename "arith.subf");
           ("shlo.multiply", rename "arith.mulf");
           ("shlo.divide", rename "arith.divf");
         ])
  end

(** Payload: a few shlo multiplies on scalars-as-tensors. *)
let payload () =
  let open Dialects in
  let md = Builtin.create_module () in
  let t = Typ.tensor (Typ.static_dims [ 4 ]) Typ.f32 in
  let fop, entry =
    Func.create ~name:"f" ~arg_types:[ t; t ] ~result_types:[ t ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) fop;
  let rw = Dutil.rw_at_end entry in
  let x = Ircore.block_arg entry 0 and y = Ircore.block_arg entry 1 in
  let a = Shlo.multiply rw x y in
  let b = Shlo.multiply rw a x in
  Func.return rw ~operands:[ b ] ();
  md

type level = Before_lowering | After_arith | After_llvm

let script_for level =
  Transform.Build.script (fun rw root ->
      let f = Transform.Build.match_op rw ~name:"func.func" root in
      let ad target =
        Rewriter.build0 rw ~operands:[| target |] Transform.Ops.enzyme_ad_op
      in
      match level with
      | Before_lowering ->
        ad f;
        ignore
          (Transform.Build.apply_registered_pass rw
             ~pass_name:"convert-shlo-to-arith" f)
      | After_arith ->
        let f2 =
          Transform.Build.apply_registered_pass rw
            ~pass_name:"convert-shlo-to-arith" f
        in
        ad f2
      | After_llvm ->
        let f2 =
          Transform.Build.apply_registered_pass rw
            ~pass_name:"convert-shlo-to-arith" f
        in
        let f3 =
          Transform.Build.apply_registered_pass rw
            ~pass_name:"convert-arith-to-llvm" f2
        in
        ad f3)

type row = {
  level_name : string;
  inferred_add : string;
  gradient_adds : (string * int) list;  (** op name -> count in payload *)
}

let run_level ctx (name, level) =
  let script = script_for level in
  let inferred = Transform.Introspect.infer_add_kinds script in
  let md = payload () in
  (match Transform.Schedule.run ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e -> failwith (Fmt.str "%s: %s" name (Transform.Terror.to_string e)));
  {
    level_name = name;
    inferred_add = (match inferred with [ k ] -> k | _ -> "?");
    gradient_adds = Transform.Introspect.count_gradient_adds md;
  }

let run ctx =
  register_shlo_to_arith ();
  List.map (run_level ctx)
    [
      ("AD at StableHLO level", Before_lowering);
      ("AD at arith level", After_arith);
      ("AD at LLVM level", After_llvm);
    ]

let pp_rows fmt rows =
  Fmt.pf fmt "%-24s %-12s %s@." "Placement" "inferred add" "gradient adds in payload";
  List.iter
    (fun r ->
      Fmt.pf fmt "%-24s %-12s %a@." r.level_name r.inferred_add
        (Fmt.list ~sep:Fmt.comma (fun fmt (k, v) -> Fmt.pf fmt "%s x%d" k v))
        r.gradient_adds)
    rows
