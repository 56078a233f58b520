(** Experiment E3 (Table 2, Case Study 2): pre-/post-conditions of the
    lowering passes, the static detection of the leftover [affine.apply] in
    the naive pipeline, and the dynamic counterpart (the unrealized-cast
    legalization failure on the dynamic-offset input). *)

open Ir

type outcome = {
  naive_static : Transform.Conditions.report;
  robust_static : Transform.Conditions.report;
  naive_dynamic_static_offset : (unit, string) result;
  naive_dynamic_dynamic_offset : (unit, string) result;
  robust_dynamic_dynamic_offset : (unit, string) result;
}

(* The op kinds of the Case-Study-2 input program. The memref ops are listed
   exactly (rather than as the {memref.*} wildcard) so the checker can
   discharge them against the precise pre-conditions of the lowering
   passes — a wildcard could only be discharged by a pass claiming to
   consume *all* memref ops, which would hide exactly the
   subview-vs-subview.constr distinction the case study is about. *)
let initial_opset =
  [
    Opset.dialect "func"; Opset.dialect "scf"; Opset.dialect "arith";
    Opset.exact "memref.subview"; Opset.exact "memref.load";
    Opset.exact "memref.store";
  ]

let final_opset = [ Opset.dialect "llvm" ]

let passes_of names = List.map Passes.Pass.lookup_exn names

(** Run a pipeline dynamically on the given payload variant. *)
let run_dynamic ctx names variant =
  let md = Workloads.Subview_kernel.build variant in
  match Passes.Pass.run_pipeline ctx (passes_of names) md with
  | Ok () -> Ok ()
  | Error d -> Error (Ir.Diag.to_string d)

let run ctx =
  let naive = passes_of Workloads.Subview_kernel.naive_pipeline in
  let robust = passes_of Workloads.Subview_kernel.robust_pipeline in
  {
    naive_static =
      Transform.Conditions.check_passes ~initial:initial_opset
        ~final:final_opset naive;
    robust_static =
      Transform.Conditions.check_passes ~initial:initial_opset
        ~final:final_opset robust;
    naive_dynamic_static_offset =
      run_dynamic ctx Workloads.Subview_kernel.naive_pipeline
        Workloads.Subview_kernel.Static_offset;
    naive_dynamic_dynamic_offset =
      run_dynamic ctx Workloads.Subview_kernel.naive_pipeline
        Workloads.Subview_kernel.Dynamic_offset;
    robust_dynamic_dynamic_offset =
      run_dynamic ctx Workloads.Subview_kernel.robust_pipeline
        Workloads.Subview_kernel.Dynamic_offset;
  }

(** Print the pre/post-condition table itself (Table 2). *)
let pp_conditions fmt () =
  Fmt.pf fmt "%-28s %-28s %s@." "Pass" "Pre-conditions" "Post-conditions";
  List.iter
    (fun name ->
      let p = Passes.Pass.lookup_exn name in
      Fmt.pf fmt "%-28s %-28s %s@." name
        (Opset.to_string p.Passes.Pass.pre)
        (Opset.to_string p.Passes.Pass.post))
    Workloads.Subview_kernel.naive_pipeline

let pp_outcome fmt o =
  Fmt.pf fmt "--- static check: naive pipeline (1-7) ---@.";
  Transform.Conditions.pp_report fmt o.naive_static;
  Fmt.pf fmt "--- static check: robust pipeline (with lower-affine) ---@.";
  Transform.Conditions.pp_report fmt o.robust_static;
  let pr name = function
    | Ok () -> Fmt.pf fmt "%-45s OK@." name
    | Error e -> Fmt.pf fmt "%-45s ERROR: %s@." name e
  in
  Fmt.pf fmt "--- dynamic runs ---@.";
  pr "naive pipeline, static offset" o.naive_dynamic_static_offset;
  pr "naive pipeline, dynamic offset" o.naive_dynamic_dynamic_offset;
  pr "robust pipeline, dynamic offset" o.robust_dynamic_dynamic_offset
