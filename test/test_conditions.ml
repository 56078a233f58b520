(* Static pre/post-condition checking of pipelines, and of scripts through
   the op-kind layer of Transform.Flowcheck. *)

open Ir
module T = Transform

let _ctx = T.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let initial = Experiments.Table2.initial_opset

let final = [ Opset.dialect "llvm" ]

let passes names = List.map Passes.Pass.lookup_exn names

let test_naive_pipeline_flagged () =
  let r =
    T.Conditions.check_passes ~initial ~final
      (passes Workloads.Subview_kernel.naive_pipeline)
  in
  check cb "not ok" false (T.Conditions.ok r);
  check cb "leftover includes affine.apply" true
    (List.exists
       (function
         | T.Conditions.Leftover { remaining; _ } ->
           Opset.covers remaining (Opset.exact "affine.apply")
         | _ -> false)
       r.T.Conditions.problems)

let test_robust_pipeline_passes () =
  let r =
    T.Conditions.check_passes ~initial ~final
      (passes Workloads.Subview_kernel.robust_pipeline)
  in
  check cb "ok" true (T.Conditions.ok r)

let test_phase_ordering_violation () =
  (* licm (pre {scf.for}) after convert-scf-to-cf: vacuous *)
  let r =
    T.Conditions.check_passes ~initial ~final:[ Opset.dialect "llvm"; Opset.dialect "cf"; Opset.dialect "arith"; Opset.dialect "func"; Opset.dialect "memref"; Opset.exact "builtin.unrealized_conversion_cast" ]
      (passes [ "convert-scf-to-cf"; "licm" ])
  in
  check cb "vacuous step detected" true
    (List.exists
       (function
         | T.Conditions.Vacuous { step = "licm"; _ } -> true
         | _ -> false)
       r.T.Conditions.problems)

let test_correct_ordering_no_violation () =
  let r =
    T.Conditions.check_passes ~initial
      ~final:
        [ Opset.dialect "cf"; Opset.dialect "arith"; Opset.dialect "func";
          Opset.dialect "memref"; Opset.exact "builtin.unrealized_conversion_cast" ]
      (passes [ "licm"; "convert-scf-to-cf" ])
  in
  check cb "no problems" true (T.Conditions.ok r)

let test_trace_records_every_step () =
  let r =
    T.Conditions.check_passes ~initial ~final
      (passes Workloads.Subview_kernel.naive_pipeline)
  in
  check ci "7 trace entries" 7 (List.length r.T.Conditions.trace)

let test_constrained_subview_distinction () =
  (* finalize-memref-to-llvm consumes only the *constrained* subview; a
     plain memref.subview in the initial set must survive as leftover *)
  let r =
    T.Conditions.check_passes
      ~initial:[ Opset.exact "memref.subview" ]
      ~final
      (passes [ "finalize-memref-to-llvm" ])
  in
  check cb "plain subview leaks through" true
    (List.exists
       (function
         | T.Conditions.Leftover { remaining; _ } ->
           Opset.covers remaining (Opset.exact "memref.subview")
         | _ -> false)
       r.T.Conditions.problems)

let test_unlowered_tosa_leftover () =
  (* tosa-to-linalg has no lowering for tosa.logical_and, so the op must
     survive the pipeline rather than count as consumed *)
  let r =
    T.Conditions.check_passes
      ~initial:[ Opset.exact "tosa.logical_and"; Opset.dialect "func" ]
      ~final:(List.map Opset.dialect [ "linalg"; "tensor"; "func"; "arith"; "math" ])
      (passes [ "tosa-to-linalg" ])
  in
  check cb "tosa.logical_and left over" true
    (List.exists
       (function
         | T.Conditions.Leftover { remaining; _ } ->
           Opset.covers remaining (Opset.exact "tosa.logical_and")
         | _ -> false)
       r.T.Conditions.problems)

(* op-kind problems the script checker reports *)
let cond_problems r =
  List.filter_map
    (function T.Flowcheck.Cond_problem p -> Some p | _ -> None)
    r.T.Flowcheck.fr_problems

let test_script_conditions () =
  (* a transform script built from the naive pipeline checks identically *)
  let script =
    T.From_pipeline.script_of_pipeline
      (passes Workloads.Subview_kernel.naive_pipeline)
  in
  let r = T.Flowcheck.check ~initial ~final script in
  check cb "script flagged too" true
    (List.exists
       (function
         | T.Conditions.Leftover { remaining; _ } ->
           Opset.covers remaining (Opset.exact "affine.apply")
         | _ -> false)
       (cond_problems r))

let test_script_with_loop_transform_order () =
  (* loop_unroll after convert-scf-to-cf in a script: vacuous *)
  let script =
    T.Build.script (fun rw root ->
        let r2 =
          T.Build.apply_registered_pass rw ~pass_name:"convert-scf-to-cf" root
        in
        let loop = T.Build.match_op rw ~name:"scf.for" r2 in
        T.Build.loop_unroll_full rw loop)
  in
  let r =
    T.Flowcheck.check ~initial
      ~final:[ Opset.dialect "cf"; Opset.dialect "arith"; Opset.dialect "func";
               Opset.dialect "memref"; Opset.exact "builtin.unrealized_conversion_cast" ]
      script
  in
  check cb "ordering violation found" true
    (List.exists
       (function T.Conditions.Vacuous _ -> true | _ -> false)
       (cond_problems r))

let test_from_pipeline_roundtrip () =
  let ps = passes Workloads.Subview_kernel.naive_pipeline in
  let script = T.From_pipeline.script_of_pipeline ps in
  let back = T.From_pipeline.passes_of_script script in
  check ci "same length" (List.length ps) (List.length back);
  List.iter2
    (fun a b ->
      check Alcotest.string "same pass" a.Passes.Pass.name b.Passes.Pass.name)
    ps back

let () =
  Alcotest.run "conditions"
    [
      ( "pipelines",
        [
          Alcotest.test_case "naive flagged" `Quick test_naive_pipeline_flagged;
          Alcotest.test_case "robust passes" `Quick test_robust_pipeline_passes;
          Alcotest.test_case "phase-ordering violation" `Quick
            test_phase_ordering_violation;
          Alcotest.test_case "correct ordering" `Quick
            test_correct_ordering_no_violation;
          Alcotest.test_case "trace complete" `Quick
            test_trace_records_every_step;
          Alcotest.test_case "constrained subview distinction" `Quick
            test_constrained_subview_distinction;
          Alcotest.test_case "unlowered tosa leftover" `Quick
            test_unlowered_tosa_leftover;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "script conditions" `Quick test_script_conditions;
          Alcotest.test_case "loop transform ordering" `Quick
            test_script_with_loop_transform_order;
          Alcotest.test_case "pipeline<->script round-trip" `Quick
            test_from_pipeline_roundtrip;
        ] );
    ]
