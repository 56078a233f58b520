(* Regression tests for the first bugs found by the otd-fuzz differential
   campaign. Each checked-in reproducer embeds the pipeline that exposed
   the bug (the pass manager's crash-reproducer header format) and must now
   sail through the differential oracle: execute, transform, verify,
   execute again, compare. *)

open Testutil

let reproducers =
  [
    (* convert-arith-to-llvm skipped select/maxsi/minsi/sitofp, stranding
       unrealized casts that reconcile-unrealized-casts then rejected *)
    "regressions/fuzz-seed42-arith-to-llvm-select.mlir";
    (* the interpreter had no execution support for llvm compute ops, so
       fully lowered modules could not run at all *)
    "regressions/fuzz-seed42-interp-llvm-compute.mlir";
    (* finalize-memref-to-llvm emitted a size-less llvm.alloca, losing the
       allocation size the interpreter and cache model need *)
    "regressions/fuzz-seed42-memref-alloca-size.mlir";
  ]

let test_reproducer path () =
  let src = read_file path in
  let m = parse_file path in
  let pipeline =
    match Passes.Reproducer.pipeline src with
    | Some p -> p
    | None -> Alcotest.failf "%s: no embedded pipeline" path
  in
  match Fuzz.Oracle.differential ctx ~pipeline m with
  | Ok () -> ()
  | Error f -> Alcotest.failf "%a" Fuzz.Oracle.pp_failure f

(* the structural half of the alloca fix: the lowering must keep an explicit
   element-count operand on llvm.alloca (real MLIR's alloca has one too) *)
let test_alloca_has_size_operand () =
  let m = parse_file "regressions/fuzz-seed42-memref-alloca-size.mlir" in
  (match run_pipeline Workloads.Subview_kernel.naive_pipeline m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lowering failed: %s" e);
  let allocas = Ir.Symbol.collect_ops ~op_name:"llvm.alloca" m in
  check cb "alloca present" true (allocas <> []);
  List.iter
    (fun a ->
      check cb "alloca carries a size operand" true
        (Ir.Ircore.operands a <> []))
    allocas

(* found by the flow-diff campaign (seed 7, case 106): canonicalizing
   through a select=all scf.for handle erased a single-trip loop, and the
   loop nested inside it survived State.prune as a detached corpse (its
   op_parent still pointed into the erased region). The next transform on
   the same handle then indexed operand 0 of the corpse and raised
   Invalid_argument. The script must now run cleanly and keep only the
   genuinely live loop in the payload. *)
let test_stale_loop_handle () =
  let script =
    parse_file "regressions/flowdiff-seed7-stale-loop-handle-script.mlir"
  in
  let m = parse_file "regressions/flowdiff-seed7-stale-loop-handle.mlir" in
  (match Transform.Schedule.run ctx ~script ~payload:m with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "stale-handle script failed: %s"
      (Transform.Terror.to_string e));
  (* the single-trip middle loop must be gone, and its spliced body (plus
     tiling) accounts for every remaining loop *)
  check cb "canonicalize erased the single-trip loop" true
    (count "scf.for" m >= 2)

let () =
  Alcotest.run "regressions"
    [
      ( "fuzz-found",
        List.map
          (fun path ->
            Alcotest.test_case (Filename.basename path) `Quick
              (test_reproducer path))
          reproducers
        @ [
            Alcotest.test_case "alloca-size-operand" `Quick
              test_alloca_has_size_operand;
            Alcotest.test_case "stale-loop-handle" `Quick
              test_stale_loop_handle;
          ] );
    ]
