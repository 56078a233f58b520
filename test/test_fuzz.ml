(* The fuzzing subsystem itself: generator determinism and well-typedness,
   oracle behavior on known-good and known-bad modules, shrinker progress,
   and a fixed-seed smoke corpus (200 cases) run at test time so every
   `dune runtest` exercises the whole generate → oracle → shrink loop. *)

open Ir
open Dialects
open Testutil

let cs = Alcotest.string

(* ---------------- generator ---------------- *)

let test_generator_deterministic () =
  let p seed case =
    Printer.op_to_string (Fuzz.Driver.module_for ~seed ~case ())
  in
  check cs "same (seed, case) -> same module" (p 11 3) (p 11 3);
  check cb "different case -> different module" true (p 11 3 <> p 11 4)

let test_generator_well_typed () =
  for case = 0 to 19 do
    let m = Fuzz.Driver.module_for ~seed:5 ~case () in
    match Verifier.verify ctx m with
    | Ok () -> ()
    | Error ds ->
      Alcotest.failf "case %d: %a" case
        Fmt.(list ~sep:comma Diag.pp_headline)
        ds
  done

let test_generator_entry_runs () =
  let m = Fuzz.Driver.module_for ~seed:5 ~case:0 () in
  match
    Interp.Compile.run_function ~ir_ctx:ctx ~module_:m ~name:Fuzz.Gen.entry_name
      []
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "main does not execute: %s" e

(* ---------------- oracles ---------------- *)

let test_oracle_accepts_good_module () =
  let m = Fuzz.Driver.module_for ~seed:3 ~case:1 () in
  match Fuzz.Oracle.run_all ctx m with
  | Ok () -> ()
  | Error f -> Alcotest.failf "%a" Fuzz.Oracle.pp_failure f

let test_differential_clean_module () =
  (* differential on a hand-written module through a real pipeline: a
     correct pass must never be flagged (no false positives) *)
  let src =
    {|"builtin.module"() ({
  "func.func"() ({
    %0 = "arith.constant"() {value = 2 : i64} : () -> i64
    %1 = "arith.constant"() {value = 3 : i64} : () -> i64
    %2 = "arith.divsi"(%0, %1) : (i64, i64) -> i64
    "func.return"(%2) : (i64) -> ()
  }) {sym_name = "main", function_type = () -> i64} : () -> ()
}) : () -> ()|}
  in
  let m =
    match Parser.parse_module src with
    | Ok m -> m
    | Error e -> Alcotest.failf "parse: %s" e
  in
  match Fuzz.Oracle.differential ctx ~pipeline:"canonicalize" m with
  | Ok () -> ()
  | Error f -> Alcotest.failf "clean module flagged: %a" Fuzz.Oracle.pp_failure f

let test_llvm_pipeline_skipped_on_tensor () =
  (* tensor ops have no llvm lowering; the oracle must treat the CS2
     pipeline as inapplicable rather than reporting a compiler bug *)
  let md = Builtin.create_module () in
  let rng = Random.State.make [| 9 |] in
  Ircore.insert_at_end (Builtin.body_block md)
    (Fuzz.Gen.gen_tensor_function rng "t");
  let pipeline = String.concat "," Workloads.Subview_kernel.naive_pipeline in
  check cb "inapplicable" false (Fuzz.Oracle.applicable ~pipeline md);
  check cb "canonicalize applicable" true
    (Fuzz.Oracle.applicable ~pipeline:"canonicalize" md)

(* ---------------- shrinker ---------------- *)

let test_shrinker_minimizes () =
  let m = Fuzz.Driver.module_for ~seed:8 ~case:2 () in
  (* synthetic failure: "any module whose main contains an arith.constant";
     the shrinker must keep the property while strictly shrinking *)
  let has_const c = count "arith.constant" c > 0 in
  let before = Fuzz.Shrink.op_count m in
  let small = Fuzz.Shrink.shrink m ~still_fails:has_const in
  check cb "still has witness" true (has_const small);
  check cb "strictly smaller" true (Fuzz.Shrink.op_count small < before);
  Verifier.verify_or_fail ctx small

(* ---------------- reproducer format ---------------- *)

let test_reproducer_replayable () =
  let f =
    {
      Fuzz.Oracle.f_oracle = "differential";
      f_pipeline = Some "canonicalize,cse";
      f_detail = "results differ";
      f_module = "";
    }
  in
  let m = Fuzz.Driver.module_for ~seed:1 ~case:1 () in
  let text =
    Fuzz.Driver.reproducer_text ~seed:1 ~case:1 f (Printer.op_to_string m)
  in
  check cb "embeds pipeline" true
    (contains text "// configuration: --pass-pipeline=canonicalize,cse");
  (* the reproducer body must reparse (comments are skipped by the lexer) *)
  match Parser.parse_module text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "reproducer does not reparse: %s" e

(* ---------------- smoke corpus ---------------- *)

let test_smoke_corpus () =
  let stats = Fuzz.Driver.run ctx ~seed:42 ~cases:200 () in
  (match stats.Fuzz.Driver.s_failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "case %d: %a\nminimized:\n%s" f.Fuzz.Driver.r_case
      Fuzz.Oracle.pp_failure f.Fuzz.Driver.r_failure f.Fuzz.Driver.r_minimized);
  check ci "all cases ran" 200 stats.Fuzz.Driver.s_cases

(* ---------------- flow differential ---------------- *)

let test_script_gen_deterministic () =
  let p seed case =
    let rng = Random.State.make [| 0x07d; seed; case |] in
    ignore (Fuzz.Gen.generate rng);
    Printer.op_to_string (Fuzz.Script_gen.generate rng)
  in
  check cs "same (seed, case) -> same script" (p 11 3) (p 11 3);
  check cb "different case -> different script" true (p 11 3 <> p 11 4)

let test_flow_diff_quick_cases () =
  (* a handful of inline cases before the big campaigns: every one must be
     either statically rejected or dynamically agreed, never divergent *)
  for case = 0 to 24 do
    let rng = Random.State.make [| 0x07d; 42; case |] in
    let m = Fuzz.Gen.generate rng in
    let script = Fuzz.Script_gen.generate rng in
    match Fuzz.Oracle.flow_diff ctx ~script m with
    | Ok (Fuzz.Oracle.Flow_rejected | Fuzz.Oracle.Flow_agreed) -> ()
    | Error f -> Alcotest.failf "case %d: %a" case Fuzz.Oracle.pp_failure f
  done

let flow_diff_campaign seed () =
  let stats = Fuzz.Driver.run_flow_diff ctx ~seed ~cases:500 () in
  (match stats.Fuzz.Driver.s_failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "case %d: %a\nscript:\n%s" f.Fuzz.Driver.r_case
      Fuzz.Oracle.pp_failure f.Fuzz.Driver.r_failure f.Fuzz.Driver.r_minimized);
  check ci "all cases ran" 500 stats.Fuzz.Driver.s_cases

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "well-typed" `Quick test_generator_well_typed;
          Alcotest.test_case "entry-runs" `Quick test_generator_entry_runs;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "accepts-good" `Quick test_oracle_accepts_good_module;
          Alcotest.test_case "clean-differential" `Quick
            test_differential_clean_module;
          Alcotest.test_case "tensor-skips-llvm-pipeline" `Quick
            test_llvm_pipeline_skipped_on_tensor;
        ] );
      ( "shrink",
        [ Alcotest.test_case "minimizes" `Quick test_shrinker_minimizes ] );
      ( "driver",
        [
          Alcotest.test_case "reproducer-replayable" `Quick
            test_reproducer_replayable;
          Alcotest.test_case "smoke-corpus-200" `Slow test_smoke_corpus;
        ] );
      ( "flow-diff",
        [
          Alcotest.test_case "script-gen-deterministic" `Quick
            test_script_gen_deterministic;
          Alcotest.test_case "quick-cases" `Quick test_flow_diff_quick_cases;
          Alcotest.test_case "campaign-500-seed42" `Slow
            (flow_diff_campaign 42);
          Alcotest.test_case "campaign-500-seed7" `Slow (flow_diff_campaign 7);
        ] );
    ]
