(* Transactional-execution recovery tests: payload checkpoint/rollback
   under [transform.alternatives] and [failures(suppress)] sequences,
   exception containment at the interpreter boundary, execution budgets,
   and a fault-injection smoke campaign.

   The deliberately-misbehaving transforms below mutate the payload
   *before* failing — the worst case for rollback: a correct
   implementation must restore the payload byte-for-byte and leave the
   handle table usable. *)

open Ir
open Testutil
module T = Transform

(* ------------------------------------------------------------------ *)
(* test-only transforms                                                *)
(* ------------------------------------------------------------------ *)

let mutate_then_fail_op = "transform.test_mutate_then_fail"
let raise_op = "transform.test_raise"

(* Registered at module initialization; the registry is global, so unique
   names keep this safe even though every test binary links this module. *)
let () =
  T.Treg.register ~name:mutate_then_fail_op
    ~spec:
      {
        T.Treg.default_spec with
        summary = "stamp every target payload op, then fail silenceably";
      }
    (fun st op ->
      match T.State.lookup_handle st (Ircore.operand ~index:0 op) with
      | Error _ as e -> e
      | Ok payload ->
        List.iter
          (fun p -> Ircore.set_attr p "test.mutated" Attr.Unit)
          payload;
        T.Terror.silenceable ~loc:op.Ircore.op_loc
          "test transform failed after mutating %d payload op(s)"
          (List.length payload));
  T.Treg.register ~name:raise_op
    ~spec:
      {
        T.Treg.default_spec with
        summary = "raise an OCaml exception mid-transform";
      }
    (fun st op ->
      (match T.State.lookup_handle st (Ircore.operand ~index:0 op) with
      | Ok (p :: _) -> Ircore.set_attr p "test.mutated" Attr.Unit
      | _ -> ());
      failwith "boom: deliberate test exception")

(* test-only passes, run through [transform.apply_registered_pass]: one
   raises, one outlives a short deadline, one counts its runs *)
let raising_pass = "test-raising-pass"
let sleeping_pass = "test-sleeping-pass"
let counting_pass = "test-counting-pass"
let counted_runs = ref 0

let () =
  List.iter Passes.Pass.register
    [
      Passes.Pass.make ~name:raising_pass (fun _ _ ->
          failwith ("boom: deliberate exception in " ^ raising_pass));
      Passes.Pass.make ~name:sleeping_pass (fun _ _ ->
          Unix.sleepf 0.05;
          Ok ());
      Passes.Pass.make ~name:counting_pass (fun _ _ ->
          incr counted_runs;
          Ok ());
    ]

let registered_passes names =
  match T.From_pipeline.script_of_pipeline_str (String.concat "," names) with
  | Ok script -> script
  | Error d -> Alcotest.fail (Diag.to_string d)

let mutate_then_fail rw target =
  Rewriter.build0 rw ~operands:[| target |] mutate_then_fail_op

let raise_transform rw target =
  Rewriter.build0 rw ~operands:[| target |] raise_op

let mutated_count md =
  List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "test.mutated"))

let counter_value component name =
  match Stats.find_counter ~component name with
  | Some c -> Stats.value c
  | None -> Alcotest.failf "missing stats counter %s/%s" component name

(* ------------------------------------------------------------------ *)
(* alternatives: rollback + handle usability                           *)
(* ------------------------------------------------------------------ *)

let test_alternatives_rollback_byte_identical () =
  let md = matmul () in
  let pre = Printer.op_to_string md in
  let rollbacks0 = counter_value "transform" "rollbacks" in
  let script =
    T.Build.script (fun rw root ->
        T.Build.alternatives rw
          [
            (fun brw -> mutate_then_fail brw root);
            (* read-only fallback: the payload must end up untouched *)
            (fun brw ->
              ignore (T.Build.match_op brw ~name:"func.func" root));
          ])
  in
  ignore (apply_ok script md);
  check cb "payload restored byte-for-byte" true
    (String.equal pre (Printer.op_to_string md));
  check ci "no mutation stamp survives" 0 (mutated_count md);
  check cb "rollback counter advanced" true
    (counter_value "transform" "rollbacks" > rollbacks0);
  check_verifies "payload after rollback" md

let test_alternatives_handles_usable_after_rollback () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        (* the handle is captured before the checkpoint; after rollback it
           must be remapped onto the restored payload and stay usable *)
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        T.Build.alternatives rw
          [
            (fun brw -> mutate_then_fail brw loop);
            (fun brw -> T.Build.annotate brw ~name:"survivor" loop);
          ])
  in
  ignore (apply_ok script md);
  check ci "handle resolved to exactly one restored loop" 1
    (List.length
       (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "survivor")));
  check ci "first region's mutation rolled back" 0 (mutated_count md)

(* The first region commits a consumption (loop_tile consumes [loop] and
   invalidates [inner]'s payload) and only then fails; the rollback must
   undo the committed consumption along with the payload, so the fallback
   region can still use both handles. *)
let test_alternatives_rolls_back_committed_consumption () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        let inner = T.Build.match_op rw ~name:"arith.addf" loop in
        T.Build.alternatives rw
          [
            (fun brw ->
              ignore (T.Build.loop_tile brw ~sizes:[ 4 ] loop);
              ignore
                (T.Build.split_handle brw ~n:7
                   (T.Build.match_op brw ~name:"arith.addi" root)));
            (fun brw ->
              T.Build.annotate brw ~name:"survivor" loop;
              T.Build.annotate brw ~name:"inner" inner);
          ])
  in
  let steps = apply_ok script md in
  let annotated name =
    List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o name))
  in
  check ci "steps" 8 steps;
  check ci "loop handle usable after rollback" 1 (annotated "survivor");
  check ci "inner handle usable after rollback" 1 (annotated "inner")

let test_alternatives_definite_aborts_immediately () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        T.Build.alternatives rw
          [
            (* match_op with no filter is a definite error: later regions
               must NOT be tried *)
            (fun brw -> ignore (T.Build.match_op brw root));
            (fun brw -> T.Build.annotate brw ~name:"reached" root);
          ])
  in
  (match apply_err script md with
  | T.Terror.Definite _ -> ()
  | T.Terror.Silenceable d ->
    Alcotest.failf "expected definite abort, got silenceable: %s"
      (Diag.message d));
  check ci "second region never ran" 0
    (List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "reached")))

(* ------------------------------------------------------------------ *)
(* failures(suppress)                                                  *)
(* ------------------------------------------------------------------ *)

let test_suppress_rolls_back_and_downgrades () =
  let md = matmul () in
  let pre = Printer.op_to_string md in
  let captured = ref [] in
  let script =
    T.Build.script (fun rw _root ->
        ignore
          (T.Build.nested_sequence rw ~failure_propagation:"suppress"
             (fun brw seq_root -> mutate_then_fail brw seq_root)))
  in
  let result =
    Context.with_diag_handler ctx
      (fun d -> captured := d :: !captured)
      (fun () -> apply script md)
  in
  (match result with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "suppress must swallow the failure: %s"
      (T.Terror.to_string e));
  check cb "payload restored byte-for-byte" true
    (String.equal pre (Printer.op_to_string md));
  let warnings =
    List.filter (fun d -> Diag.severity d = Diag.Warning) !captured
  in
  check cb "downgraded warning emitted" true (warnings <> []);
  check cb "warning notes mention suppression" true
    (List.exists
       (fun d ->
         List.exists
           (fun n -> contains (Diag.message n) "failures(suppress)")
           (Diag.notes d))
       warnings)

let test_propagate_is_the_default () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root -> mutate_then_fail rw root)
  in
  match apply_err script md with
  | T.Terror.Silenceable _ -> ()
  | T.Terror.Definite d ->
    Alcotest.failf "expected silenceable propagation: %s" (Diag.message d)

let test_bad_failure_propagation_rejected () =
  let seq =
    T.Build.sequence ~failure_propagation:"sometimes" (fun _rw _root -> ())
  in
  match Verifier.verify ctx seq with
  | Ok () -> Alcotest.fail "verifier accepted failures(sometimes)"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* exception containment                                               *)
(* ------------------------------------------------------------------ *)

let test_exception_becomes_definite_with_backtrace () =
  Printexc.record_backtrace true;
  let md = matmul () in
  let contained0 = counter_value "transform" "exceptions_contained" in
  let script = T.Build.script (fun rw root -> raise_transform rw root) in
  (match apply_err script md with
  | T.Terror.Definite d ->
    check cb "message names the exception barrier" true
      (contains (Diag.message d) "raised an exception");
    check cb "message carries the original failure" true
      (contains (Diag.message d) "boom");
    check cb "diagnostic has notes (backtrace or fallback)" true
      (Diag.notes d <> [])
  | T.Terror.Silenceable d ->
    Alcotest.failf "expected definite error: %s" (Diag.message d));
  check cb "containment counter advanced" true
    (counter_value "transform" "exceptions_contained" > contained0);
  (* the crash left its mutation in place (no enclosing checkpoint), but
     the payload must still verify — containment, not corruption *)
  check_verifies "payload after contained exception" md

let test_exception_inside_alternatives_rolls_back () =
  (* a definite error (from the barrier) aborts alternatives, and the
     checkpointed region is still discarded without corrupting state *)
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        T.Build.alternatives rw [ (fun brw -> raise_transform brw root) ])
  in
  (match apply_err script md with
  | T.Terror.Definite _ -> ()
  | T.Terror.Silenceable d ->
    Alcotest.failf "expected definite error: %s" (Diag.message d));
  check_verifies "payload after aborted alternatives" md

let test_registered_pass_raise_is_definite () =
  (* the pass runner's barrier contains the raise; the crash must stay a
     definite error, so [alternatives] does not roll it back and hide it *)
  let plain = registered_passes [ raising_pass ] in
  let wrapped =
    T.Build.script (fun rw root ->
        T.Build.alternatives rw
          [
            (fun brw ->
              ignore
                (T.Build.apply_registered_pass brw ~pass_name:raising_pass
                   root));
          ])
  in
  List.iter
    (fun (label, script) ->
      match apply_err script (matmul ()) with
      | T.Terror.Definite d ->
        let text = Diag.to_string d in
        check cb (label ^ ": names the pass") true (contains text raising_pass);
        check cb (label ^ ": reports the raise") true
          (contains text "raised an exception")
      | T.Terror.Silenceable d ->
        Alcotest.failf "%s: expected definite error: %s" label
          (Diag.message d))
    [ ("plain", plain); ("in alternatives", wrapped) ]

(* ------------------------------------------------------------------ *)
(* foreach over erased payload                                         *)
(* ------------------------------------------------------------------ *)

let test_foreach_dangling_payload_is_silenceable () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        (* all three nested loops; fully unrolling the outermost erases
           the inner two, so iteration 2 sees a dangling payload op *)
        let loops = T.Build.match_op rw ~name:"scf.for" root in
        let body = Ircore.create_block ~args:[ Typ.transform_any_op ] () in
        let brw = Rewriter.create ~ip:(Builder.At_end body) () in
        T.Build.loop_unroll_full brw (Ircore.block_arg body 0);
        Rewriter.build0 rw ~operands:[| loops |]
          ~regions:[ Ircore.region_with_block body ]
          T.Ops.foreach_op)
  in
  match apply_err script md with
  | T.Terror.Silenceable d ->
    check cb "diagnostic names the dangling iteration" true
      (contains (Diag.message d) "erased or invalidated")
  | T.Terror.Definite d ->
    Alcotest.failf "expected clean silenceable diagnostic: %s"
      (Diag.message d)

(* ------------------------------------------------------------------ *)
(* execution budgets                                                   *)
(* ------------------------------------------------------------------ *)

let test_step_budget_exhaustion () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        (* five interpreter steps: well past a budget of 2 *)
        for _ = 1 to 5 do
          ignore (T.Build.match_op rw ~name:"scf.for" root)
        done)
  in
  let b = Budget.create ~max_steps:2 () in
  (match Budget.with_budget b (fun () -> apply script md) with
  | Error (T.Terror.Silenceable d) ->
    check cb "diagnostic names the step budget" true
      (contains (Diag.message d) "step budget")
  | Error (T.Terror.Definite d) ->
    Alcotest.failf "expected silenceable budget stop: %s" (Diag.message d)
  | Ok _ -> Alcotest.fail "expected the step budget to trip");
  check cb "exhaustion is sticky" true (Budget.exhausted b <> None)

(* a function whose body is one long constant-fold chain: canonicalize
   wants to fold all of it, the budget lets it fold almost none *)
let fold_chain_module n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "\"builtin.module\"() ({\n\
    \  \"func.func\"() ({\n\
    \    %0 = \"arith.constant\"() {value = 1 : i64} : () -> i64\n";
  for i = 1 to n do
    Buffer.add_string buf
      (Fmt.str "    %%%d = \"arith.addi\"(%%%d, %%%d) : (i64, i64) -> i64\n"
         i (i - 1) (i - 1))
  done;
  Buffer.add_string buf
    (Fmt.str
       "    \"func.return\"(%%%d) : (i64) -> ()\n\
       \  }) {sym_name = \"main\", function_type = () -> i64} : () -> ()\n\
        }) : () -> ()\n"
       n);
  match Parser.parse_module (Buffer.contents buf) with
  | Ok m -> m
  | Error e -> Alcotest.failf "fold-chain module: parse error: %s" e

let test_rewrite_budget_on_unrolled_fold_chain () =
  let md = fold_chain_module 30 in
  let b = Budget.create ~max_rewrites:3 () in
  Context.with_diag_handler ctx ignore (fun () ->
      Budget.with_budget b (fun () ->
          match run_pipeline [ "canonicalize" ] md with
          | Ok () -> ()
          | Error e -> Alcotest.failf "canonicalize failed: %s" e));
  (match Budget.exhausted b with
  | Some reason ->
    check cb "reason names the rewrite budget" true
      (contains reason "rewrite budget")
  | None -> Alcotest.fail "expected the rewrite budget to trip");
  check cb "budget counted past the limit" true (Budget.rewrites b > 3);
  check_verifies "payload after budget stop" md

(* the dce pass charges one rewrite per erased op *)
let test_rewrite_budget_on_dce_chain () =
  let md, _ = dead_chain 100 in
  let b = Budget.create ~max_rewrites:10 () in
  let (), diags =
    Context.capture_diags ctx (fun () ->
        Budget.with_budget b (fun () -> run_pass "dce" md))
  in
  check cb "budget exhausted" true (Budget.exhausted b <> None);
  check cb "stopped-early warning" true
    (List.exists
       (fun d ->
         Diag.severity d = Diag.Warning
         && contains (Diag.message d) "stopped early")
       diags);
  check_verifies "payload after budget stop" md

let test_deadline_exhaustion () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        for _ = 1 to 200 do
          ignore (T.Build.match_op rw ~name:"scf.for" root)
        done)
  in
  (* a deadline already in the past: the forced pass-boundary /
     amortized interpreter checks must stop the run *)
  let b = Budget.create ~deadline_ms:0 () in
  Unix.sleepf 0.002;
  match Budget.with_budget b (fun () -> apply script md) with
  | Error (T.Terror.Silenceable d) ->
    check cb "diagnostic names the deadline" true
      (contains (Diag.message d) "deadline")
  | Error (T.Terror.Definite d) ->
    Alcotest.failf "expected silenceable deadline stop: %s" (Diag.message d)
  | Ok _ -> Alcotest.fail "expected the deadline to trip"

let test_deadline_at_pass_boundary () =
  (* the first pass outlives the deadline; the boundary before the second
     samples the clock, so the second never starts *)
  let script = registered_passes [ sleeping_pass; counting_pass ] in
  counted_runs := 0;
  let b = Budget.create ~deadline_ms:20 () in
  (match Budget.with_budget b (fun () -> apply script (matmul ())) with
  | Error (T.Terror.Silenceable d) ->
    check cb "diagnostic names the deadline" true
      (contains (Diag.message d) "deadline")
  | Error (T.Terror.Definite d) ->
    Alcotest.failf "expected silenceable deadline stop: %s" (Diag.message d)
  | Ok _ -> Alcotest.fail "expected the deadline to stop the script");
  check ci "the pass after the boundary did not run" 0 !counted_runs

(* ------------------------------------------------------------------ *)
(* fault-injection smoke run                                           *)
(* ------------------------------------------------------------------ *)

let test_fault_injection_smoke () =
  let stats =
    Fuzz.Fault.run_campaign ~prob:0.5 ctx ~seed:42 ~cases:40 ()
  in
  check ci "no recovery-invariant violations" 0
    (List.length stats.Fuzz.Fault.fs_violations);
  check cb "campaign actually injected faults" true
    (stats.Fuzz.Fault.fs_injected > 0);
  check cb "byte-identical rollbacks were verified" true
    (stats.Fuzz.Fault.fs_rollbacks_verified > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "recovery"
    [
      ( "alternatives",
        [
          Alcotest.test_case "rollback is byte-identical" `Quick
            test_alternatives_rollback_byte_identical;
          Alcotest.test_case "handles usable after rollback" `Quick
            test_alternatives_handles_usable_after_rollback;
          Alcotest.test_case "committed consumption rolled back" `Quick
            test_alternatives_rolls_back_committed_consumption;
          Alcotest.test_case "definite error aborts immediately" `Quick
            test_alternatives_definite_aborts_immediately;
        ] );
      ( "failure-propagation",
        [
          Alcotest.test_case "suppress rolls back and downgrades" `Quick
            test_suppress_rolls_back_and_downgrades;
          Alcotest.test_case "propagate is the default" `Quick
            test_propagate_is_the_default;
          Alcotest.test_case "bad mode rejected by verifier" `Quick
            test_bad_failure_propagation_rejected;
        ] );
      ( "exception-containment",
        [
          Alcotest.test_case "exception becomes definite + backtrace" `Quick
            test_exception_becomes_definite_with_backtrace;
          Alcotest.test_case "exception inside alternatives" `Quick
            test_exception_inside_alternatives_rolls_back;
          Alcotest.test_case "pass raise is definite" `Quick
            test_registered_pass_raise_is_definite;
        ] );
      ( "foreach",
        [
          Alcotest.test_case "dangling payload is silenceable" `Quick
            test_foreach_dangling_payload_is_silenceable;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "step budget" `Quick test_step_budget_exhaustion;
          Alcotest.test_case "rewrite budget on fold chain" `Quick
            test_rewrite_budget_on_unrolled_fold_chain;
          Alcotest.test_case "rewrite budget on dce chain" `Quick
            test_rewrite_budget_on_dce_chain;
          Alcotest.test_case "deadline" `Quick test_deadline_exhaustion;
          Alcotest.test_case "deadline at pass boundary" `Quick
            test_deadline_at_pass_boundary;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "smoke campaign, zero violations" `Quick
            test_fault_injection_smoke;
        ] );
    ]
