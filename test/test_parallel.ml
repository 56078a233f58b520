(* Multicore pass manager: function-at-a-time parallel scheduling.

   Four properties, each checked against the sequential schedule:
   - the five Table-1 models lower to byte-identical IR at any job count;
   - diagnostics from per-function failures replay in source order, and
     the reported failure is the first failing function in source order,
     regardless of domain interleaving; so do remarks and trace events;
   - a shared budget binds globally: exhaustion on one domain stops the
     whole fan-out with the same diagnostic the sequential run reports;
   - a 64-function canonicalize stress survives the fuzz oracle families
     (print-parse fixpoint, verifier, clone equivalence, differential
     execution) with the pool engaged. *)

open Ir

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string
let ci = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* every test restores the sequential default, whatever happens *)
let with_jobs n f =
  let saved = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* pass registration is a side effect of building the full context *)
let () = ignore (Transform.Register.full_context ())

let lowering_passes () =
  match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
  | Ok ps -> ps
  | Error d -> Alcotest.fail (Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* parallel vs sequential: byte-identical IR on the Table-1 models      *)
(* ------------------------------------------------------------------ *)

let test_models_ir_equal () =
  let passes = lowering_passes () in
  List.iter
    (fun spec ->
      let run jobs =
        let ctx = Transform.Register.full_context () in
        let md = Workloads.Models.build ~funcs:8 spec in
        with_jobs jobs (fun () -> Testutil.run_verifying ctx passes md);
        Printer.op_to_string md
      in
      let seq = run 1 and par = run 4 in
      check cs
        (Fmt.str "%s: jobs=4 output = jobs=1 output"
           spec.Workloads.Models.sp_name)
        seq par)
    Workloads.Models.paper_models

(* splitting the op budget across functions must conserve the op count *)
let test_multi_func_op_count () =
  List.iter
    (fun spec ->
      List.iter
        (fun funcs ->
          let md = Workloads.Models.build ~funcs spec in
          check ci
            (Fmt.str "%s at %d funcs" spec.Workloads.Models.sp_name funcs)
            spec.Workloads.Models.sp_ops
            (Workloads.Models.count_ops md))
        [ 1; 3; 8 ])
    Workloads.Models.paper_models

(* ------------------------------------------------------------------ *)
(* deterministic diagnostics under induced per-function failures        *)
(* ------------------------------------------------------------------ *)

(* a function-parallel pass that reports every function it visits and
   fails on those whose symbol name [fails] selects *)
let visiting_pass ~fails =
  Passes.Pass.make ~name:"test-visit" ~function_parallel:true
    (fun ctx op ->
      let visit f =
        let name = Dialects.Func.name f in
        Diag.emit (Context.diag_engine ctx)
          (Diag.remark "visited %s" name);
        if fails name then Error (Diag.error "induced failure in %s" name)
        else Ok ()
      in
      (* sequential runs hand the pass the whole module; parallel runs
         hand it one function at a time *)
      if op.Ircore.op_name = "func.func" then visit op
      else
        List.fold_left
          (fun acc f -> if Result.is_error acc then acc else visit f)
          (Ok ())
          (Symbol.collect_ops ~op_name:"func.func" op))

let eight_funcs () =
  Workloads.Models.build ~funcs:8
    {
      Workloads.Models.sp_name = "m";
      sp_ops = 24;
      sp_style = Workloads.Models.Transformer;
    }

let run_with_captured_diags jobs pass md =
  let ctx = Transform.Register.full_context () in
  let seen = ref [] in
  Diag.push_handler (Context.diag_engine ctx) (fun d ->
      seen := Diag.message d :: !seen);
  let r =
    with_jobs jobs (fun () -> Passes.Pass.run_pipeline ctx [ pass ] md)
  in
  (r, List.rev !seen)

let test_deterministic_diags () =
  (* functions m_2 and m_5 fail; every function reports a visit remark *)
  let fails n = n = "m_2" || n = "m_5" in
  let pass = visiting_pass ~fails in
  let seq_r, seq_diags = run_with_captured_diags 1 pass (eight_funcs ()) in
  let par_r, par_diags = run_with_captured_diags 4 pass (eight_funcs ()) in
  (match (seq_r, par_r) with
  | Error ds, Error dp ->
    check cs "same failure diagnostic" (Diag.to_string ds) (Diag.to_string dp);
    check cb "first failing function in source order (m_2)" true
      (contains (Diag.message dp) "m_2")
  | _ -> Alcotest.fail "both schedules must fail");
  (* the parallel replay is source-ordered: identical to sequential up to
     the point the sequential schedule stopped (it short-circuits at the
     first failure; the parallel one runs every function and reports the
     first failure in source order) *)
  check
    Alcotest.(list string)
    "sequential diag prefix preserved" seq_diags
    (List.filteri (fun i _ -> i < List.length seq_diags) par_diags);
  (* parallel visits everything, in source order *)
  check
    Alcotest.(list string)
    "parallel visit order is source order"
    [ "visited m_0"; "visited m_1"; "visited m_2"; "visited m_3";
      "visited m_4"; "visited m_5"; "visited m_6"; "visited m_7" ]
    par_diags;
  (* and the merge is reproducible run-to-run *)
  let _, par_diags' = run_with_captured_diags 4 pass (eight_funcs ()) in
  check Alcotest.(list string) "replay is reproducible" par_diags par_diags'

(* ------------------------------------------------------------------ *)
(* deterministic remark and trace streams                               *)
(* ------------------------------------------------------------------ *)

(* a variant of [visiting_pass] that reports one Passed remark per
   function and then canonicalizes what it was handed, so every worker
   emits both remarks and greedy trace events *)
let remarking_pass =
  Passes.Pass.make ~name:"test-remark" ~function_parallel:true
    (fun ctx op ->
      let funcs =
        if op.Ircore.op_name = "func.func" then [ op ]
        else Symbol.collect_ops ~op_name:"func.func" op
      in
      List.iter
        (fun f ->
          Action.remark
            (Remark.passed ~pass:"test-remark" "visited %s"
               (Dialects.Func.name f)))
        funcs;
      (Passes.Pass.lookup_exn "canonicalize").Passes.Pass.run ctx op)

(* run [remarking_pass] on [eight_funcs] at [jobs]; returns the remark
   messages in emission order and the rendered trace *)
let run_streams jobs =
  let ctx = Transform.Register.full_context () in
  let md = eight_funcs () in
  let actions = Action.create () in
  (match
     with_jobs jobs (fun () ->
         Action.with_context actions (fun () ->
             Passes.Pass.run_pipeline ctx [ remarking_pass ] md))
   with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  ( List.map (fun r -> r.Remark.r_message) (Action.remarks actions),
    Trace.to_json (Action.traces actions) )

let test_deterministic_streams () =
  let source_order = List.init 8 (Printf.sprintf "visited m_%d") in
  let traces =
    List.map
      (fun jobs ->
        let remarks, trace = run_streams jobs in
        check
          Alcotest.(list string)
          (Fmt.str "remarks in source order at jobs=%d" jobs)
          source_order remarks;
        Json.to_string trace)
      [ 1; 2; 4; 4 ]
  in
  (* jobs=1 hands canonicalize the whole module (one greedy event); the
     parallel schedules run it once per function and replay the events
     in source order *)
  match traces with
  | [ _; t2; t4; t4' ] ->
    check cs "trace at jobs=2 = trace at jobs=4" t2 t4;
    check cs "trace at jobs=4 is reproducible" t4 t4';
    (match Json.parse t4 with
    | Ok (Json.List events) ->
      check ci "one greedy event per function" 8 (List.length events)
    | _ -> Alcotest.fail "trace is not a JSON list")
  | _ -> assert false

(* the --timing view nests the calling domain's pass spans, so its names
   and nesting do not depend on how many domains ran the functions *)
let test_timing_view_shape () =
  let rec shape (t : Profiler.timing) =
    Fmt.str "%s(%s)" t.Profiler.name
      (String.concat "," (List.map shape t.Profiler.children))
  in
  let run jobs =
    let ctx = Transform.Register.full_context () in
    let md = eight_funcs () in
    let p = Profiler.create () in
    (match
       with_jobs jobs (fun () ->
           Profiler.with_profiler p (fun () ->
               Passes.Pass.run_pipeline ctx
                 (List.map Passes.Pass.lookup_exn
                    [ "canonicalize"; "cse"; "canonicalize" ])
                 md))
     with
    | Ok () -> ()
    | Error d -> Alcotest.fail (Diag.to_string d));
    String.concat ";" (List.map shape (Profiler.timing p))
  in
  let seq = run 1 in
  check cs "jobs=1 view"
    "pipeline(canonicalize(),cse(),canonicalize())"
    seq;
  List.iter
    (fun jobs -> check cs (Fmt.str "jobs=%d view = jobs=1 view" jobs) seq (run jobs))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* shared budget: exhaustion on one domain stops all workers            *)
(* ------------------------------------------------------------------ *)

let stepping_pass =
  Passes.Pass.make ~name:"test-step" ~function_parallel:true
    (fun _ctx op ->
      let steps = if op.Ircore.op_name = "func.func" then 10 else 80 in
      let rec go i =
        if i = 0 then Ok ()
        else
          match Budget.step () with
          | Some reason -> Error (Diag.error "stopped: %s" reason)
          | None -> go (i - 1)
      in
      go steps)

let test_shared_budget_exhaustion () =
  let run jobs =
    let ctx = Transform.Register.full_context () in
    let md = eight_funcs () in
    let b = Budget.create ~max_steps:25 () in
    let r =
      with_jobs jobs (fun () ->
          Budget.with_budget b (fun () ->
              Passes.Pass.run_pipeline ctx [ stepping_pass ] md))
    in
    (r, Budget.steps b)
  in
  let seq_r, _ = run 1 in
  let par_r, par_steps = run 4 in
  (match (seq_r, par_r) with
  | Error _, Error d ->
    check cb "budget exhaustion reported" true
      (contains (Diag.to_string d) "step budget")
  | _ -> Alcotest.fail "both schedules must exhaust the budget");
  (* the counter is shared: 8 functions x 10 steps each would be 80, but
     every worker observes the same atomic exhaustion and stops early at
     its next charge. Workers already past the check may each charge at
     most their remaining steps, so the total stays well under 80. *)
  check cb
    (Fmt.str "workers stopped early (%d steps charged)" par_steps)
    true (par_steps < 80)

(* ------------------------------------------------------------------ *)
(* canonicalize stress: 64 functions, jobs=4, fuzz oracle families      *)
(* ------------------------------------------------------------------ *)

(* a trivially executable [main] so the fuzz differential oracle has an
   entry point alongside the 64 generated functions *)
let add_main md =
  let open Dialects in
  let f, entry =
    Func.create ~name:"main" ~arg_types:[] ~result_types:[ Typ.i64 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let a = Dutil.const_int rw ~typ:Typ.i64 20 in
  let b = Dutil.const_int rw ~typ:Typ.i64 22 in
  let s = Arith.binop rw "addi" a b in
  Func.return rw ~operands:[ s ] ()

let test_canonicalize_stress_64 () =
  let spec =
    { Workloads.Models.sp_name = "stress"; sp_ops = 640;
      sp_style = Workloads.Models.Transformer }
  in
  let stress () =
    let md = Workloads.Models.build ~funcs:64 spec in
    add_main md;
    md
  in
  let ctx = Transform.Register.full_context () in
  (* byte-identical canonicalization at both degrees *)
  let canon jobs =
    let md = stress () in
    with_jobs jobs (fun () ->
        Testutil.run_verifying ctx
          [ Passes.Pass.lookup_exn "canonicalize" ]
          md);
    Printer.op_to_string md
  in
  check cs "64-func canonicalize, jobs=4 = jobs=1" (canon 1) (canon 4);
  (* the fuzz oracle families (print-parse fixpoint, verifier, clone
     equivalence, differential execution of [main]) hold with the pool
     engaged *)
  with_jobs 4 (fun () ->
      match Fuzz.Oracle.run_all ctx ~pipelines:[ "canonicalize" ] (stress ())
      with
      | Ok () -> ()
      | Error f -> Alcotest.failf "oracle failed: %a" Fuzz.Oracle.pp_failure f)

(* ------------------------------------------------------------------ *)
(* parallel fuzz campaigns match sequential ones                        *)
(* ------------------------------------------------------------------ *)

let test_fuzz_campaign_parity () =
  let campaign jobs =
    let ctx = Transform.Register.full_context () in
    let order = ref [] in
    let stats =
      with_jobs jobs (fun () ->
          Fuzz.Driver.run ~shrink:false
            ~on_case:(fun i ~failed -> order := (i, failed) :: !order)
            ~pipelines:[ "canonicalize,cse" ] ctx ~seed:11 ~cases:12 ())
    in
    (stats, List.rev !order)
  in
  let seq, seq_order = campaign 1 in
  let par, par_order = campaign 4 in
  check ci "same case count" seq.Fuzz.Driver.s_cases par.Fuzz.Driver.s_cases;
  check ci "same failure count"
    (List.length seq.Fuzz.Driver.s_failures)
    (List.length par.Fuzz.Driver.s_failures);
  check
    Alcotest.(list (pair int bool))
    "case order and verdicts identical" seq_order par_order

let () =
  Alcotest.run "parallel"
    [
      ( "scheduling",
        [
          Alcotest.test_case "models-ir-equal" `Quick test_models_ir_equal;
          Alcotest.test_case "multi-func-op-count" `Quick
            test_multi_func_op_count;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "diag-order" `Quick test_deterministic_diags;
          Alcotest.test_case "remark-trace-streams" `Quick
            test_deterministic_streams;
          Alcotest.test_case "fuzz-campaign-parity" `Quick
            test_fuzz_campaign_parity;
          Alcotest.test_case "timing-view-shape" `Quick
            test_timing_view_shape;
        ] );
      ( "budget",
        [
          Alcotest.test_case "shared-exhaustion" `Quick
            test_shared_budget_exhaustion;
        ] );
      ( "stress",
        [
          Alcotest.test_case "canonicalize-64-funcs" `Quick
            test_canonicalize_stress_64;
        ] );
    ]
