(* Experiments: small-scale end-to-end checks that each case study
   reproduces the paper's qualitative result. *)

module E = Experiments

let ctx = Transform.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Table 2 / Case Study 2                                              *)
(* ------------------------------------------------------------------ *)

let test_table2_outcomes () =
  let o = E.Table2.run ctx in
  check cb "naive statically flagged" false
    (Transform.Conditions.ok o.E.Table2.naive_static);
  check cb "robust statically clean" true
    (Transform.Conditions.ok o.E.Table2.robust_static);
  check cb "naive+static runs" true
    (Result.is_ok o.E.Table2.naive_dynamic_static_offset);
  check cb "naive+dynamic fails" true
    (Result.is_error o.E.Table2.naive_dynamic_dynamic_offset);
  check cb "robust+dynamic runs" true
    (Result.is_ok o.E.Table2.robust_dynamic_dynamic_offset)

(* ------------------------------------------------------------------ *)
(* Case Study 3                                                        *)
(* ------------------------------------------------------------------ *)

let test_cs3_finds_culprit () =
  let o = E.Cs3.run ctx in
  check Alcotest.string "culprit identified"
    Dialects.Shlo_patterns.culprit o.E.Cs3.culprit;
  check cb "full set regresses" true
    (o.E.Cs3.full_estimate > o.E.Cs3.baseline_estimate);
  check cb "regression is single-digit-ish percent" true
    (let pct =
       (o.E.Cs3.full_estimate -. o.E.Cs3.baseline_estimate)
       /. o.E.Cs3.baseline_estimate *. 100.
     in
     pct > 2.0 && pct < 25.0);
  check cb "fixed set improves over baseline" true
    (o.E.Cs3.fixed_estimate < o.E.Cs3.baseline_estimate);
  check cb "few probes (binary search)" true (List.length o.E.Cs3.probes <= 9);
  check cb "probing much cheaper than rebuilds" true
    (o.E.Cs3.transform_total_s *. 10.0 < o.E.Cs3.rebuild_total_estimate_s)

(* ------------------------------------------------------------------ *)
(* Case Study 4                                                        *)
(* ------------------------------------------------------------------ *)

let test_cs4_shape () =
  let o = E.Cs4.run ctx in
  List.iter
    (fun v ->
      check cb (v.E.Cs4.v_name ^ " correct") true v.E.Cs4.v_correct)
    o.E.Cs4.variants;
  let time name =
    (List.find (fun v -> v.E.Cs4.v_name = name) o.E.Cs4.variants)
      .E.Cs4.v_seconds
  in
  let openmp = time "OpenMP-style tiling" in
  let transform = time "Transform split+tile" in
  (* the paper: OpenMP and Transform versions nearly identical *)
  check cb "openmp ~ transform (within 5%)" true
    (Float.abs (openmp -. transform) /. openmp < 0.05);
  (* the paper: microkernel > 20x faster *)
  check cb "microkernel speedup > 20x" true (o.E.Cs4.speedup_microkernel > 20.0)

(* ------------------------------------------------------------------ *)
(* Case Study 5                                                        *)
(* ------------------------------------------------------------------ *)

let test_cs5_autotuning_improves () =
  let o = E.Cs5.run ~budget:10 ctx in
  check cb "autotuned beats default" true (o.E.Cs5.speedup > 1.2);
  let curve = Autotune.Search.best_curve o.E.Cs5.result in
  let rec mono = function
    | a :: (b :: _ as rest) -> a >= b && mono rest
    | _ -> true
  in
  check cb "evolution monotone" true (mono curve)

let test_cs5_structured_extension () =
  let o = E.Cs5_structured.run ~budget:8 ctx in
  (* the optimizer must discover that the microkernel dominates *)
  check cb "best uses the microkernel" true o.E.Cs5_structured.best_uses_library;
  check cb "best beats every loops-only point" true
    (o.E.Cs5_structured.result.Autotune.Search.best_objective
    < o.E.Cs5_structured.loops_only_best)

let test_cs5_constraint_respected () =
  let space = E.Cs5.space () in
  List.iter
    (fun pt ->
      let c = E.Cs5.config_of_point pt in
      check cb "vectorize implies divisible tile_j" true
        ((not c.E.Cs5.vectorize) || c.E.Cs5.tj mod E.Cs5.vector_width = 0))
    (Autotune.Space.enumerate space)

(* ------------------------------------------------------------------ *)
(* Section 3.4                                                         *)
(* ------------------------------------------------------------------ *)

let test_s34_add_kinds () =
  let rows = E.S34.run ctx in
  check ci "three placements" 3 (List.length rows);
  List.iter
    (fun r ->
      (* the gradient adds in the final payload must carry the marker and
         be of a single kind *)
      check cb
        (r.E.S34.level_name ^ " produced gradients")
        true
        (r.E.S34.gradient_adds <> []))
    rows;
  let llvm_row = List.nth rows 2 in
  check cb "LLVM-level grads are llvm.fadd" true
    (List.mem_assoc "llvm.fadd" llvm_row.E.S34.gradient_adds)

(* ------------------------------------------------------------------ *)
(* ablations                                                           *)
(* ------------------------------------------------------------------ *)

let test_ablations_all_ok () =
  let rows = E.Ablations.run ctx in
  List.iter
    (fun r -> check cb (r.E.Ablations.config ^ " ok") true r.E.Ablations.ok)
    rows;
  let steps name =
    (List.find (fun r -> r.E.Ablations.config = name) rows).E.Ablations.steps
  in
  check cb "simplification reduces interpreter steps" true
    (steps "simplified script" < steps "no simplification")

(* ------------------------------------------------------------------ *)
(* Table 1 (tiny reps to stay fast)                                    *)
(* ------------------------------------------------------------------ *)

let test_table1_runs () =
  let rows = E.Table1.run ~reps:1 ctx in
  check ci "five models" 5 (List.length rows);
  List.iter
    (fun r ->
      check cb (r.E.Table1.model ^ " compiled both ways") true
        (r.E.Table1.pm_seconds > 0.0 && r.E.Table1.tf_seconds > 0.0);
      (* the comparison premise: both paths produce the same final IR *)
      check cb (r.E.Table1.model ^ " identical IR") true r.E.Table1.identical_ir)
    rows

(* E1 as counted work: the transform path runs the pipeline's passes
   through the pass manager's runner, so the two paths do the same work
   and differ only in the interpreter's own counters. Counters are exact,
   so this holds at any [--jobs], where a wall-time ratio on a small box
   cannot tell a few percent from noise. *)

let tosa_passes () =
  match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
  | Ok ps -> ps
  | Error d -> Alcotest.fail (Ir.Diag.to_string d)

(* every counter's value after [f], from zero *)
let counted f =
  Ir.Stats.reset ();
  f ();
  List.filter_map
    (function
      | Ir.Stats.Counter c ->
        Some ((c.Ir.Stats.c_component, c.Ir.Stats.c_name), Ir.Stats.value c)
      | Ir.Stats.Histogram _ -> None)
    (Ir.Stats.snapshot ())

(* the counters only the transform path may move *)
let interpreter_only (component, name) =
  component = "transform" || component = "schedule"
  || (component = "pass" && name = "pipelines_run")

let counter stats component name =
  Option.value ~default:0 (List.assoc_opt (component, name) stats)

(* the (tag, desc) sequence of a journaled run, interpreter units dropped *)
let journal f =
  let t = Ir.Action.create () in
  Ir.Action.with_context t f;
  List.filter_map
    (fun e ->
      match e.Ir.Action.e_tag with
      | "transform" | "schedule" -> None
      | tag -> Some (tag, e.Ir.Action.e_desc))
    (Ir.Action.entries t)

let test_table1_counted () =
  let passes = tosa_passes () in
  let script = Transform.From_pipeline.script_of_pipeline passes in
  let saved = Ir.Pool.jobs () in
  Fun.protect ~finally:(fun () -> Ir.Pool.set_jobs saved) @@ fun () ->
  List.iter
    (fun (spec, funcs, jobs) ->
      Ir.Pool.set_jobs jobs;
      let label =
        Fmt.str "%s, %d function(s), jobs %d" spec.Workloads.Models.sp_name
          funcs jobs
      in
      let pm md =
        match Passes.Pass.run_pipeline ctx passes md with
        | Ok () -> ()
        | Error d -> Alcotest.failf "%s: %s" label (Ir.Diag.to_string d)
      in
      let tf md =
        Transform.Schedule.clear_cache ();
        match Transform.Schedule.run ctx ~script ~payload:md with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" label (Transform.Terror.to_string e)
      in
      let build () = Workloads.Models.build ~funcs spec in
      let md_pm = build () and md_tf = build () in
      let s_pm = counted (fun () -> pm md_pm) in
      let s_tf = counted (fun () -> tf md_tf) in
      check Alcotest.string (label ^ ": same output IR")
        (Ir.Printer.op_to_string md_pm)
        (Ir.Printer.op_to_string md_tf);
      let shared stats =
        List.filter_map
          (fun (((c, n) as key), v) ->
            if interpreter_only key then None else Some (c ^ "/" ^ n, v))
          stats
      in
      check
        Alcotest.(list (pair string int))
        (label ^ ": same counters") (shared s_pm) (shared s_tf);
      check ci (label ^ ": one transform op per pass") (List.length passes)
        (counter s_tf "transform" "ops_executed");
      if jobs = 2 && funcs = 3 then begin
        (* eight function-parallel passes over three functions *)
        check ci (label ^ ": pool tasks") 24 (counter s_tf "pool" "tasks");
        check ci (label ^ ": greedy invocations") 3
          (counter s_tf "greedy" "invocations")
      end;
      if jobs <= 2 then
        check
          Alcotest.(list (pair string string))
          (label ^ ": same journal")
          (journal (fun () -> pm (build ())))
          (journal (fun () -> tf (build ()))))
    (List.concat_map
       (fun spec ->
         List.concat_map
           (fun funcs -> List.map (fun j -> (spec, funcs, j)) [ 1; 2; 4 ])
           [ 1; 3 ])
       Workloads.Models.paper_models)

let () =
  Alcotest.run "experiments"
    [
      ("table2", [ Alcotest.test_case "outcomes" `Quick test_table2_outcomes ]);
      ( "cs3",
        [ Alcotest.test_case "binary search finds culprit" `Slow test_cs3_finds_culprit ] );
      ("cs4", [ Alcotest.test_case "performance shape" `Slow test_cs4_shape ]);
      ( "cs5",
        [
          Alcotest.test_case "autotuning improves" `Slow
            test_cs5_autotuning_improves;
          Alcotest.test_case "constraints respected" `Quick
            test_cs5_constraint_respected;
          Alcotest.test_case "structured extension" `Slow
            test_cs5_structured_extension;
        ] );
      ("s34", [ Alcotest.test_case "AD add kinds" `Quick test_s34_add_kinds ]);
      ( "ablations",
        [ Alcotest.test_case "all configurations ok" `Quick test_ablations_all_ok ] );
      ( "table1",
        [
          Alcotest.test_case "runs" `Slow test_table1_runs;
          Alcotest.test_case "counted work" `Quick test_table1_counted;
        ] );
    ]
