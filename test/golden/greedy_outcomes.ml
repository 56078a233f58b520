(* Golden outcome corpus for the greedy rewrite driver, diffed by dune
   against greedy_outcomes.expected: per case, id, seed, case, whether the
   driver converged, the diagnostic count, the driver's counted work
   (rewrites, folds, dce, match attempts, worklist pushes, iterations) and
   the fingerprint of the payload after the run. Every case runs
   [Greedy.apply] with [Dutil.materialize_arith_constant] and the
   canonicalize pattern set. *)

open Ir
open Dialects

let ctx = Transform.Register.full_context ()

let patterns =
  Frozen_patterns.freeze
    (Passes.Transforms.canonicalization_patterns ctx
    @ Arith.canonicalization_patterns ())

let record id ~seed ~case md =
  let stats = Greedy.create_stats () in
  let converged, diags =
    Context.capture_diags ctx (fun () ->
        Greedy.apply ~materialize:Dutil.materialize_arith_constant ~stats ctx
          ~patterns md)
  in
  Fmt.pr "%s %s %s %s diags=%d rewrites=%d folds=%d dce=%d attempts=%d \
          pushes=%d iterations=%d %s@."
    id seed case
    (if converged then "converged" else "not-converged")
    (List.length diags) stats.Greedy.rewrites stats.Greedy.folds
    stats.Greedy.dce stats.Greedy.match_attempts stats.Greedy.worklist_pushes
    stats.Greedy.iterations
    (Fingerprint.to_hex (Fingerprint.op md))

(* squeezenet lowered by the Table-1 TOSA pipeline without its trailing
   canonicalize,cse: the exact IR the canonicalize pass runs on *)
let squeezenet_lowered () =
  let squeezenet =
    List.find
      (fun s -> s.Workloads.Models.sp_name = "squeezenet")
      Workloads.Models.paper_models
  in
  let passes =
    match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
    | Ok ps ->
      List.filter
        (fun p ->
          p.Passes.Pass.name <> "canonicalize" && p.Passes.Pass.name <> "cse")
        ps
    | Error e -> failwith (Diag.to_string e)
  in
  let md = Workloads.Models.build squeezenet in
  (match Passes.Pass.run_pipeline ctx passes md with
  | Ok () -> ()
  | Error e -> failwith (Diag.to_string e));
  md

(* identities, a foldable constant sum and a dead user in one function *)
let mixed_arith () =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"f" ~arg_types:[ Typ.i32 ] ~result_types:[ Typ.i32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let x = Ircore.block_arg entry 0 in
  let zero = Dutil.const_int rw ~typ:Typ.i32 0 in
  let one = Dutil.const_int rw ~typ:Typ.i32 1 in
  let a = Arith.addi rw x zero in
  let b = Arith.muli rw a one in
  let c20 = Dutil.const_int rw ~typ:Typ.i32 20 in
  let c22 = Dutil.const_int rw ~typ:Typ.i32 22 in
  let s = Arith.addi rw c20 c22 in
  ignore (Arith.muli rw s s);
  let r = Arith.addi rw b s in
  Func.return rw ~operands:[ r ] ();
  md

let () =
  record "squeezenet-lowered" ~seed:"-" ~case:"-" (squeezenet_lowered ());
  record "mixed-arith" ~seed:"-" ~case:"-" (mixed_arith ());
  List.iter
    (fun seed ->
      for case = 0 to 499 do
        record "fuzz" ~seed:(string_of_int seed) ~case:(string_of_int case)
          (Fuzz.Driver.module_for ~seed ~case ())
      done)
    [ 42; 7 ]
