(* Static annotation-flow checking (Transform.Flowcheck): the must/may
   lattice over handle annotations, joins across [alternatives] branches,
   the [foreach] fixpoint, include summaries and their cache,
   use-after-consume of handles (Figure 1a, line 11), and the Schedule gate
   that makes the checker's verdict binding before any payload is touched. The dynamic
   side of every scenario is exercised too: the same Treg clauses feed
   both checkers, so accept/reject decisions must line up. *)

open Ir
open Testutil
module B = Transform.Build
module FC = Transform.Flowcheck

let cs = Alcotest.string

let counter name =
  match Stats.find_counter ~component:"flowcheck" name with
  | Some c -> Stats.value c
  | None -> 0

let annot_config =
  {
    Transform.State.default_config with
    Transform.State.check_annotations = true;
  }

(* the canonical unsound schedule from the issue: vectorize requires
   (tiled & !vectorized), which a freshly matched handle cannot satisfy *)
let vectorize_before_tile () =
  B.script (fun rw root ->
      let l = B.match_op rw ~name:"scf.for" root in
      ignore (B.loop_vectorize rw ~width:4 l))

let tile_then_vectorize () =
  B.script (fun rw root ->
      let l = B.match_op rw ~select:"first" ~name:"scf.for" root in
      (* result 0 is the tile loop, result 1 the unit-step point loop *)
      let _tiles, points = B.loop_tile rw ~sizes:[ 4 ] l in
      ignore (B.loop_vectorize rw ~width:4 points))

(* ---------------- accept / reject basics ---------------- *)

let test_accepts_tile_then_vectorize () =
  let r = FC.check (tile_then_vectorize ()) in
  check cb "accepted" true (FC.ok r)

let test_rejects_vectorize_before_tile () =
  let r = FC.check (vectorize_before_tile ()) in
  check cb "rejected" true (not (FC.ok r));
  let reqs =
    List.filter_map
      (function
        | FC.Unsatisfied_requires _ as p ->
          Some (Fmt.str "%a" FC.pp_problem p)
        | _ -> None)
      r.FC.fr_problems
  in
  check cb "one unsatisfied-requires problem" true (List.length reqs = 1);
  check cb "problem message carries the requirement tag" true
    (List.for_all
       (fun m -> contains m Transform.Annot.requirement_tag)
       reqs)

let test_dynamic_checker_agrees () =
  (* rejected statically -> the dynamic check fires too, as a definite,
     requirement-tagged error, before the payload is touched *)
  let payload = matmul () in
  let before = Printer.op_to_string payload in
  let e =
    apply_err ~config:annot_config (vectorize_before_tile ()) payload
  in
  check cb "definite" true (not (Transform.Terror.is_silenceable e));
  check cb "requirement-tagged" true
    (Transform.Annot.is_requirement_diag (Transform.Terror.diag e));
  check cs "payload untouched" before (Printer.op_to_string payload);
  (* accepted statically -> the dynamic run sees satisfied requirements *)
  ignore (apply_ok ~config:annot_config (tile_then_vectorize ()) (matmul ()))

(* ---------------- alternatives: must-join ---------------- *)

(* a test-only transform that requires the [annot.alt.a] property; both
   checkers read the clause from this one registration *)
let require_alt_a = "test.require_alt_a"

let () =
  Transform.Treg.register ~name:require_alt_a
    ~spec:
      {
        Transform.Treg.default_spec with
        Transform.Treg.summary = "test-only annot.alt.a requirement";
        arity = Some 1;
        requires =
          (fun _ -> [ (0, Irdl.Atom (Transform.Annot.Has "annot.alt.a")) ]);
      }
    (fun _ _ -> Ok ())

let alternatives_script ~second_branch =
  B.script (fun rw root ->
      let l = B.match_op rw ~name:"scf.for" root in
      B.alternatives rw
        [
          (fun brw -> B.annotate brw ~name:"alt.a" l);
          (fun brw -> B.annotate brw ~name:second_branch l);
        ];
      Ir.Rewriter.build0 rw ~operands:[| l |] require_alt_a)

let test_alternatives_must_join () =
  (* both branches establish alt.a -> it survives the must-join *)
  check cb "both branches -> accepted" true
    (FC.ok (FC.check (alternatives_script ~second_branch:"alt.a")));
  (* only one branch does -> the property is may, not must: rejected *)
  let r = FC.check (alternatives_script ~second_branch:"alt.b") in
  check cb "one branch -> rejected" true (not (FC.ok r));
  check cb "unsatisfied requirement" true
    (List.exists
       (function FC.Unsatisfied_requires _ -> true | _ -> false)
       r.FC.fr_problems)

(* ---------------- foreach: fixpoint ---------------- *)

let test_foreach_reaches_fixpoint () =
  let script =
    B.script (fun rw root ->
        let l = B.match_op rw ~name:"scf.for" root in
        B.foreach rw l (fun brw it -> B.annotate brw ~name:"each.visited" it))
  in
  let rounds0 = counter "foreach_rounds" in
  let r = FC.check script in
  check cb "accepted" true (FC.ok r);
  let rounds = counter "foreach_rounds" - rounds0 in
  check cb "iterated to a fixpoint (>= 2 rounds, bounded)" true
    (rounds >= 2 && rounds <= 9)

let test_foreach_round2_consume_rejected () =
  (* the body consumes the iterated handle; round 2 re-binds from a
     consumed handle, which the fixpoint must flag *)
  let script =
    B.script (fun rw root ->
        let l = B.match_op rw ~name:"scf.for" root in
        B.foreach rw l (fun brw _it -> B.loop_unroll brw ~factor:2 l))
  in
  let r = FC.check script in
  check cb "rejected" true (not (FC.ok r));
  check cb "use-after-consume at the rebind" true
    (List.exists
       (function FC.Use_after_consume _ -> true | _ -> false)
       r.FC.fr_problems)

(* ---------------- include summaries ---------------- *)

let test_include_summary_reuse () =
  (* two call sites with the same argument state: the second one must be
     served from the summary cache *)
  let m =
    B.script (fun rw root ->
        let l = B.match_op rw ~name:"scf.for" root in
        ignore (B.include_ rw ~target:"fc_helper" [ l ] ~results:1);
        ignore (B.include_ rw ~target:"fc_helper" [ l ] ~results:1))
  in
  ignore
    (B.named_sequence m ~name:"fc_helper" ~num_args:1 (fun rw args ->
         let a = List.hd args in
         B.annotate rw ~name:"fc_helper.seen" a;
         [ a ]));
  let hits0 = counter "summary_hits" in
  let misses0 = counter "summary_misses" in
  let r = FC.check m in
  check cb "accepted" true (FC.ok r);
  check ci "second call site reuses the summary" 1
    (counter "summary_hits" - hits0);
  check cb "at most one fresh analysis" true
    (counter "summary_misses" - misses0 <= 1)

let test_include_consume_propagates () =
  (* the callee consumes its argument; the caller's operand must count as
     consumed across the include, so a later use is rejected *)
  let m =
    B.script (fun rw root ->
        let l = B.match_op rw ~name:"scf.for" root in
        ignore (B.include_ rw ~target:"fc_consumer" [ l ] ~results:0);
        B.annotate rw ~name:"late" l)
  in
  ignore
    (B.named_sequence m ~name:"fc_consumer" ~num_args:1 (fun rw args ->
         B.loop_unroll rw ~factor:2 (List.hd args);
         []));
  let r = FC.check m in
  check cb "rejected" true (not (FC.ok r));
  check cb "use-after-consume" true
    (List.exists
       (function FC.Use_after_consume _ -> true | _ -> false)
       r.FC.fr_problems)

(* ---------------- use after consume ---------------- *)

(* (consumer name, message) of every use-after-consume problem *)
let uac_problems script =
  List.filter_map
    (function
      | FC.Use_after_consume { u_by; _ } as p ->
        Some (u_by, Fmt.str "%a" FC.pp_problem p)
      | _ -> None)
    (FC.check script).FC.fr_problems

let first_loop rw root = B.match_op rw ~select:"first" ~name:"scf.for" root

(* (name, script body, expected use-after-consume count, consumer name) *)
let uac_cases =
  [
    ( "clean script",
      (fun rw root ->
        let main, rest = B.loop_split rw ~div_by:8 (first_loop rw root) in
        ignore (B.loop_tile rw ~sizes:[ 8 ] main);
        B.loop_unroll_full rw rest),
      0,
      None );
    ( "double unroll (Fig 1a:11)",
      (fun rw root ->
        let _m, rest = B.loop_split rw ~div_by:8 (first_loop rw root) in
        B.loop_unroll_full rw rest;
        B.loop_unroll_full rw rest),
      1,
      Some "transform.loop_unroll" );
    ( "consumed by another transform",
      (fun rw root ->
        let loop = first_loop rw root in
        ignore (B.loop_tile rw ~sizes:[ 4 ] loop);
        B.loop_unroll_full rw loop),
      1,
      Some "transform.loop_tile" );
    ( "derived handle aliasing",
      (* consuming the outer loop invalidates the handle matched inside it *)
      (fun rw root ->
        let outer = first_loop rw root in
        let inner = first_loop rw outer in
        ignore (B.loop_tile rw ~sizes:[ 4 ] outer);
        B.loop_unroll_full rw inner),
      1,
      Some "transform.loop_tile" );
    ( "siblings independent",
      (* l1 and l2 both derive from root; consuming l2 leaves l1 valid *)
      (fun rw root ->
        let l1 = first_loop rw root in
        let l2 = B.match_op rw ~select:"second" ~name:"scf.for" root in
        ignore (B.loop_tile rw ~sizes:[ 4 ] l2);
        ignore (B.loop_hoist rw l1)),
      0,
      None );
    ( "non-consuming safe",
      (fun rw root ->
        let loop = first_loop rw root in
        ignore (B.loop_hoist rw loop);
        ignore (B.loop_hoist rw loop);
        B.print rw loop),
      0,
      None );
    ( "consumer results fresh",
      (* split consumes its operand but its results are fresh handles *)
      (fun rw root ->
        let main, rest = B.loop_split rw ~div_by:8 (first_loop rw root) in
        ignore (B.loop_tile rw ~sizes:[ 4 ] main);
        B.loop_unroll_full rw rest),
      0,
      None );
    ( "diagnostic formatting",
      (fun rw root ->
        let loop = first_loop rw root in
        ignore (B.loop_tile rw ~sizes:[ 4 ] loop);
        B.loop_unroll_full rw loop),
      1,
      Some "transform.loop_tile" );
  ]

let test_uac (_, body, count, consumer) () =
  let ps = uac_problems (B.script body) in
  check ci "use-after-consume count" count (List.length ps);
  Option.iter
    (fun by ->
      List.iter
        (fun (u_by, msg) ->
          check cs "consumer" by u_by;
          check cb "message names the consumer" true
            (contains msg (Fmt.str "a prior '%s' (use after consume)" by)))
        ps)
    consumer

let test_consumed_handle () =
  let script =
    B.script (fun rw root ->
        let l = B.match_op rw ~name:"scf.for" root in
        let _tiled = B.loop_tile rw ~sizes:[ 4 ] l in
        B.annotate rw ~name:"late" l)
  in
  let r = FC.check script in
  check cb "rejected" true (not (FC.ok r));
  check cb "flow checker reports the consumed use" true
    (List.exists
       (function FC.Use_after_consume _ -> true | _ -> false)
       r.FC.fr_problems)

let test_alternatives_rollback_restores_handle () =
  (* the first region consumes [l] and then fails; rollback restores [l]
     before the second region consumes it again *)
  let script =
    B.script (fun rw root ->
        let l = B.match_op rw ~select:"first" ~name:"scf.for" root in
        B.alternatives rw
          [
            (fun brw ->
              B.loop_unroll brw ~factor:2 l;
              ignore (B.split_handle brw ~n:7 root));
            (fun brw -> B.loop_unroll brw ~factor:2 l);
          ])
  in
  check ci "no static use after consume" 0 (List.length (uac_problems script));
  match apply script (matmul ()) with
  | Ok _ -> ()
  | Error e ->
    let msg = Transform.Terror.to_string e in
    check cb "no dynamic use after consume" false
      (contains msg "handle consumed");
    Alcotest.failf "alternatives failed: %s" msg

(* ---------------- shipped scripts ---------------- *)

let test_shipped_scripts_accepted () =
  let script =
    parse_file
      (Filename.concat ".."
         (Filename.concat "examples"
            (Filename.concat "scripts" "tile_and_unroll.mlir")))
  in
  check cb "tile_and_unroll is flow-sound" true (FC.ok (FC.check script))

(* ---------------- the Schedule gate ---------------- *)

let test_schedule_gate () =
  let s = Transform.Schedule.of_script ~flow:true ctx (vectorize_before_tile ()) in
  (match Transform.Schedule.flow_report s with
  | Some r -> check cb "flow report attached and rejecting" true (not (FC.ok r))
  | None -> Alcotest.fail "of_script ~flow:true attached no report");
  let payload = matmul () in
  let before = Printer.op_to_string payload in
  (match Transform.Schedule.apply s ~payload with
  | Ok _ -> Alcotest.fail "gate let an unsound schedule run"
  | Error e ->
    check cb "definite" true (not (Transform.Terror.is_silenceable e)));
  check cs "payload untouched by the gated schedule" before
    (Printer.op_to_string payload);
  (* a sound script passes through the same gate *)
  match
    Transform.Schedule.run ~flow:true ctx ~script:(tile_then_vectorize ())
      ~payload:(matmul ())
  with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "sound schedule rejected: %s" (Transform.Terror.to_string e)

let () =
  Alcotest.run "flowcheck"
    [
      ( "basics",
        [
          Alcotest.test_case "tile-then-vectorize-accepted" `Quick
            test_accepts_tile_then_vectorize;
          Alcotest.test_case "vectorize-before-tile-rejected" `Quick
            test_rejects_vectorize_before_tile;
          Alcotest.test_case "dynamic-checker-agrees" `Quick
            test_dynamic_checker_agrees;
        ] );
      ( "control-flow",
        [
          Alcotest.test_case "alternatives-must-join" `Quick
            test_alternatives_must_join;
          Alcotest.test_case "foreach-fixpoint" `Quick
            test_foreach_reaches_fixpoint;
          Alcotest.test_case "foreach-round2-consume" `Quick
            test_foreach_round2_consume_rejected;
        ] );
      ( "includes",
        [
          Alcotest.test_case "summary-reuse" `Quick test_include_summary_reuse;
          Alcotest.test_case "consume-propagates" `Quick
            test_include_consume_propagates;
        ] );
      ( "analysis",
        List.map
          (fun ((name, _, _, _) as case) ->
            Alcotest.test_case name `Quick (test_uac case))
          uac_cases );
      ( "invalidation",
        [
          Alcotest.test_case "consumed-handle" `Quick test_consumed_handle;
          Alcotest.test_case "alternatives-rollback-restores-handle" `Quick
            test_alternatives_rollback_restores_handle;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "shipped-scripts" `Quick
            test_shipped_scripts_accepted;
        ] );
      ( "schedule",
        [ Alcotest.test_case "flow-gate" `Quick test_schedule_gate ] );
    ]
