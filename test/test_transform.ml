(* The transform interpreter: handles, params, structural ops, invalidation
   semantics, pass/pattern application, error discipline. *)

open Ir
open Dialects
module T = Transform
open Testutil

(* ------------------------------------------------------------------ *)
(* match / handles                                                     *)
(* ------------------------------------------------------------------ *)

let test_match_all_vs_first () =
  let md = matmul () in
  let seen = ref (-1) in
  let script =
    T.Build.script (fun rw root ->
        let all = T.Build.match_op rw ~name:"scf.for" root in
        (* annotate everything matched to observe the count *)
        T.Build.annotate rw ~name:"seen" all)
  in
  ignore (apply_ok script md);
  seen := List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "seen"));
  check ci "all three loops matched" 3 !seen

let test_match_select_second () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let second = T.Build.match_op rw ~select:"second" ~name:"scf.for" root in
        T.Build.annotate rw ~name:"second" second)
  in
  ignore (apply_ok script md);
  let marked = Symbol.collect md ~f:(fun o -> Ircore.has_attr o "second") in
  check ci "exactly one" 1 (List.length marked);
  (* the second loop is the j loop: nested in one loop, contains one *)
  let l = List.hd marked in
  check cb "is the middle loop" true
    (match Ircore.parent_op l with
    | Some p -> p.Ircore.op_name = "scf.for"
    | None -> false)

let test_match_missing_is_silenceable () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        ignore (T.Build.match_op rw ~select:"first" ~name:"scf.while" root))
  in
  match apply_err script md with
  | T.Terror.Silenceable _ -> ()
  | T.Terror.Definite m -> Alcotest.failf "expected silenceable, got definite %s" (Diag.to_string m)

let test_match_missing_all_is_empty_ok () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let none = T.Build.match_op rw ~name:"scf.while" root in
        T.Build.annotate rw ~name:"x" none)
  in
  ignore (apply_ok script md)

let test_match_by_dialect () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let mem = T.Build.match_op rw ~dialect:"memref" root in
        T.Build.annotate rw ~name:"mem" mem)
  in
  ignore (apply_ok script md);
  check ci "all memref ops matched" 4
    (List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "mem")))

let test_match_by_interface () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let loops = T.Build.match_op rw ~interface:"loop_like" root in
        T.Build.annotate rw ~name:"ll" loops)
  in
  ignore (apply_ok script md);
  check ci "loop_like matches the scf.for nest" 3
    (List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "ll")))

let test_match_by_attr_presence () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let marked = T.Build.match_op rw ~name:"scf.for" root in
        T.Build.annotate rw ~name:"phase1" marked;
        (* second query: only ops carrying the marker *)
        let again = T.Build.match_op rw ~has_attr:"phase1" root in
        T.Build.annotate rw ~name:"phase2" again)
  in
  ignore (apply_ok script md);
  check ci "attribute query sees prior annotations" 3
    (List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "phase2")))

let test_match_without_criteria_is_definite () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        ignore (T.Build.match_op rw root))
  in
  match apply_err script md with
  | T.Terror.Definite _ -> ()
  | T.Terror.Silenceable m -> Alcotest.failf "expected definite: %s" (Diag.to_string m)

let test_get_parent () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let store = T.Build.match_op rw ~name:"memref.store" root in
        let f =
          Rewriter.build1 rw ~operands:[| store |]
            ~result_types:[| Typ.transform_any_op |]
            ~attrs:[ ("op_name", Attr.str "func.func") ]
            T.Ops.get_parent_op
        in
        T.Build.annotate rw ~name:"parent" f)
  in
  ignore (apply_ok script md);
  let marked = Symbol.collect md ~f:(fun o -> Ircore.has_attr o "parent") in
  check ci "one func" 1 (List.length marked);
  check cb "is func" true ((List.hd marked).Ircore.op_name = "func.func")

let test_merge_handles () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let loads = T.Build.match_op rw ~name:"memref.load" root in
        let stores = T.Build.match_op rw ~name:"memref.store" root in
        let both =
          Rewriter.build1 rw ~operands:[| loads; stores |]
            ~result_types:[| Typ.transform_any_op |]
            T.Ops.merge_handles_op
        in
        T.Build.annotate rw ~name:"mem" both)
  in
  ignore (apply_ok script md);
  check ci "4 memory ops annotated" 4
    (List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "mem")))

(* ------------------------------------------------------------------ *)
(* params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_configure_transforms () =
  let md = Workloads.Matmul.build_module ~m:16 ~n:8 ~k:4 () in
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        let p = T.Build.param_constant rw 4 in
        ignore (T.Build.loop_tile rw ~size_params:[ p; p ] ~sizes:[] loop))
  in
  ignore (apply_ok script md);
  check ci "tiled to 5 loops" 5 (count "scf.for" md)

(* ------------------------------------------------------------------ *)
(* invalidation                                                        *)
(* ------------------------------------------------------------------ *)

let test_use_after_consume_definite () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        let _main, rest = T.Build.loop_split rw ~div_by:4 loop in
        T.Build.loop_unroll_full rw rest;
        (* second unroll of the consumed handle *)
        T.Build.loop_unroll_full rw rest)
  in
  match apply_err script md with
  | T.Terror.Definite m ->
    check cb "mentions invalidation" true
      (String.length (Diag.message m) > 0)
  | T.Terror.Silenceable _ -> Alcotest.fail "expected definite error"

let test_consume_invalidates_nested_handles () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let outer = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        let inner = T.Build.match_op rw ~select:"first" ~name:"scf.for" outer in
        (* consuming the outer loop invalidates the nested handle *)
        let _t, _p = T.Build.loop_tile rw ~sizes:[ 2; 2 ] outer in
        T.Build.loop_unroll_full rw inner)
  in
  match apply_err script md with
  | T.Terror.Definite _ -> ()
  | T.Terror.Silenceable m ->
    Alcotest.failf "expected definite invalidation, got silenceable %s" (Diag.to_string m)

let test_failed_transform_does_not_consume () =
  (* a silenceable failure must leave the handle usable *)
  let md = Workloads.Matmul.build_module ~m:7 ~n:8 ~k:4 () in
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        T.Build.alternatives rw
          [
            (fun brw -> T.Build.loop_unroll brw ~factor:2 loop);
            (* trip 7: fails *)
            (fun brw -> T.Build.loop_unroll brw ~factor:7 loop);
            (* works *)
          ])
  in
  ignore (apply_ok script md)

(* ------------------------------------------------------------------ *)
(* structural ops                                                      *)
(* ------------------------------------------------------------------ *)

let test_include_named_sequence () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let inc =
          T.Build.include_ rw ~target:"tile_it" [ root ] ~results:1
        in
        T.Build.annotate rw ~name:"from_include" (Ircore.result inc))
  in
  ignore
    (T.Build.named_sequence script ~name:"tile_it" ~num_args:1 (fun rw args ->
         let loop =
           T.Build.match_op rw ~select:"first" ~name:"scf.for" (List.hd args)
         in
         let _t, p = T.Build.loop_tile rw ~sizes:[ 2; 2 ] loop in
         [ p ]));
  ignore (apply_ok script md);
  check ci "tiled" 5 (count "scf.for" md);
  check ci "include result bound" 1
    (List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "from_include")))

let test_alternatives_first_success_wins () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        T.Build.alternatives rw
          [
            (fun brw -> ignore (T.Build.loop_tile brw ~sizes:[ 2; 2 ] loop));
            (fun brw -> T.Build.loop_unroll_full brw loop);
          ])
  in
  ignore (apply_ok script md);
  (* first alternative applied: loops tiled, not unrolled *)
  check ci "tiled (5 loops)" 5 (count "scf.for" md)

let test_alternatives_all_fail_is_silenceable () =
  let md = Workloads.Matmul.build_module ~m:7 ~n:8 ~k:4 () in
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        T.Build.alternatives rw
          [ (fun brw -> T.Build.loop_unroll brw ~factor:2 loop) ])
  in
  match apply_err script md with
  | T.Terror.Silenceable _ -> ()
  | T.Terror.Definite m -> Alcotest.failf "expected silenceable: %s" (Diag.to_string m)

let test_foreach () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let loops = T.Build.match_op rw ~name:"scf.for" root in
        let body = Ircore.create_block ~args:[ Typ.transform_any_op ] () in
        let brw = Rewriter.create ~ip:(Builder.At_end body) () in
        T.Build.annotate brw ~name:"visited" (Ircore.block_arg body 0);
        Rewriter.build0 rw ~operands:[| loops |]
          ~regions:[ Ircore.region_with_block body ]
          T.Ops.foreach_op)
  in
  ignore (apply_ok script md);
  check ci "all loops visited individually" 3
    (List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "visited")))

let test_sequence_suppress () =
  let md = matmul () in
  (* a failing match inside a suppressing sequence is swallowed *)
  let inner_seq =
    T.Build.sequence ~failure_propagation:"suppress" (fun rw root ->
        ignore (T.Build.match_op rw ~select:"first" ~name:"scf.while" root))
  in
  match T.Schedule.run ctx ~script:inner_seq ~payload:md with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "suppression failed: %s" (T.Terror.to_string e)

(* ------------------------------------------------------------------ *)
(* pass / pattern application                                          *)
(* ------------------------------------------------------------------ *)

let test_apply_registered_pass () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        ignore (T.Build.apply_registered_pass rw ~pass_name:"convert-scf-to-cf" root))
  in
  ignore (apply_ok script md);
  check ci "no scf" 0 (count "scf.for" md);
  check cb "branches" true (count "cf.cond_br" md > 0)

let test_apply_unknown_pass_definite () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        ignore (T.Build.apply_registered_pass rw ~pass_name:"nope" root))
  in
  match apply_err script md with
  | T.Terror.Definite _ -> ()
  | _ -> Alcotest.fail "expected definite error"

let test_apply_patterns_subset () =
  (* only the enabled pattern fires *)
  let t = Typ.tensor (Typ.static_dims [ 4; 4 ]) Typ.f32 in
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"f" ~arg_types:[ t ] ~result_types:[ t ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let x = Ircore.block_arg entry 0 in
  let z = Shlo.constant rw ~typ:t (Attr.Dense_float ([ 0.0 ], t)) in
  let a = Shlo.add rw x z in
  let t1 = Shlo.transpose rw a ~permutation:[ 1; 0 ] ~result_typ:t in
  let t2 = Shlo.transpose rw t1 ~permutation:[ 1; 0 ] ~result_typ:t in
  Func.return rw ~operands:[ t2 ] ();
  let script =
    T.Build.script (fun rw root ->
        let fh = T.Build.match_op rw ~name:"func.func" root in
        T.Build.apply_patterns rw fh [ "shlo.add_zero" ])
  in
  ignore (apply_ok script md);
  check ci "add removed" 0 (count "shlo.add" md);
  check ci "transposes kept (pattern disabled)" 2 (count "shlo.transpose" md)

let test_apply_patterns_unknown_definite () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let fh = T.Build.match_op rw ~name:"func.func" root in
        T.Build.apply_patterns rw fh [ "no.such.pattern" ])
  in
  match apply_err script md with
  | T.Terror.Definite _ -> ()
  | _ -> Alcotest.fail "expected definite error"

(* ------------------------------------------------------------------ *)
(* end-to-end: Figure 1 script                                          *)
(* ------------------------------------------------------------------ *)

let test_fig1_composition () =
  let n = 42 in
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:n () in
  (* hoist + split + tile + unroll on the k loop *)
  let script =
    T.Build.script (fun rw root ->
        let k = T.Build.match_op rw ~select:"third" ~name:"scf.for" root in
        let _h = T.Build.loop_hoist rw k in
        let p = T.Build.param_constant rw 8 in
        let main, rest = T.Build.loop_split rw ~div_by_param:p ~div_by:8 k in
        ignore (T.Build.loop_tile rw ~size_params:[ p ] ~sizes:[] main);
        T.Build.loop_unroll_full rw rest)
  in
  ignore (apply_ok script md);
  Verifier.verify_or_fail ctx md;
  match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m:4 ~n:4 ~k:n md with
  | Error e -> Alcotest.fail e
  | Ok (a, b, c_init, c_out, _) ->
    let expected = Workloads.Matmul.reference ~m:4 ~n:4 ~k:n a b c_init in
    check cb "figure-1 composition preserves semantics" true
      (Workloads.Matmul.max_abs_diff expected c_out < 1e-3)

let test_handles_track_pattern_replacements () =
  (* Section 3.1: the tracking listener repoints handles when a pattern
     replaces their payload op with a new op *)
  let t = Typ.tensor (Typ.static_dims [ 4; 4 ]) Typ.f32 in
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"f" ~arg_types:[ t ] ~result_types:[ t ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw0 = Dutil.rw_at_end entry in
  let x = Ircore.block_arg entry 0 in
  let tr = Shlo.transpose rw0 x ~permutation:[ 1; 0 ] ~result_typ:t in
  let neg = Shlo.unary rw0 Shlo.negate_op tr in
  Func.return rw0 ~operands:[ neg ] ();
  let script =
    T.Build.script (fun rw root ->
        let negs = T.Build.match_op rw ~name:"shlo.negate" root in
        let fh = T.Build.match_op rw ~name:"func.func" root in
        (* negate_of_transpose replaces the negate with a new transpose *)
        T.Build.apply_patterns rw fh [ "shlo.negate_of_transpose" ];
        (* the handle now points at the replacement op *)
        T.Build.annotate rw ~name:"tracked" negs)
  in
  (match T.Schedule.run ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (T.Terror.to_string e));
  let tracked = Symbol.collect md ~f:(fun o -> Ircore.has_attr o "tracked") in
  check ci "handle repointed to a replacement" 1 (List.length tracked);
  check Alcotest.string "replacement is the new transpose" "shlo.transpose"
    (List.hd tracked).Ircore.op_name

let test_handles_drop_erased_payload () =
  (* an op erased by a pattern simply disappears from its handles *)
  let t = Typ.tensor (Typ.static_dims [ 4; 4 ]) Typ.f32 in
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"f" ~arg_types:[ t ] ~result_types:[ t ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw0 = Dutil.rw_at_end entry in
  let x = Ircore.block_arg entry 0 in
  let z = Shlo.constant rw0 ~typ:t (Attr.Dense_float ([ 0.0 ], t)) in
  let a = Shlo.add rw0 x z in
  Func.return rw0 ~operands:[ a ] ();
  let script =
    T.Build.script (fun rw root ->
        let adds = T.Build.match_op rw ~name:"shlo.add" root in
        let fh = T.Build.match_op rw ~name:"func.func" root in
        T.Build.apply_patterns rw fh [ "shlo.add_zero" ];
        (* add was replaced by the block argument: no defining op to track,
           so the handle becomes empty — annotating is a no-op, not an
           error *)
        T.Build.annotate rw ~name:"gone" adds)
  in
  (match T.Schedule.run ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (T.Terror.to_string e));
  check ci "handle emptied" 0
    (List.length (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "gone")))

let test_split_handle () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let loops = T.Build.match_op rw ~name:"scf.for" root in
        match T.Build.split_handle rw ~n:3 loops with
        | [ _a; b; _c ] -> T.Build.annotate rw ~name:"middle" b
        | _ -> failwith "expected 3 results")
  in
  ignore (apply_ok script md);
  let marked = Symbol.collect md ~f:(fun o -> Ircore.has_attr o "middle") in
  check ci "exactly the middle loop" 1 (List.length marked)

let test_split_handle_arity_mismatch () =
  let md = matmul () in
  let script =
    T.Build.script (fun rw root ->
        let loops = T.Build.match_op rw ~name:"scf.for" root in
        ignore (T.Build.split_handle rw ~n:2 loops))
  in
  match apply_err script md with
  | T.Terror.Silenceable _ -> ()
  | T.Terror.Definite m -> Alcotest.failf "expected silenceable: %s" (Diag.to_string m)

let test_error_context_names_transform () =
  let md = Workloads.Matmul.build_module ~m:7 ~n:8 ~k:4 () in
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        T.Build.loop_unroll rw ~factor:2 loop)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  match apply_err script md with
  | T.Terror.Silenceable m ->
    check cb "error names the failing transform" true
      (contains (Diag.to_string m) "transform.loop_unroll")
  | T.Terror.Definite m -> Alcotest.failf "expected silenceable: %s" (Diag.to_string m)

(* dynamic pre-condition checking (Section 3.3) *)
let test_dynamic_precondition_check () =
  let md = matmul () in
  (* lower scf away, then attempt a loop transform: pre-condition {scf.for}
     cannot hold *)
  let script =
    T.Build.script (fun rw root ->
        let r2 =
          T.Build.apply_registered_pass rw ~pass_name:"convert-scf-to-cf" root
        in
        let loop = T.Build.match_op rw ~name:"scf.for" r2 in
        T.Build.loop_unroll_full rw loop)
  in
  let config = { T.State.default_config with T.State.check_conditions = true } in
  match apply ~config script md with
  | Ok _ -> Alcotest.fail "expected pre-condition failure"
  | Error (T.Terror.Silenceable m) ->
    check cb "mentions pre-condition" true (String.length (Diag.message m) > 0)
  | Error (T.Terror.Definite m) ->
    Alcotest.failf "expected silenceable, got %s" (Diag.to_string m)

let () =
  Alcotest.run "transform"
    [
      ( "match",
        [
          Alcotest.test_case "all" `Quick test_match_all_vs_first;
          Alcotest.test_case "select second" `Quick test_match_select_second;
          Alcotest.test_case "missing first is silenceable" `Quick
            test_match_missing_is_silenceable;
          Alcotest.test_case "missing all is empty" `Quick
            test_match_missing_all_is_empty_ok;
          Alcotest.test_case "by dialect" `Quick test_match_by_dialect;
          Alcotest.test_case "by interface" `Quick test_match_by_interface;
          Alcotest.test_case "by attribute presence" `Quick
            test_match_by_attr_presence;
          Alcotest.test_case "no criteria is definite" `Quick
            test_match_without_criteria_is_definite;
          Alcotest.test_case "get_parent" `Quick test_get_parent;
          Alcotest.test_case "merge_handles" `Quick test_merge_handles;
          Alcotest.test_case "handles track replacements" `Quick
            test_handles_track_pattern_replacements;
          Alcotest.test_case "handles drop erased payload" `Quick
            test_handles_drop_erased_payload;
          Alcotest.test_case "split_handle" `Quick test_split_handle;
          Alcotest.test_case "split_handle arity mismatch" `Quick
            test_split_handle_arity_mismatch;
        ] );
      ( "params",
        [ Alcotest.test_case "configure tiling" `Quick test_params_configure_transforms ] );
      ( "invalidation",
        [
          Alcotest.test_case "use after consume" `Quick
            test_use_after_consume_definite;
          Alcotest.test_case "nested handles invalidated" `Quick
            test_consume_invalidates_nested_handles;
          Alcotest.test_case "failure does not consume" `Quick
            test_failed_transform_does_not_consume;
        ] );
      ( "structural",
        [
          Alcotest.test_case "include" `Quick test_include_named_sequence;
          Alcotest.test_case "alternatives pick first success" `Quick
            test_alternatives_first_success_wins;
          Alcotest.test_case "alternatives all fail" `Quick
            test_alternatives_all_fail_is_silenceable;
          Alcotest.test_case "foreach" `Quick test_foreach;
          Alcotest.test_case "sequence suppress" `Quick test_sequence_suppress;
        ] );
      ( "pass+patterns",
        [
          Alcotest.test_case "apply_registered_pass" `Quick
            test_apply_registered_pass;
          Alcotest.test_case "unknown pass" `Quick
            test_apply_unknown_pass_definite;
          Alcotest.test_case "pattern subset" `Quick test_apply_patterns_subset;
          Alcotest.test_case "unknown pattern" `Quick
            test_apply_patterns_unknown_definite;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figure-1 composition" `Quick test_fig1_composition;
          Alcotest.test_case "error context" `Quick
            test_error_context_names_transform;
          Alcotest.test_case "dynamic pre-condition check" `Quick
            test_dynamic_precondition_check;
        ] );
    ]
