(* Transform-IR-level processing: inlining, no-op folding, DCE,
   introspection (Section 3.4). *)

open Ir
module T = Transform

let ctx = T.Register.full_context ()
let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let count name md = List.length (Symbol.collect_ops ~op_name:name md)

let test_inline_include () =
  let script =
    T.Build.script (fun rw root ->
        let inc = T.Build.include_ rw ~target:"helper" [ root ] ~results:1 in
        T.Build.print rw (Ircore.result inc))
  in
  ignore
    (T.Build.named_sequence script ~name:"helper" ~num_args:1 (fun rw args ->
         [ T.Build.match_op rw ~select:"first" ~name:"scf.for" (List.hd args) ]));
  (match T.Simplify.inline_includes script with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check ci "no includes left" 0 (count "transform.include" script);
  (* the match op was spliced into the main sequence *)
  let main =
    List.find
      (fun o -> Symbol.symbol_name o = Some "__transform_main")
      (Symbol.collect_ops ~op_name:"transform.named_sequence" script)
  in
  check ci "match inlined into main" 1 (count "transform.match_op" main)

let test_inline_nested_includes () =
  let script =
    T.Build.script (fun rw root ->
        ignore (T.Build.include_ rw ~target:"outer_helper" [ root ] ~results:0))
  in
  ignore
    (T.Build.named_sequence script ~name:"outer_helper" ~num_args:1
       (fun rw args ->
         ignore (T.Build.include_ rw ~target:"inner_helper" args ~results:0);
         []));
  ignore
    (T.Build.named_sequence script ~name:"inner_helper" ~num_args:1
       (fun rw args ->
         ignore (T.Build.loop_hoist rw (List.hd args));
         []));
  (match T.Simplify.inline_includes script with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check ci "no includes" 0 (count "transform.include" script)

let test_inline_detects_recursion () =
  let script =
    T.Build.script (fun rw root ->
        ignore (T.Build.include_ rw ~target:"rec" [ root ] ~results:0))
  in
  ignore
    (T.Build.named_sequence script ~name:"rec" ~num_args:1 (fun rw args ->
         ignore (T.Build.include_ rw ~target:"rec" args ~results:0);
         []));
  match T.Simplify.inline_includes script with
  | Ok () -> Alcotest.fail "expected recursion error"
  | Error e -> check cb "mentions cycle" true (String.length e > 0)

let test_fold_noop_unroll () =
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        T.Build.loop_unroll rw ~factor:1 loop)
  in
  let folded = T.Simplify.fold_noops script in
  check ci "one folded" 1 folded;
  check ci "unroll removed" 0 (count "transform.loop_unroll" script)

let test_fold_noop_tile_forwards_handles () =
  let script =
    T.Build.script (fun rw root ->
        let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        let _t, p = T.Build.loop_tile rw ~sizes:[ 0; 0 ] loop in
        T.Build.loop_unroll_full rw p)
  in
  let folded = T.Simplify.fold_noops script in
  check ci "tile folded" 1 folded;
  check ci "tile removed" 0 (count "transform.loop_tile" script);
  (* the unroll must now use the match result directly *)
  let unroll = List.hd (Symbol.collect_ops ~op_name:"transform.loop_unroll" script) in
  let matched = List.hd (Symbol.collect_ops ~op_name:"transform.match_op" script) in
  check cb "forwarded" true
    (Ircore.operand unroll == Ircore.result matched)

let test_dce_unused_matches () =
  let script =
    T.Build.script (fun rw root ->
        ignore (T.Build.match_op rw ~name:"scf.for" root);
        ignore (T.Build.param_constant rw 5);
        let used = T.Build.match_op rw ~select:"first" ~name:"func.func" root in
        T.Build.print rw used)
  in
  let removed = T.Simplify.dce script in
  check ci "two removed" 2 removed;
  check ci "used match kept" 1 (count "transform.match_op" script)

let test_run_combined_then_execute () =
  (* simplified script must still work on a payload *)
  let md = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 () in
  let script =
    T.Build.script (fun rw root ->
        let inc = T.Build.include_ rw ~target:"find" [ root ] ~results:1 in
        let loop = Ircore.result inc in
        let _t, p = T.Build.loop_tile rw ~sizes:[ 0; 0 ] loop in
        T.Build.loop_unroll rw ~factor:1 p;
        ignore (T.Build.loop_tile rw ~sizes:[ 4; 4 ] p))
  in
  ignore
    (T.Build.named_sequence script ~name:"find" ~num_args:1 (fun rw args ->
         [ T.Build.match_op rw ~select:"first" ~name:"scf.for" (List.hd args) ]));
  (match T.Simplify.run script with
  | Ok (folded, _) -> check cb "folded some" true (folded >= 2)
  | Error e -> Alcotest.fail e);
  (match T.Schedule.run ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (T.Terror.to_string e));
  check ci "tiled" 5 (count "scf.for" md)

let test_simplified_equals_unsimplified () =
  (* same payload transformations with and without simplification *)
  let build_script () =
    let script =
      T.Build.script (fun rw root ->
          let loop = T.Build.match_op rw ~select:"first" ~name:"scf.for" root in
          let _t, p = T.Build.loop_tile rw ~sizes:[ 0; 0 ] loop in
          ignore (T.Build.loop_tile rw ~sizes:[ 4; 4 ] p))
    in
    script
  in
  let md1 = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 () in
  let md2 = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 () in
  ignore (T.Schedule.run ctx ~script:(build_script ()) ~payload:md1);
  let s2 = build_script () in
  (match T.Simplify.run s2 with Ok _ -> () | Error e -> Alcotest.fail e);
  ignore (T.Schedule.run ctx ~script:s2 ~payload:md2);
  check Alcotest.string "same transformed IR"
    (Printer.op_to_string md1) (Printer.op_to_string md2)

(* ------------------------------------------------------------------ *)
(* introspection (Section 3.4)                                         *)
(* ------------------------------------------------------------------ *)

let test_infer_add_kinds_by_position () =
  Experiments.S34.register_shlo_to_arith ();
  let rows = Experiments.S34.run ctx in
  let kinds = List.map (fun r -> r.Experiments.S34.inferred_add) rows in
  check (Alcotest.list Alcotest.string) "inferred per level"
    [ "shlo.add"; "arith.addf"; "llvm.fadd" ] kinds

let test_explicit_add_kind_respected () =
  let script =
    T.Build.script (fun rw root ->
        let f = T.Build.match_op rw ~name:"func.func" root in
        Rewriter.build0 rw ~operands:[| f |]
          ~attrs:[ ("add_op", Attr.str "tosa.add") ]
          T.Ops.enzyme_ad_op)
  in
  let kinds = T.Introspect.infer_add_kinds script in
  check (Alcotest.list Alcotest.string) "explicit kept" [ "tosa.add" ] kinds

let () =
  Alcotest.run "simplify"
    [
      ( "inline",
        [
          Alcotest.test_case "include expansion" `Quick test_inline_include;
          Alcotest.test_case "nested includes" `Quick
            test_inline_nested_includes;
          Alcotest.test_case "recursion rejected" `Quick
            test_inline_detects_recursion;
        ] );
      ( "fold",
        [
          Alcotest.test_case "unroll by 1" `Quick test_fold_noop_unroll;
          Alcotest.test_case "tile by 0 forwards" `Quick
            test_fold_noop_tile_forwards_handles;
          Alcotest.test_case "dce unused" `Quick test_dce_unused_matches;
          Alcotest.test_case "combined + execute" `Quick
            test_run_combined_then_execute;
          Alcotest.test_case "simplified == unsimplified" `Quick
            test_simplified_equals_unsimplified;
        ] );
      ( "introspect",
        [
          Alcotest.test_case "infer add kinds (Fig 5)" `Quick
            test_infer_add_kinds_by_position;
          Alcotest.test_case "explicit kind respected" `Quick
            test_explicit_add_kind_respected;
        ] );
    ]
