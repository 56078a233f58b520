(* Loop transformations: semantic preservation (checked by execution) and
   pre-condition failures. *)

open Ir
open Dialects

let ctx = Transform.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* a kernel with one output cell per i, exercised over a single loop:
   out[i] = i * 3 + 1 *)
let build_1d_kernel n =
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ n ]) Typ.f32 in
  let f, entry = Func.create ~name:"k" ~arg_types:[ mt ] ~result_types:[] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let out = Ircore.block_arg entry 0 in
  let rw = Dutil.rw_at_end entry in
  let zero = Dutil.const_int rw 0 in
  let one = Dutil.const_int rw 1 in
  let ub = Dutil.const_int rw n in
  ignore
    (Scf.build_for rw ~lb:zero ~ub ~step:one (fun brw i _ ->
         let fi = Arith.index_cast brw i Typ.i64 in
         let ff =
           Rewriter.build1 brw ~operands:[| fi |] ~result_types:[| Typ.f32 |]
             "arith.sitofp"
         in
         let c3 = Dutil.const_float brw 3.0 in
         let c1 = Dutil.const_float brw 1.0 in
         let v = Arith.addf brw (Arith.mulf brw ff c3) c1 in
         Memref.store brw v out [ i ];
         []));
  Func.return rw ();
  md

let run_1d n md =
  let machine = Interp.Machine.create () in
  let out = Workloads.Matmul.make_matrix machine ~rows:1 ~cols:n ~seed:0 in
  let view = { out with Interp.Rvalue.sizes = [| n |]; strides = [| 1 |] } in
  match
    Interp.Compile.run_function ~machine ~ir_ctx:ctx ~module_:md ~name:"k"
      [ Interp.Rvalue.Memref view ]
  with
  | Ok (_, _) -> view.Interp.Rvalue.buf.Interp.Rvalue.data
  | Error e -> Alcotest.failf "run: %s" e

let expected_1d n = Array.init n (fun i -> (float_of_int i *. 3.0) +. 1.0)

let first_loop md = List.hd (Symbol.collect_ops ~op_name:"scf.for" md)

let check_1d ?(n = 23) transform =
  let md = build_1d_kernel n in
  let rw = Rewriter.create () in
  (match transform rw (first_loop md) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "transform failed: %s" e);
  (match Verifier.verify ctx md with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "verify: %a"
      (Fmt.list ~sep:Fmt.comma Diag.pp)
      ds);
  let got = run_1d n md in
  check cb "results preserved" true (got = expected_1d n);
  md

(* ------------------------------------------------------------------ *)
(* split                                                               *)
(* ------------------------------------------------------------------ *)

let test_split_semantics () =
  let md = check_1d (fun rw l -> Passes.Loop_utils.split rw l ~divisor:8) in
  check ci "two loops now" 2 (List.length (Symbol.collect_ops ~op_name:"scf.for" md))

let test_split_bounds () =
  let md = build_1d_kernel 23 in
  let rw = Rewriter.create () in
  (match Passes.Loop_utils.split rw (first_loop md) ~divisor:8 with
  | Ok (main, rest) ->
    check cb "main trip 16" true (Scf.static_trip_count main = Some 16);
    check cb "rest trip 7" true (Scf.static_trip_count rest = Some 7)
  | Error e -> Alcotest.fail e)

let test_split_divisor_larger_than_trip () =
  let md = build_1d_kernel 5 in
  let rw = Rewriter.create () in
  match Passes.Loop_utils.split rw (first_loop md) ~divisor:8 with
  | Ok (main, rest) ->
    check cb "main empty" true (Scf.static_trip_count main = Some 0);
    check cb "rest full" true (Scf.static_trip_count rest = Some 5);
    check cb "still correct" true (run_1d 5 md = expected_1d 5)
  | Error e -> Alcotest.fail e

let test_split_rejects_bad_divisor () =
  let md = build_1d_kernel 8 in
  let rw = Rewriter.create () in
  match Passes.Loop_utils.split rw (first_loop md) ~divisor:0 with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* unroll                                                              *)
(* ------------------------------------------------------------------ *)

let test_unroll_full () =
  let md = check_1d ~n:6 (fun rw l -> Passes.Loop_utils.unroll_full rw l) in
  check ci "loop gone" 0 (List.length (Symbol.collect_ops ~op_name:"scf.for" md));
  check ci "six stores" 6
    (List.length (Symbol.collect_ops ~op_name:"memref.store" md))

let test_unroll_by_factor () =
  let md = check_1d ~n:24 (fun rw l -> Passes.Loop_utils.unroll_by rw l ~factor:4) in
  let l = first_loop md in
  check cb "step is 4" true
    (Arith.constant_int_of_value (Scf.step l) = Some 4);
  check ci "four stores in body" 4
    (List.length (Symbol.collect_ops ~op_name:"memref.store" l))

let test_unroll_by_indivisible_fails () =
  let md = build_1d_kernel 23 in
  let rw = Rewriter.create () in
  match Passes.Loop_utils.unroll_by rw (first_loop md) ~factor:4 with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ ->
    (* payload untouched by the failed transform *)
    check cb "still correct" true (run_1d 23 md = expected_1d 23)

let test_unroll_full_with_iter_args () =
  (* sum 0..9 via iter_args, then fully unroll *)
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"k" ~arg_types:[] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let zero = Dutil.const_int rw 0 in
  let one = Dutil.const_int rw 1 in
  let ub = Dutil.const_int rw 10 in
  let init = Dutil.const_float rw 0.0 in
  let loop =
    Scf.build_for rw ~lb:zero ~ub ~step:one ~iter_args:[ init ]
      (fun brw iv iters ->
        let fi = Arith.index_cast brw iv Typ.i64 in
        let ff =
          Rewriter.build1 brw ~operands:[| fi |] ~result_types:[| Typ.f32 |]
            "arith.sitofp"
        in
        [ Arith.addf brw (List.hd iters) ff ])
  in
  Func.return rw ~operands:[ Ircore.result loop ] ();
  let rw2 = Rewriter.create () in
  (match Passes.Loop_utils.unroll_full rw2 (first_loop md) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k" [] with
  | Ok ([ Interp.Rvalue.Float v ], _) ->
    check (Alcotest.float 1e-6) "sum 0..9" 45.0 v
  | Ok _ -> Alcotest.fail "unexpected results"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* tile / interchange                                                  *)
(* ------------------------------------------------------------------ *)

let test_tile_1d_divisible () =
  let md = check_1d ~n:24 (fun rw l -> Passes.Loop_utils.tile rw l ~sizes:[ 8 ]) in
  check ci "two loops (tile+point)" 2
    (List.length (Symbol.collect_ops ~op_name:"scf.for" md));
  check ci "no min needed (divisible)" 0
    (List.length (Symbol.collect_ops ~op_name:"arith.minsi" md))

let test_tile_1d_remainder () =
  let md = check_1d ~n:23 (fun rw l -> Passes.Loop_utils.tile rw l ~sizes:[ 8 ]) in
  check ci "min guard emitted" 1
    (List.length (Symbol.collect_ops ~op_name:"arith.minsi" md))

let test_tile_returns_loops () =
  let md = Workloads.Matmul.build_module ~m:16 ~n:16 ~k:8 () in
  let rw = Rewriter.create () in
  match Passes.Loop_utils.tile rw (first_loop md) ~sizes:[ 4; 4 ] with
  | Ok (tiles, points) ->
    check ci "two tile loops" 2 (List.length tiles);
    check ci "two point loops" 2 (List.length points);
    check cb "nesting" true
      (Ircore.is_ancestor ~ancestor:(List.hd tiles) (List.hd points))
  | Error e -> Alcotest.fail e

let test_tile_too_deep_fails () =
  let md = build_1d_kernel 8 in
  let rw = Rewriter.create () in
  match Passes.Loop_utils.tile rw (first_loop md) ~sizes:[ 4; 4 ] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

let test_interchange_semantics () =
  let m, n, k = (8, 8, 4) in
  let md = Workloads.Matmul.build_module ~m ~n ~k () in
  let rw = Rewriter.create () in
  (match Passes.Loop_utils.interchange rw (first_loop md) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k md with
  | Error e -> Alcotest.fail e
  | Ok (a, b, c_init, c_out, _) ->
    let expected = Workloads.Matmul.reference ~m ~n ~k a b c_init in
    check cb "interchange preserves results" true
      (Workloads.Matmul.max_abs_diff expected c_out < 1e-4)

(* ------------------------------------------------------------------ *)
(* hoist                                                               *)
(* ------------------------------------------------------------------ *)

let test_hoist_invariants () =
  let md = check_1d (fun rw l -> Passes.Loop_utils.hoist_invariants ctx rw l) in
  let l = first_loop md in
  check ci "constants hoisted" 0
    (List.length (Symbol.collect_ops ~op_name:"arith.constant" l))

let test_hoist_keeps_dependent_ops () =
  let md = build_1d_kernel 8 in
  let rw = Rewriter.create () in
  let l = first_loop md in
  (match Passes.Loop_utils.hoist_invariants ctx rw l with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check cb "store still inside" true
    (Symbol.collect_ops ~op_name:"memref.store" l <> [])

(* ------------------------------------------------------------------ *)
(* vectorize                                                           *)
(* ------------------------------------------------------------------ *)

(* elementwise kernel vectorizable by the restricted vectorizer:
   out[i] = out[i] * 3 + 1 *)
let build_1d_elementwise n =
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ n ]) Typ.f32 in
  let f, entry = Func.create ~name:"k" ~arg_types:[ mt ] ~result_types:[] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let out = Ircore.block_arg entry 0 in
  let rw = Dutil.rw_at_end entry in
  let zero = Dutil.const_int rw 0 in
  let one = Dutil.const_int rw 1 in
  let ub = Dutil.const_int rw n in
  let c3 = Dutil.const_float rw 3.0 in
  let c1 = Dutil.const_float rw 1.0 in
  ignore
    (Scf.build_for rw ~lb:zero ~ub ~step:one (fun brw i _ ->
         let v = Memref.load brw out [ i ] in
         let v' = Arith.addf brw (Arith.mulf brw v c3) c1 in
         Memref.store brw v' out [ i ];
         []));
  Func.return rw ();
  md

let test_vectorize_semantics () =
  let n = 24 in
  let md = build_1d_elementwise n in
  let machine0 = Interp.Machine.create () in
  let mk () =
    let v = Workloads.Matmul.make_matrix machine0 ~rows:1 ~cols:n ~seed:5 in
    { v with Interp.Rvalue.sizes = [| n |]; strides = [| 1 |] }
  in
  let reference = mk () in
  let expected =
    Array.map
      (fun x -> (x *. 3.0) +. 1.0)
      reference.Interp.Rvalue.buf.Interp.Rvalue.data
  in
  let rw = Rewriter.create () in
  (match Passes.Loop_utils.vectorize rw (first_loop md) ~width:8 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "vectorize: %s" e);
  Verifier.verify_or_fail ctx md;
  check cb "vector stores present" true
    (Symbol.collect_ops ~op_name:"vector.store" md <> []);
  let out = mk () in
  (match
     Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k"
       [ Interp.Rvalue.Memref out ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check cb "vectorized results match" true
    (Workloads.Matmul.max_abs_diff expected
       out.Interp.Rvalue.buf.Interp.Rvalue.data
    < 1e-5)

let test_vectorize_rejects_iv_arith () =
  (* the 1d kernel computes with the induction variable: rejected *)
  let md = build_1d_kernel 24 in
  let rw = Rewriter.create () in
  match Passes.Loop_utils.vectorize rw (first_loop md) ~width:8 with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> check cb "payload intact" true (run_1d 24 md = expected_1d 24)

let test_vectorize_indivisible_fails () =
  let md = build_1d_elementwise 23 in
  let rw = Rewriter.create () in
  match Passes.Loop_utils.vectorize rw (first_loop md) ~width:8 with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

let test_vectorize_matmul_inner () =
  let m, n, k = (8, 16, 4) in
  let md = Workloads.Matmul.build_module ~order:Workloads.Matmul.Ikj ~m ~n ~k () in
  let rw = Rewriter.create () in
  let loops = Symbol.collect_ops ~op_name:"scf.for" md in
  let inner = List.nth loops 2 in
  (match Passes.Loop_utils.vectorize rw inner ~width:8 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k md with
  | Error e -> Alcotest.fail e
  | Ok (a, b, c_init, c_out, _) ->
    let expected = Workloads.Matmul.reference ~m ~n ~k a b c_init in
    check cb "vectorized matmul correct" true
      (Workloads.Matmul.max_abs_diff expected c_out < 1e-4)

(* ------------------------------------------------------------------ *)
(* peel / fuse                                                         *)
(* ------------------------------------------------------------------ *)

let test_peel_front () =
  let md = build_1d_kernel 23 in
  let rw = Rewriter.create () in
  (match Passes.Loop_utils.peel_front rw (first_loop md) ~iterations:3 with
  | Ok (peeled, rest) ->
    check cb "peeled trip 3" true (Scf.static_trip_count peeled = Some 3);
    check cb "rest trip 20" true (Scf.static_trip_count rest = Some 20)
  | Error e -> Alcotest.fail e);
  check cb "semantics preserved" true (run_1d 23 md = expected_1d 23)

let test_peel_more_than_trip () =
  let md = build_1d_kernel 5 in
  let rw = Rewriter.create () in
  match Passes.Loop_utils.peel_front rw (first_loop md) ~iterations:100 with
  | Ok (peeled, rest) ->
    check cb "peeled covers all" true (Scf.static_trip_count peeled = Some 5);
    check cb "rest empty" true (Scf.static_trip_count rest = Some 0);
    check cb "still correct" true (run_1d 5 md = expected_1d 5)
  | Error e -> Alcotest.fail e

(* two independent loops over the same range, writing disjoint halves *)
let build_fusable n =
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ 2 * n ]) Typ.f32 in
  let f, entry = Func.create ~name:"k" ~arg_types:[ mt ] ~result_types:[] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let out = Ircore.block_arg entry 0 in
  let rw = Dutil.rw_at_end entry in
  let zero = Dutil.const_int rw 0 in
  let one = Dutil.const_int rw 1 in
  let ub = Dutil.const_int rw n in
  let cn = Dutil.const_int rw n in
  let v1 = Dutil.const_float rw 1.5 in
  let v2 = Dutil.const_float rw 2.5 in
  ignore
    (Scf.build_for rw ~lb:zero ~ub ~step:one (fun brw i _ ->
         Memref.store brw v1 out [ i ];
         []));
  ignore
    (Scf.build_for rw ~lb:zero ~ub ~step:one (fun brw i _ ->
         let j = Arith.addi brw i cn in
         Memref.store brw v2 out [ j ];
         []));
  Func.return rw ();
  md

let run_fused n md =
  let machine = Interp.Machine.create () in
  let out = Workloads.Matmul.make_matrix machine ~rows:1 ~cols:(2 * n) ~seed:0 in
  let view = { out with Interp.Rvalue.sizes = [| 2 * n |]; strides = [| 1 |] } in
  match
    Interp.Compile.run_function ~machine ~ir_ctx:ctx ~module_:md ~name:"k"
      [ Interp.Rvalue.Memref view ]
  with
  | Ok _ -> view.Interp.Rvalue.buf.Interp.Rvalue.data
  | Error e -> Alcotest.failf "run: %s" e

let test_fuse_siblings () =
  let n = 8 in
  let md = build_fusable n in
  let loops = Symbol.collect_ops ~op_name:"scf.for" md in
  let rw = Rewriter.create () in
  (match
     Passes.Loop_utils.fuse_siblings rw (List.nth loops 0) (List.nth loops 1)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Verifier.verify_or_fail ctx md;
  check ci "one loop remains" 1
    (List.length (Symbol.collect_ops ~op_name:"scf.for" md));
  let data = run_fused n md in
  check cb "both halves written" true
    (Array.for_all (fun x -> x = 1.5) (Array.sub data 0 n)
    && Array.for_all (fun x -> x = 2.5) (Array.sub data n n))

let test_fuse_rejects_different_bounds () =
  let md = build_fusable 8 in
  let loops = Symbol.collect_ops ~op_name:"scf.for" md in
  let rw = Rewriter.create () in
  (* change the second loop's ub *)
  let b = List.nth loops 1 in
  Rewriter.set_ip rw (Builder.Before b);
  Ircore.set_operand b 1 (Dutil.const_int rw 4);
  match Passes.Loop_utils.fuse_siblings rw (List.nth loops 0) b with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

let test_fuse_transform_op () =
  let md = build_fusable 8 in
  let script =
    Transform.Build.script (fun rw root ->
        let l1 = Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        let l2 = Transform.Build.match_op rw ~select:"second" ~name:"scf.for" root in
        ignore (Transform.Build.loop_fuse rw l1 l2))
  in
  (match Transform.Schedule.run ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Transform.Terror.to_string e));
  check ci "fused via transform" 1
    (List.length (Symbol.collect_ops ~op_name:"scf.for" md))

let test_peel_transform_op () =
  let md = build_1d_kernel 23 in
  let script =
    Transform.Build.script (fun rw root ->
        let l = Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        let peeled, _rest = Transform.Build.loop_peel rw ~iterations:3 l in
        Transform.Build.loop_unroll_full rw peeled)
  in
  (match Transform.Schedule.run ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Transform.Terror.to_string e));
  check cb "correct after peel+unroll" true (run_1d 23 md = expected_1d 23)

(* ------------------------------------------------------------------ *)
(* matmul matcher / library call                                       *)
(* ------------------------------------------------------------------ *)

let test_match_matmul_positive () =
  let md = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 () in
  match Passes.Loop_utils.match_matmul (first_loop md) with
  | Ok mm ->
    check ci "m" 8 mm.Passes.Loop_utils.mm_m;
    check ci "n" 8 mm.Passes.Loop_utils.mm_n;
    check ci "k" 4 mm.Passes.Loop_utils.mm_k_size
  | Error e -> Alcotest.fail e

let test_match_matmul_rejects_1d () =
  let md = build_1d_kernel 8 in
  match Passes.Loop_utils.match_matmul (first_loop md) with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

let test_library_call_unsupported_size () =
  (* n not divisible by 4: the libxsmm model refuses *)
  let md = Workloads.Matmul.build_module ~m:8 ~n:7 ~k:4 () in
  let rw = Rewriter.create () in
  match
    Passes.Loop_utils.replace_with_library_call rw ctx (first_loop md)
      ~library:"libxsmm"
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ ->
    check ci "payload unchanged" 3
      (List.length (Symbol.collect_ops ~op_name:"scf.for" md))

let test_library_call_unknown_library () =
  let md = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 () in
  let rw = Rewriter.create () in
  match
    Passes.Loop_utils.replace_with_library_call rw ctx (first_loop md)
      ~library:"mkl"
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

(* property: tiling with random sizes preserves matmul semantics *)
let prop_tile_preserves_matmul =
  QCheck.Test.make ~count:20 ~name:"random tiling preserves matmul"
    QCheck.(pair (int_range 1 10) (int_range 1 10))
    (fun (ti, tj) ->
      let m, n, k = (12, 8, 4) in
      let md = Workloads.Matmul.build_module ~m ~n ~k () in
      let rw = Rewriter.create () in
      match Passes.Loop_utils.tile rw (first_loop md) ~sizes:[ ti; tj ] with
      | Error _ -> true
      | Ok _ -> (
        match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k md with
        | Error _ -> false
        | Ok (a, b, c_init, c_out, _) ->
          let expected = Workloads.Matmul.reference ~m ~n ~k a b c_init in
          Workloads.Matmul.max_abs_diff expected c_out < 1e-4))

let () =
  Alcotest.run "loop-utils"
    [
      ( "split",
        [
          Alcotest.test_case "semantics" `Quick test_split_semantics;
          Alcotest.test_case "bounds" `Quick test_split_bounds;
          Alcotest.test_case "divisor > trip count" `Quick
            test_split_divisor_larger_than_trip;
          Alcotest.test_case "bad divisor rejected" `Quick
            test_split_rejects_bad_divisor;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "full" `Quick test_unroll_full;
          Alcotest.test_case "by factor" `Quick test_unroll_by_factor;
          Alcotest.test_case "indivisible fails cleanly" `Quick
            test_unroll_by_indivisible_fails;
          Alcotest.test_case "full with iter_args" `Quick
            test_unroll_full_with_iter_args;
        ] );
      ( "tile",
        [
          Alcotest.test_case "1d divisible" `Quick test_tile_1d_divisible;
          Alcotest.test_case "1d remainder (min guard)" `Quick
            test_tile_1d_remainder;
          Alcotest.test_case "returns tile/point loops" `Quick
            test_tile_returns_loops;
          Alcotest.test_case "too deep fails" `Quick test_tile_too_deep_fails;
          Alcotest.test_case "interchange semantics" `Quick
            test_interchange_semantics;
          QCheck_alcotest.to_alcotest prop_tile_preserves_matmul;
        ] );
      ( "hoist",
        [
          Alcotest.test_case "hoists invariants" `Quick test_hoist_invariants;
          Alcotest.test_case "keeps dependent ops" `Quick
            test_hoist_keeps_dependent_ops;
        ] );
      ( "vectorize",
        [
          Alcotest.test_case "semantics" `Quick test_vectorize_semantics;
          Alcotest.test_case "rejects iv arithmetic" `Quick
            test_vectorize_rejects_iv_arith;
          Alcotest.test_case "indivisible fails" `Quick
            test_vectorize_indivisible_fails;
          Alcotest.test_case "matmul inner loop" `Quick
            test_vectorize_matmul_inner;
        ] );
      ( "peel+fuse",
        [
          Alcotest.test_case "peel front" `Quick test_peel_front;
          Alcotest.test_case "peel more than trip" `Quick
            test_peel_more_than_trip;
          Alcotest.test_case "fuse siblings" `Quick test_fuse_siblings;
          Alcotest.test_case "fuse rejects different bounds" `Quick
            test_fuse_rejects_different_bounds;
          Alcotest.test_case "transform.loop_fuse" `Quick test_fuse_transform_op;
          Alcotest.test_case "transform.loop_peel" `Quick test_peel_transform_op;
        ] );
      ( "matmul-match",
        [
          Alcotest.test_case "positive" `Quick test_match_matmul_positive;
          Alcotest.test_case "rejects non-matmul" `Quick
            test_match_matmul_rejects_1d;
          Alcotest.test_case "unsupported size" `Quick
            test_library_call_unsupported_size;
          Alcotest.test_case "unknown library" `Quick
            test_library_call_unknown_library;
        ] );
    ]
