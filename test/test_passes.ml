(* Conversion passes: the Case Study 2 lowerings, lower-affine,
   linalg-to-loops, LICM — checked structurally and by execution. *)

open Ir
open Dialects
open Testutil

(* ------------------------------------------------------------------ *)
(* scf-to-cf                                                           *)
(* ------------------------------------------------------------------ *)

let test_scf_to_cf_structure () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  run_pass "convert-scf-to-cf" md;
  check cb "no scf" true (dialect_gone "scf" md);
  check cb "branches present" true (count "cf.cond_br" md > 0);
  Verifier.verify_or_fail ctx md

let test_scf_to_cf_iter_args () =
  (* loop-carried sum must survive CFG conversion *)
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"k" ~arg_types:[] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let zero = Dutil.const_int rw 0 in
  let one = Dutil.const_int rw 1 in
  let ub = Dutil.const_int rw 5 in
  let init = Dutil.const_float rw 1.0 in
  let loop =
    Scf.build_for rw ~lb:zero ~ub ~step:one ~iter_args:[ init ]
      (fun brw _ iters ->
        let two = Dutil.const_float brw 2.0 in
        [ Arith.mulf brw (List.hd iters) two ])
  in
  Func.return rw ~operands:[ Ircore.result loop ] ();
  run_pass "convert-scf-to-cf" md;
  Verifier.verify_or_fail ctx md;
  match Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k" [] with
  | Ok ([ Interp.Rvalue.Float v ], _) ->
    check (Alcotest.float 1e-6) "2^5" 32.0 v
  | Ok _ -> Alcotest.fail "unexpected result shape"
  | Error e -> Alcotest.fail e

let test_scf_if_to_cf () =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"k" ~arg_types:[ Typ.i1 ] ~result_types:[ Typ.f32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let c = Ircore.block_arg entry 0 in
  let ifop =
    Scf.build_if rw ~cond:c ~result_types:[ Typ.f32 ]
      ~then_:(fun brw -> [ Dutil.const_float brw 1.0 ])
      ~else_:(fun brw -> [ Dutil.const_float brw 2.0 ])
  in
  Func.return rw ~operands:[ Ircore.result ifop ] ();
  run_pass "convert-scf-to-cf" md;
  Verifier.verify_or_fail ctx md;
  let run b =
    match
      Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k"
        [ Interp.Rvalue.Bool b ]
    with
    | Ok ([ Interp.Rvalue.Float v ], _) -> v
    | _ -> Alcotest.fail "bad result"
  in
  check (Alcotest.float 0.0) "then" 1.0 (run true);
  check (Alcotest.float 0.0) "else" 2.0 (run false)

let build_while_module () =
  (* while (x < 100) x = x * 2, via scf.while *)
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"k" ~arg_types:[ Typ.index ] ~result_types:[ Typ.index ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let before = Ircore.create_block ~args:[ Typ.index ] () in
  let after = Ircore.create_block ~args:[ Typ.index ] () in
  let w =
    Rewriter.build rw
      ~operands:[| Ircore.block_arg entry 0 |]
      ~result_types:[| Typ.index |]
      ~regions:[ Ircore.region_with_block before; Ircore.region_with_block after ]
      "scf.while"
  in
  let brw = Dutil.rw_at_end before in
  let hundred = Dutil.const_int brw 100 in
  let c = Arith.cmpi brw Arith.Slt (Ircore.block_arg before 0) hundred in
  Rewriter.build0 brw ~operands:[| c; Ircore.block_arg before 0 |]
    "scf.condition";
  let arw = Dutil.rw_at_end after in
  let two = Dutil.const_int arw 2 in
  Scf.yield arw ~operands:[ Arith.muli arw (Ircore.block_arg after 0) two ] ();
  Func.return rw ~operands:[ Ircore.result w ] ();
  md

let test_scf_while_to_cf () =
  let md = build_while_module () in
  run_pass "convert-scf-to-cf" md;
  Verifier.verify_or_fail ctx md;
  check cb "no scf left" true (dialect_gone "scf" md);
  match
    Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k"
      [ Interp.Rvalue.Int 3 ]
  with
  | Ok ([ Interp.Rvalue.Int 192 ], _) -> ()
  | Ok (rs, _) -> Alcotest.failf "got %a" Fmt.(list Interp.Rvalue.pp) rs
  | Error e -> Alcotest.fail e

let test_forall_expansion () =
  let md = Workloads.Subview_kernel.build Workloads.Subview_kernel.Static_offset in
  run_pass "convert-scf-to-cf" md;
  check cb "forall gone" true (count "scf.forall" md = 0);
  check cb "no scf at all" true (dialect_gone "scf" md)

(* ------------------------------------------------------------------ *)
(* full CS2 pipelines                                                  *)
(* ------------------------------------------------------------------ *)

let test_naive_pipeline_static_offset () =
  let md = Workloads.Subview_kernel.build Workloads.Subview_kernel.Static_offset in
  (match run_pipeline Workloads.Subview_kernel.naive_pipeline md with
  | Ok () -> ()
  | Error e -> Alcotest.failf "naive/static should succeed: %s" e);
  check cb "only llvm + module left" true
    (Symbol.collect md ~f:(fun o ->
         let d = Ircore.op_dialect o in
         d <> "llvm" && d <> "builtin")
    = [])

let test_naive_pipeline_dynamic_offset_fails () =
  let md = Workloads.Subview_kernel.build Workloads.Subview_kernel.Dynamic_offset in
  match run_pipeline Workloads.Subview_kernel.naive_pipeline md with
  | Ok () -> Alcotest.fail "naive/dynamic should fail"
  | Error e ->
    check cb "reports unrealized cast legalization" true
      (contains e "unrealized_conversion_cast")

and test_robust_pipeline_dynamic_offset () =
  let md = Workloads.Subview_kernel.build Workloads.Subview_kernel.Dynamic_offset in
  match run_pipeline Workloads.Subview_kernel.robust_pipeline md with
  | Ok () -> ()
  | Error e -> Alcotest.failf "robust/dynamic should succeed: %s" e

(* ------------------------------------------------------------------ *)
(* lower-affine                                                        *)
(* ------------------------------------------------------------------ *)

let test_lower_affine_semantics () =
  (* f(x, y) = affine.apply (d0 * 4 + s0 floordiv 2) — compare against the
     map evaluation after lowering to arith and executing *)
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"k" ~arg_types:[ Typ.index; Typ.index ]
      ~result_types:[ Typ.index ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let map =
    Affine.make_map ~num_dims:1 ~num_syms:1
      [
        Affine.(
          Add (Mul (Dim 0, Const 4), Floordiv (Sym 0, Const 2)));
      ]
  in
  let r =
    Affine_ops.apply rw map [ Ircore.block_arg entry 0; Ircore.block_arg entry 1 ]
  in
  Func.return rw ~operands:[ r ] ();
  run_pass "lower-affine" md;
  check cb "no affine left" true (dialect_gone "affine" md);
  let run x y =
    match
      Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k"
        [ Interp.Rvalue.Int x; Interp.Rvalue.Int y ]
    with
    | Ok ([ Interp.Rvalue.Int v ], _) -> v
    | _ -> Alcotest.fail "bad result"
  in
  List.iter
    (fun (x, y) ->
      check ci
        (Fmt.str "map(%d,%d)" x y)
        (List.hd (Affine.eval_map map ~dims:[| x |] ~syms:[| y |]))
        (run x y))
    [ (0, 0); (3, 7); (10, 5) ]

let test_lower_affine_min () =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"k" ~arg_types:[ Typ.index ] ~result_types:[ Typ.index ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let map =
    Affine.make_map ~num_dims:1 ~num_syms:0
      [ Affine.Dim 0; Affine.Const 10 ]
  in
  let r = Affine_ops.min_ rw map [ Ircore.block_arg entry 0 ] in
  Func.return rw ~operands:[ r ] ();
  run_pass "lower-affine" md;
  let run x =
    match
      Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k"
        [ Interp.Rvalue.Int x ]
    with
    | Ok ([ Interp.Rvalue.Int v ], _) -> v
    | _ -> Alcotest.fail "bad result"
  in
  check ci "min(5,10)" 5 (run 5);
  check ci "min(15,10)" 10 (run 15)

(* ------------------------------------------------------------------ *)
(* linalg-to-loops                                                     *)
(* ------------------------------------------------------------------ *)

let test_linalg_matmul_to_loops () =
  let m, n, k = (6, 8, 4) in
  let md = Builtin.create_module () in
  let mt a b = Typ.memref (Typ.static_dims [ a; b ]) Typ.f32 in
  let f, entry =
    Func.create ~name:"matmul"
      ~arg_types:[ mt m k; mt k n; mt m n ]
      ~result_types:[] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  ignore
    (Linalg.matmul rw
       ~a:(Ircore.block_arg entry 0)
       ~b:(Ircore.block_arg entry 1)
       ~c:(Ircore.block_arg entry 2));
  Func.return rw ();
  run_pass "convert-linalg-to-loops" md;
  check cb "linalg gone" true (dialect_gone "linalg" md);
  match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k md with
  | Error e -> Alcotest.fail e
  | Ok (a, b, c_init, c_out, _) ->
    let expected = Workloads.Matmul.reference ~m ~n ~k a b c_init in
    check cb "lowered matmul correct" true
      (Workloads.Matmul.max_abs_diff expected c_out < 1e-4)

let test_linalg_fill_to_loops () =
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ 3; 5 ]) Typ.f32 in
  let f, entry = Func.create ~name:"k" ~arg_types:[ mt ] ~result_types:[] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let v = Dutil.const_float rw 7.5 in
  ignore (Linalg.fill rw ~value:v ~dest:(Ircore.block_arg entry 0));
  Func.return rw ();
  run_pass "convert-linalg-to-loops" md;
  let machine = Interp.Machine.create () in
  let buf = Workloads.Matmul.make_matrix machine ~rows:3 ~cols:5 ~seed:1 in
  (match
     Interp.Compile.run_function ~machine ~ir_ctx:ctx ~module_:md ~name:"k"
       [ Interp.Rvalue.Memref buf ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check cb "all filled" true
    (Array.for_all (fun x -> x = 7.5) buf.Interp.Rvalue.buf.Interp.Rvalue.data)

(* ------------------------------------------------------------------ *)
(* tosa pipeline                                                       *)
(* ------------------------------------------------------------------ *)

let test_tosa_pipeline_eliminates_tosa () =
  let md =
    Workloads.Models.build
      { Workloads.Models.sp_name = "tiny"; sp_ops = 60; sp_style = Workloads.Models.Transformer }
  in
  (match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
  | Ok passes -> (
    match Passes.Pass.run_pipeline ctx passes md with
    | Ok () -> ()
    | Error d -> Alcotest.fail (Diag.to_string d))
  | Error e -> Alcotest.fail (Diag.to_string e));
  check cb "tosa gone" true (dialect_gone "tosa" md);
  check cb "linalg present" true
    (Symbol.collect md ~f:(fun o -> Ircore.op_dialect o = "linalg") <> [])

(* ------------------------------------------------------------------ *)
(* LICM pass                                                           *)
(* ------------------------------------------------------------------ *)

let test_licm_pass () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:4 () in
  (* duplicate an invariant computation into the innermost loop *)
  let inner = List.nth (Symbol.collect_ops ~op_name:"scf.for" md) 2 in
  let body = Scf.body_block inner in
  let first = Option.get (Ircore.block_first_op body) in
  let rw = Rewriter.create ~ip:(Builder.Before first) () in
  ignore (Dutil.const_int rw 99);
  check ci "constant inside before" 1 (count "arith.constant" inner);
  run_pass "licm" md;
  check ci "constant hoisted out" 0 (count "arith.constant" inner)

(* ------------------------------------------------------------------ *)
(* inliner                                                             *)
(* ------------------------------------------------------------------ *)

let call_chain_module () =
  let md = Builtin.create_module () in
  (* leaf: double *)
  let leaf, le = Func.create ~name:"double" ~arg_types:[ Typ.f32 ] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) leaf;
  let lrw = Dutil.rw_at_end le in
  let two = Dutil.const_float lrw 2.0 in
  Func.return lrw ~operands:[ Arith.mulf lrw (Ircore.block_arg le 0) two ] ();
  (* mid: quadruple = double(double(x)) *)
  let mid, me = Func.create ~name:"quadruple" ~arg_types:[ Typ.f32 ] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) mid;
  let mrw = Dutil.rw_at_end me in
  let c1 =
    Func.call mrw ~callee:"double" ~operands:[ Ircore.block_arg me 0 ]
      ~result_types:[ Typ.f32 ]
  in
  let c2 =
    Func.call mrw ~callee:"double" ~operands:[ Ircore.result c1 ]
      ~result_types:[ Typ.f32 ]
  in
  Func.return mrw ~operands:[ Ircore.result c2 ] ();
  (* entry *)
  let f, entry = Func.create ~name:"k" ~arg_types:[ Typ.f32 ] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let c =
    Func.call rw ~callee:"quadruple" ~operands:[ Ircore.block_arg entry 0 ]
      ~result_types:[ Typ.f32 ]
  in
  Func.return rw ~operands:[ Ircore.result c ] ();
  md

let test_inline_call_chain () =
  let md = call_chain_module () in
  run_pass "inline" md;
  Verifier.verify_or_fail ctx md;
  check ci "all calls inlined" 0 (count "func.call" md);
  match
    Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k"
      [ Interp.Rvalue.Float 3.0 ]
  with
  | Ok ([ Interp.Rvalue.Float v ], _) ->
    check (Alcotest.float 1e-6) "4*x" 12.0 v
  | _ -> Alcotest.fail "bad result"

let test_inline_keeps_external_calls () =
  let md = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 () in
  (* insert a microkernel call via the transform path *)
  let script =
    Transform.Build.script (fun rw root ->
        let loop = Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root in
        Transform.Build.to_library rw ~library:"libxsmm" loop)
  in
  (match Transform.Schedule.run ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Transform.Terror.to_string e));
  run_pass "inline" md;
  check ci "external libxsmm call kept" 1 (count "func.call" md)

let test_inline_skips_recursive () =
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"rec" ~arg_types:[ Typ.f32 ] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let c =
    Func.call rw ~callee:"rec" ~operands:[ Ircore.block_arg entry 0 ]
      ~result_types:[ Typ.f32 ]
  in
  Func.return rw ~operands:[ Ircore.result c ] ();
  run_pass "inline" md;
  check ci "recursive call kept" 1 (count "func.call" md)

(* ------------------------------------------------------------------ *)
(* scf canonicalizations                                               *)
(* ------------------------------------------------------------------ *)

let test_canonicalize_zero_trip_loop () =
  let md = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 () in
  let rw = Rewriter.create () in
  let loop = List.hd (Symbol.collect_ops ~op_name:"scf.for" md) in
  Rewriter.set_ip rw (Builder.Before loop);
  Ircore.set_operand loop 1 (Dutil.const_int rw 0);
  run_pass "canonicalize" md;
  check ci "all loops folded away" 0 (count "scf.for" md)

let test_canonicalize_single_trip_loop () =
  (* build a trip-1 loop computing a value via iter_args *)
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"k" ~arg_types:[] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let zero = Dutil.const_int rw 0 in
  let one = Dutil.const_int rw 1 in
  let init = Dutil.const_float rw 2.0 in
  let loop =
    Scf.build_for rw ~lb:zero ~ub:one ~step:one ~iter_args:[ init ]
      (fun brw _ iters ->
        [ Arith.mulf brw (List.hd iters) (List.hd iters) ])
  in
  Func.return rw ~operands:[ Ircore.result loop ] ();
  run_pass "canonicalize" md;
  check ci "loop inlined" 0 (count "scf.for" md);
  match
    Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k" []
  with
  | Ok ([ Interp.Rvalue.Float 4.0 ], _) -> ()
  | Ok (rs, _) ->
    Alcotest.failf "got %a" Fmt.(list Interp.Rvalue.pp) rs
  | Error e -> Alcotest.fail e

let test_canonicalize_constant_if () =
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"k" ~arg_types:[] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let t = Arith.constant rw (Attr.Bool true) Typ.i1 in
  let ifop =
    Scf.build_if rw ~cond:t ~result_types:[ Typ.f32 ]
      ~then_:(fun brw -> [ Dutil.const_float brw 1.0 ])
      ~else_:(fun brw -> [ Dutil.const_float brw 2.0 ])
  in
  Func.return rw ~operands:[ Ircore.result ifop ] ();
  run_pass "canonicalize" md;
  check ci "if folded" 0 (count "scf.if" md);
  match Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k" [] with
  | Ok ([ Interp.Rvalue.Float 1.0 ], _) -> ()
  | _ -> Alcotest.fail "then branch expected"

(* ------------------------------------------------------------------ *)
(* cse                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cse_keeps_result_types_apart () =
  let md =
    match
      Parser.parse_module
        {|"builtin.module"() ({
  "func.func"() ({
    %0 = "tensor.empty"() : () -> tensor<4x8xf32>
    %1 = "tensor.empty"() : () -> tensor<8x4xf32>
    "func.return"(%0, %1) : (tensor<4x8xf32>, tensor<8x4xf32>) -> ()
  }) {sym_name = "f", function_type = () -> (tensor<4x8xf32>, tensor<8x4xf32>)} : () -> ()
}) : () -> ()|}
    with
    | Ok md -> md
    | Error e -> Alcotest.fail e
  in
  run_pass "cse" md;
  check ci "both tensor.empty kept" 2 (count "tensor.empty" md);
  match Symbol.collect_ops ~op_name:"func.return" md with
  | [ ret ] ->
    let types = List.map Ircore.value_typ (Ircore.operands ret) in
    check cb "return operands keep their types" true
      (types
      = [ Typ.Ranked_tensor ([ Typ.Static 4; Typ.Static 8 ], Typ.f32);
          Typ.Ranked_tensor ([ Typ.Static 8; Typ.Static 4 ], Typ.f32) ])
  | _ -> Alcotest.fail "expected one func.return"

(* float attributes compare bitwise: CSE merges equal zeros but keeps
   0.0 and -0.0 apart *)
let test_cse_keeps_signed_zeros_apart () =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"f" ~arg_types:[]
      ~result_types:[ Typ.f64; Typ.f64; Typ.f64 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let zero () = Arith.constant rw (Attr.Float (0.0, Typ.f64)) Typ.f64 in
  let pos = zero () in
  let neg = Arith.constant rw (Attr.Float (-0.0, Typ.f64)) Typ.f64 in
  let pos' = zero () in
  Func.return rw ~operands:[ pos; neg; pos' ] ();
  run_pass "cse" md;
  check ci "equal zeros merged, signed zero kept" 2 (count "arith.constant" md);
  match Symbol.collect_ops ~op_name:"func.return" md with
  | [ ret ] ->
    let bits v =
      match Option.bind (Ircore.defining_op v) (fun d -> Ircore.attr d "value") with
      | Some (Attr.Float (x, _)) -> Int64.bits_of_float x
      | _ -> Alcotest.fail "operand is not a float constant"
    in
    check cb "returns 0.0, -0.0, 0.0" true
      (List.map bits (Ircore.operands ret)
      = List.map Int64.bits_of_float [ 0.0; -0.0; 0.0 ])
  | _ -> Alcotest.fail "expected one func.return"

(* ------------------------------------------------------------------ *)
(* pipeline parsing / registry                                         *)
(* ------------------------------------------------------------------ *)

let test_pipeline_parse () =
  (match Passes.Pass.parse_pipeline "canonicalize, cse" with
  | Ok ps -> check ci "two passes" 2 (List.length ps)
  | Error e -> Alcotest.fail (Diag.to_string e));
  match Passes.Pass.parse_pipeline "no-such-pass" with
  | Ok _ -> Alcotest.fail "expected unknown pass error"
  | Error _ -> ()

let test_registry_complete () =
  List.iter
    (fun name ->
      check cb name true (Option.is_some (Passes.Pass.lookup name)))
    ([ "canonicalize"; "cse"; "licm"; "dce"; "symbol-dce";
       "convert-linalg-to-loops"; "lower-affine" ]
    @ Workloads.Subview_kernel.naive_pipeline
    @ [ "tosa-to-linalg"; "tosa-to-linalg-named"; "tosa-to-arith" ])

(* ------------------------------------------------------------------ *)
(* The conversion driver                                               *)
(* ------------------------------------------------------------------ *)

(* [funcs] functions, each holding test.a/test.b ops alternating, indexed
   by an "i" attribute; the second test.b carries "kill_next", so its
   rewrite erases the op after it *)
let alternating_module ~funcs =
  let md = Builtin.create_module () in
  for fi = 0 to funcs - 1 do
    let f, entry =
      Func.create ~name:(Fmt.str "f%d" fi) ~arg_types:[] ~result_types:[] ()
    in
    Ircore.insert_at_end (Builtin.body_block md) f;
    let rw = Dutil.rw_at_end entry in
    List.iteri
      (fun i name ->
        let attrs =
          ("i", Attr.Int ((10 * fi) + i, Typ.i64))
          :: (if i = 3 then [ ("kill_next", Attr.Unit) ] else [])
        in
        Rewriter.build0 rw ~operands:[||] ~attrs name)
      [ "test.a"; "test.b"; "test.a"; "test.b"; "test.a" ];
    Func.return rw ()
  done;
  md

let index op =
  match Ircore.attr op "i" with Some (Attr.Int (i, _)) -> i | _ -> -1

(* a two-name table that reports each rewrite's op index to [log] *)
let logging_table log : Passes.Pass.table =
  let rewrite to_ rw op =
    log (index op);
    (match (Ircore.attr op "kill_next", op.Ircore.op_next) with
    | Some _, Some next -> Rewriter.erase_op rw next
    | _ -> ());
    let result_types = Array.map Ircore.value_typ op.Ircore.results in
    ignore
      (Rewriter.replace_op_with rw op ~operands:[||] ~result_types ~attrs:[] to_)
  in
  [ ("test.a", rewrite "test.a_done"); ("test.b", rewrite "test.b_done") ]

let convert_logged md =
  let log = ref [] in
  (match
     Passes.Pass.convert ~pass:"test"
       (logging_table (fun i -> log := i :: !log))
       md
   with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  List.rev !log

let test_driver_order_and_skip () =
  let md = alternating_module ~funcs:1 in
  Stats.reset ();
  (* pre-order, each live op once; index 4 was erased by index 3 *)
  check (Alcotest.list ci) "rewritten in pre-order" [ 0; 1; 2; 3 ]
    (convert_logged md);
  check ci "nothing left" 0 (count "test.a" md + count "test.b" md);
  check ci "the erased test.a was not rewritten" 2 (count "test.a_done" md);
  match Stats.find_counter ~component:"conversions" "ops_converted" with
  | Some c -> check ci "ops_converted" 4 (Stats.value c)
  | None -> Alcotest.fail "conversions/ops_converted not registered"

let test_driver_debug_counter () =
  let md = alternating_module ~funcs:1 in
  let actions =
    Action.create
      ~counters:[ { Action.cs_tag = "conversion"; cs_skip = 1; cs_count = 1 } ]
      ()
  in
  let log = Action.with_context actions (fun () -> convert_logged md) in
  check (Alcotest.list ci) "only the second rewrite" [ 1 ] log;
  check ci "the other ops stay" 4 (count "test.a" md + count "test.b" md)

let test_driver_journal () =
  let journal jobs =
    let md = alternating_module ~funcs:3 in
    let pass =
      Passes.Pass.conversion ~name:"test-convert" ~function_parallel:true
        (logging_table ignore)
    in
    let actions = Action.create () in
    let saved = Pool.jobs () in
    Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Pool.set_jobs saved)
      (fun () ->
        Action.with_context actions (fun () ->
            match Passes.Pass.run_pipeline ctx [ pass ] md with
            | Ok () -> ()
            | Error d -> Alcotest.fail (Diag.to_string d)));
    List.filter_map
      (fun e ->
        if e.Action.e_tag = "conversion" then Some e.Action.e_desc else None)
      (Action.entries actions)
  in
  let expected =
    List.concat (List.init 3 (fun _ -> [ "test.a"; "test.b"; "test.a"; "test.b" ]))
  in
  check (Alcotest.list Alcotest.string) "one entry per rewrite, jobs 1"
    expected (journal 1);
  check (Alcotest.list Alcotest.string) "one entry per rewrite, jobs 4"
    expected (journal 4)

let () =
  Alcotest.run "passes"
    [
      ( "scf-to-cf",
        [
          Alcotest.test_case "structure" `Quick test_scf_to_cf_structure;
          Alcotest.test_case "iter args preserved" `Quick
            test_scf_to_cf_iter_args;
          Alcotest.test_case "scf.if" `Quick test_scf_if_to_cf;
          Alcotest.test_case "scf.while" `Quick test_scf_while_to_cf;
          Alcotest.test_case "forall expansion" `Quick test_forall_expansion;
        ] );
      ( "cs2-pipelines",
        [
          Alcotest.test_case "naive + static offset ok" `Quick
            test_naive_pipeline_static_offset;
          Alcotest.test_case "naive + dynamic offset fails" `Quick
            test_naive_pipeline_dynamic_offset_fails;
          Alcotest.test_case "robust + dynamic offset ok" `Quick
            test_robust_pipeline_dynamic_offset;
        ] );
      ( "lower-affine",
        [
          Alcotest.test_case "apply semantics" `Quick
            test_lower_affine_semantics;
          Alcotest.test_case "min" `Quick test_lower_affine_min;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "matmul to loops" `Quick
            test_linalg_matmul_to_loops;
          Alcotest.test_case "fill to loops" `Quick test_linalg_fill_to_loops;
        ] );
      ( "tosa",
        [
          Alcotest.test_case "pipeline eliminates tosa" `Quick
            test_tosa_pipeline_eliminates_tosa;
        ] );
      ("licm", [ Alcotest.test_case "hoists from loops" `Quick test_licm_pass ]);
      ( "inline",
        [
          Alcotest.test_case "call chain" `Quick test_inline_call_chain;
          Alcotest.test_case "keeps external calls" `Quick
            test_inline_keeps_external_calls;
          Alcotest.test_case "skips recursive" `Quick test_inline_skips_recursive;
        ] );
      ( "scf-canonicalize",
        [
          Alcotest.test_case "zero-trip loop" `Quick
            test_canonicalize_zero_trip_loop;
          Alcotest.test_case "single-trip loop" `Quick
            test_canonicalize_single_trip_loop;
          Alcotest.test_case "constant if" `Quick test_canonicalize_constant_if;
        ] );
      ( "cse",
        [
          Alcotest.test_case "result types kept apart" `Quick
            test_cse_keeps_result_types_apart;
          Alcotest.test_case "signed zeros kept apart" `Quick
            test_cse_keeps_signed_zeros_apart;
        ] );
      ( "manager",
        [
          Alcotest.test_case "pipeline parse" `Quick test_pipeline_parse;
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "conversion driver order and skip" `Quick
            test_driver_order_and_skip;
          Alcotest.test_case "conversion driver debug counter" `Quick
            test_driver_debug_counter;
          Alcotest.test_case "conversion driver journal" `Quick
            test_driver_journal;
        ] );
    ]
