(* IRDL-lite: declarative op definitions, generated verifiers, constrained
   pseudo-ops, and the dynamic pre/post-condition checking built on them. *)

open Ir
open Dialects
module T = Transform

let ctx = T.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool

let trivial_subview rw m =
  Rewriter.build1 rw ~operands:[| m |]
    ~result_types:[| Ircore.value_typ m |]
    ~attrs:
      [
        ("static_offsets", Attr.Int_array []);
        ("static_sizes", Attr.Int_array []);
        ("static_strides", Attr.Int_array []);
        ("operand_segment_sizes", Attr.Int_array [ 1; 0; 0; 0 ]);
      ]
    "memref.subview"

let memref_arg () =
  let b =
    Ircore.create_block ~args:[ Typ.memref (Typ.static_dims [ 8; 8 ]) Typ.f32 ] ()
  in
  (b, Ircore.block_arg b 0)

(* ------------------------------------------------------------------ *)
(* generated verifiers                                                 *)
(* ------------------------------------------------------------------ *)

let test_base_subview_verifies () =
  let b, m = memref_arg () in
  let rw = Dutil.rw_at_end b in
  let v =
    Memref.subview rw m
      ~offsets:[ Memref.Static 2; Memref.Static 2 ]
      ~sizes:[ Memref.Static 4; Memref.Static 4 ]
      ~strides:[ Memref.Static 1; Memref.Static 1 ]
  in
  let op = Option.get (Ircore.defining_op v) in
  (match Irdl.verify Irdl.subview_def op with
  | Ok () -> ()
  | Error e -> Alcotest.failf "base def rejected valid subview: %s" e);
  (* but the constrained copy must reject it: static offsets non-empty *)
  match Irdl.verify Irdl.subview_constr_def op with
  | Ok () -> Alcotest.fail "constr accepted a non-trivial subview"
  | Error _ -> ()

let test_constr_accepts_trivial () =
  let b, m = memref_arg () in
  let rw = Dutil.rw_at_end b in
  let v = trivial_subview rw m in
  let op = Option.get (Ircore.defining_op v) in
  match Irdl.verify Irdl.subview_constr_def op with
  | Ok () -> ()
  | Error e -> Alcotest.failf "constr rejected a trivial subview: %s" e

let test_constr_rejects_dynamic_offsets () =
  let b, m = memref_arg () in
  let rw = Dutil.rw_at_end b in
  let off = Dutil.const_int rw 3 in
  let v =
    Memref.subview rw m
      ~offsets:[ Memref.Dynamic off; Memref.Dynamic off ]
      ~sizes:[ Memref.Static 4; Memref.Static 4 ]
      ~strides:[ Memref.Static 1; Memref.Static 1 ]
  in
  let op = Option.get (Ircore.defining_op v) in
  match Irdl.verify Irdl.subview_constr_def op with
  | Ok () -> Alcotest.fail "constr accepted dynamic offsets"
  | Error e -> check cb "cardinality mentioned" true (String.length e > 0)

let test_type_constraints () =
  check cb "memref satisfies" true
    (Irdl.satisfies_type
       (Typ.memref (Typ.static_dims [ 4 ]) Typ.f32)
       Irdl.Memref_type);
  check cb "index is not memref" false
    (Irdl.satisfies_type Typ.index Irdl.Memref_type);
  check cb "anyOf" true
    (Irdl.satisfies_type Typ.f32 (Irdl.Any_of [ Irdl.Integer_type; Irdl.Float_type ]))

let test_attr_constraints () =
  check cb "int array" true
    (Irdl.satisfies_attr (Attr.Int_array [ 1 ]) Irdl.Int_array_attr);
  check cb "string is not int array" false
    (Irdl.satisfies_attr (Attr.str "x") Irdl.Int_array_attr)

let test_missing_required_attr () =
  let op =
    Testutil.mkop
      ~attrs:[ ("static_offsets", Attr.Int_array []) ]
      "memref.subview"
  in
  match Irdl.verify Irdl.subview_def op with
  | Ok () -> Alcotest.fail "missing attrs accepted"
  | Error e -> check cb "mentions missing" true (String.length e > 0)

(* ------------------------------------------------------------------ *)
(* opset integration                                                   *)
(* ------------------------------------------------------------------ *)

let test_opset_covers_op_with_constraints () =
  let b, m = memref_arg () in
  let rw = Dutil.rw_at_end b in
  let triv = Option.get (Ircore.defining_op (trivial_subview rw m)) in
  let nontriv =
    Option.get
      (Ircore.defining_op
         (Memref.subview rw m
            ~offsets:[ Memref.Static 1; Memref.Static 1 ]
            ~sizes:[ Memref.Static 2; Memref.Static 2 ]
            ~strides:[ Memref.Static 1; Memref.Static 1 ]))
  in
  let constr_set = [ Opset.constrained "memref.subview" "constr" ] in
  check cb "trivial covered" true (Irdl.opset_covers_op constr_set triv);
  check cb "non-trivial not covered" false
    (Irdl.opset_covers_op constr_set nontriv);
  check cb "dialect wildcard covers both" true
    (Irdl.opset_covers_op [ Opset.dialect "memref" ] nontriv)

let test_interface_element_coverage () =
  (* conditions may reference interfaces instead of op names (Section 3.3) *)
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let loop = List.hd (Symbol.collect_ops ~op_name:"scf.for" md) in
  let store = List.hd (Symbol.collect_ops ~op_name:"memref.store" md) in
  let set = [ Opset.interface "loop_like" ] in
  check cb "scf.for implements loop_like" true
    (Irdl.opset_covers_op ~ctx set loop);
  check cb "store does not" false (Irdl.opset_covers_op ~ctx set store);
  check cb "without a context the check is conservative" false
    (Irdl.opset_covers_op set loop);
  (* parse/print round-trip of the element *)
  check cb "parse" true
    (Opset.parse "{interface<loop_like>}" = [ Opset.interface "loop_like" ]);
  check cb "print" true
    (Opset.to_string [ Opset.interface "loop_like" ] = "{interface<loop_like>}")

(* ------------------------------------------------------------------ *)
(* Figure 3 printing                                                   *)
(* ------------------------------------------------------------------ *)

let test_fig3_printing () =
  let s = Fmt.str "%a" Irdl.pp_op_def Irdl.subview_constr_def in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check cb "shows constrained cardinality" true (contains "Variadic<!index, 0>");
  check cb "shows native check" true (contains "checkTrivialSubview()");
  check cb "names the op" true (contains "subview.constr")

(* ------------------------------------------------------------------ *)
(* dynamic post-condition checking through the interpreter             *)
(* ------------------------------------------------------------------ *)

(* a deliberately buggy pass: claims to consume all scf but silently leaves
   loops behind while introducing an undeclared op *)
let register_buggy_pass () =
  if Passes.Pass.lookup "test-buggy-lowering" = None then
    Passes.Pass.register
      (Passes.Pass.make ~name:"test-buggy-lowering"
         ~summary:"test-only: inaccurate conditions"
         ~pre:[ Opset.dialect "scf" ]
         ~post:[ Opset.exact "cf.br" ]
         (fun _ctx top ->
           (* does NOT remove scf; adds an undeclared arith.constant *)
           let rw = Rewriter.create () in
           (match Symbol.collect_ops ~op_name:"func.func" top with
           | f :: _ -> (
             match Dialects.Func.entry_block f with
             | Some entry -> (
               match Ircore.block_first_op entry with
               | Some first ->
                 Rewriter.set_ip rw (Builder.Before first);
                 ignore
                   (Rewriter.build1 rw ~operands:[||]
                      ~result_types:[| Typ.llvm_ptr |] "llvm.mlir.undef")
               | None -> ())
             | None -> ())
           | [] -> ());
           Ok ()))

let test_dynamic_check_catches_buggy_pass () =
  register_buggy_pass ();
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let script =
    T.Build.script (fun rw root ->
        ignore
          (T.Build.apply_registered_pass rw ~pass_name:"test-buggy-lowering"
             root))
  in
  let config = { T.State.default_config with T.State.check_conditions = true } in
  (match T.Schedule.run ~config ctx ~script ~payload:md with
  | Ok _ -> Alcotest.fail "buggy pass not caught"
  | Error (T.Terror.Definite m) ->
    check cb "post-condition violation reported" true (String.length (Diag.message m) > 0)
  | Error (T.Terror.Silenceable m) ->
    Alcotest.failf "expected definite, got silenceable: %s" (Diag.to_string m));
  (* without dynamic checks the same script is accepted *)
  let md2 = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let script2 =
    T.Build.script (fun rw root ->
        ignore
          (T.Build.apply_registered_pass rw ~pass_name:"test-buggy-lowering"
             root))
  in
  match T.Schedule.run ctx ~script:script2 ~payload:md2 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unchecked run failed: %s" (T.Terror.to_string e)

let test_dynamic_check_accepts_accurate_pass () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let script =
    T.Build.script (fun rw root ->
        ignore
          (T.Build.apply_registered_pass rw ~pass_name:"convert-scf-to-cf" root))
  in
  let config = { T.State.default_config with T.State.check_conditions = true } in
  match T.Schedule.run ~config ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "accurate pass rejected: %s" (T.Terror.to_string e)

let test_dynamic_check_expand_strided_metadata () =
  (* the CS2 kernel: expand's declared post-conditions are accurate for it *)
  let md = Workloads.Subview_kernel.build Workloads.Subview_kernel.Dynamic_offset in
  let script =
    T.Build.script (fun rw root ->
        ignore
          (T.Build.apply_registered_pass rw
             ~pass_name:"expand-strided-metadata" root))
  in
  let config = { T.State.default_config with T.State.check_conditions = true } in
  match T.Schedule.run ~config ctx ~script ~payload:md with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "expand rejected: %s" (T.Terror.to_string e)

let () =
  Alcotest.run "irdl"
    [
      ( "verifiers",
        [
          Alcotest.test_case "base vs constrained subview" `Quick
            test_base_subview_verifies;
          Alcotest.test_case "constr accepts trivial" `Quick
            test_constr_accepts_trivial;
          Alcotest.test_case "constr rejects dynamic offsets" `Quick
            test_constr_rejects_dynamic_offsets;
          Alcotest.test_case "type constraints" `Quick test_type_constraints;
          Alcotest.test_case "attr constraints" `Quick test_attr_constraints;
          Alcotest.test_case "missing required attr" `Quick
            test_missing_required_attr;
        ] );
      ( "opset",
        [
          Alcotest.test_case "constrained coverage" `Quick
            test_opset_covers_op_with_constraints;
          Alcotest.test_case "interface elements" `Quick
            test_interface_element_coverage;
        ] );
      ( "printing",
        [ Alcotest.test_case "figure-3 format" `Quick test_fig3_printing ] );
      ( "dynamic-checks",
        [
          Alcotest.test_case "catches buggy pass" `Quick
            test_dynamic_check_catches_buggy_pass;
          Alcotest.test_case "accepts accurate pass" `Quick
            test_dynamic_check_accepts_accurate_pass;
          Alcotest.test_case "expand-strided-metadata accurate" `Quick
            test_dynamic_check_expand_strided_metadata;
        ] );
    ]
