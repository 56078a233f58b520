(* Dialect definitions: builders, folders, opset algebra, shlo patterns. *)

open Ir
open Dialects

let ctx = Transform.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ------------------------------------------------------------------ *)
(* registration coverage                                               *)
(* ------------------------------------------------------------------ *)

let test_all_dialects_registered () =
  let dialects = Context.registered_dialects ctx in
  List.iter
    (fun d ->
      check cb (Fmt.str "dialect %s registered" d) true (List.mem d dialects))
    [
      "builtin"; "func"; "arith"; "index"; "scf"; "cf"; "memref"; "affine";
      "llvm"; "vector"; "tosa"; "linalg"; "shlo"; "tensor"; "math"; "transform";
    ]

let test_traits () =
  check cb "module is symbol table" true
    (Context.has_trait ctx "builtin.module" Context.Symbol_table);
  check cb "func is isolated" true
    (Context.has_trait ctx "func.func" Context.Isolated_from_above);
  check cb "yield is terminator" true
    (Context.has_trait ctx "scf.yield" Context.Terminator);
  check cb "addi commutative" true
    (Context.has_trait ctx "arith.addi" Context.Commutative);
  check cb "constant is constant-like" true
    (Context.has_trait ctx "arith.constant" Context.Constant_like)

let test_effects () =
  let rw = Dutil.rw_detached () in
  let m =
    Memref.alloc rw (Typ.memref (Typ.static_dims [ 4 ]) Typ.f32)
  in
  let alloc_op = Option.get (Ircore.defining_op m) in
  check cb "alloc has Alloc effect" true
    (List.mem Context.Alloc (Context.effects ctx alloc_op));
  let i = Dutil.const_int rw 0 in
  let v = Memref.load rw m [ i ] in
  let load_op = Option.get (Ircore.defining_op v) in
  check cb "load reads" true (List.mem Context.Read (Context.effects ctx load_op));
  check cb "load is not pure" false (Context.is_pure ctx load_op);
  check cb "constant is pure" true
    (Context.is_pure ctx (Option.get (Ircore.defining_op i)))

(* ------------------------------------------------------------------ *)
(* folders                                                             *)
(* ------------------------------------------------------------------ *)

let fold_of name operands =
  match Context.interface ctx name Context.folder_key with
  | Some { Context.fold } ->
    let op = Testutil.mkop ~result_types:[| Typ.i64 |] name in
    fold op operands
  | None -> None

let test_arith_folders () =
  check cb "addi" true
    (fold_of "arith.addi" [ Some (Attr.int 2); Some (Attr.int 3) ]
    = Some [ Attr.int 5 ]);
  check cb "muli" true
    (fold_of "arith.muli" [ Some (Attr.int 6); Some (Attr.int 7) ]
    = Some [ Attr.int 42 ]);
  check cb "divsi by zero doesn't fold" true
    (fold_of "arith.divsi" [ Some (Attr.int 6); Some (Attr.int 0) ] = None);
  check cb "partial constants don't fold" true
    (fold_of "arith.addi" [ Some (Attr.int 2); None ] = None)

let test_unsigned_compare () =
  check cb "ult with negative rhs (huge)" true (Arith.eval_ipred Arith.Ult 5 (-1));
  check cb "ugt with negative lhs (huge)" true (Arith.eval_ipred Arith.Ugt (-1) 5);
  check cb "slt normal" true (Arith.eval_ipred Arith.Slt (-1) 5)

(* ------------------------------------------------------------------ *)
(* opset algebra                                                       *)
(* ------------------------------------------------------------------ *)

let test_opset_covers () =
  let s = [ Opset.dialect "scf"; Opset.exact "cf.br" ] in
  check cb "dialect covers op" true (Opset.covers s (Opset.exact "scf.for"));
  check cb "exact covers itself" true (Opset.covers s (Opset.exact "cf.br"));
  check cb "exact doesn't cover sibling" false
    (Opset.covers s (Opset.exact "cf.cond_br"));
  check cb "dialect covers constrained" true
    (Opset.covers [ Opset.dialect "memref" ]
       (Opset.constrained "memref.subview" "constr"));
  check cb "constrained doesn't cover plain" false
    (Opset.covers
       [ Opset.constrained "memref.subview" "constr" ]
       (Opset.exact "memref.subview"));
  check cb "exact covers constrained" true
    (Opset.covers [ Opset.exact "memref.subview" ]
       (Opset.constrained "memref.subview" "constr"))

let test_opset_remove () =
  let s = [ Opset.exact "scf.for"; Opset.exact "cf.br"; Opset.dialect "arith" ] in
  let s' = Opset.remove ~removed:[ Opset.dialect "scf" ] s in
  check cb "scf removed" false (Opset.covers s' (Opset.exact "scf.for"));
  check cb "others kept" true (Opset.covers s' (Opset.exact "cf.br"))

let test_opset_parse () =
  let s = Opset.parse "{scf.*, cf.branch, memref.subview.constr}" in
  check ci "three elements" 3 (List.length s);
  check cb "wildcard parsed" true (List.mem (Opset.dialect "scf") s);
  check cb "constrained parsed" true
    (List.mem (Opset.constrained "memref.subview" "constr") s)

let test_opset_of_payload () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:4 () in
  let s = Opset.of_payload md in
  check cb "contains scf.for" true (Opset.covers s (Opset.exact "scf.for"));
  check cb "contains memref.load" true (Opset.covers s (Opset.exact "memref.load"));
  check cb "no llvm" false (Opset.overlaps s [ Opset.dialect "llvm" ])

(* ------------------------------------------------------------------ *)
(* shlo patterns                                                       *)
(* ------------------------------------------------------------------ *)

let shlo_func body =
  let md = Builtin.create_module () in
  let t = Typ.tensor (Typ.static_dims [ 4; 4 ]) Typ.f32 in
  let f, entry = Func.create ~name:"f" ~arg_types:[ t; t ] ~result_types:[ t ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let r = body rw t (Ircore.block_arg entry 0) (Ircore.block_arg entry 1) in
  Func.return rw ~operands:[ r ] ();
  md

let apply_patterns names md =
  let patterns = List.map Pattern.lookup_exn names in
  ignore (Testutil.greedy ctx ~patterns md)

let count name md = List.length (Symbol.collect_ops ~op_name:name md)

let test_add_zero_pattern () =
  let md =
    shlo_func (fun rw t x _ ->
        let z = Shlo.constant rw ~typ:t (Attr.Dense_float ([ 0.0 ], t)) in
        Shlo.add rw x z)
  in
  apply_patterns [ "shlo.add_zero" ] md;
  check ci "add gone" 0 (count "shlo.add" md)

let test_transpose_of_transpose () =
  let md =
    shlo_func (fun rw t x _ ->
        let t1 = Shlo.transpose rw x ~permutation:[ 1; 0 ] ~result_typ:t in
        Shlo.transpose rw t1 ~permutation:[ 1; 0 ] ~result_typ:t)
  in
  apply_patterns [ "shlo.transpose_of_transpose" ] md;
  check ci "both transposes gone" 0 (count "shlo.transpose" md)

let test_matmul_of_transpose () =
  let md =
    shlo_func (fun rw t x y ->
        let yt = Shlo.transpose rw y ~permutation:[ 1; 0 ] ~result_typ:t in
        Shlo.dot_general rw x yt ~result_typ:t)
  in
  apply_patterns [ "shlo.matmul_of_transpose" ] md;
  check ci "transpose folded" 0 (count "shlo.transpose" md);
  let dot = List.hd (Symbol.collect_ops ~op_name:"shlo.dot_general" md) in
  check cb "marked transposed" true (Ircore.has_attr dot "rhs_transposed")

let test_culprit_pattern () =
  let md =
    shlo_func (fun rw t x _ ->
        let r =
          Shlo.reshape rw x ~result_typ:(Typ.tensor (Typ.static_dims [ 16 ]) Typ.f32)
        in
        let z = Dutil.const_float rw 0.0 in
        ignore t;
        Shlo.reduce rw r ~init:z ~dimensions:[ 0 ] ~kind:"add"
          ~result_typ:(Typ.tensor (Typ.static_dims [ 1 ]) Typ.f32))
  in
  apply_patterns [ Shlo_patterns.culprit ] md;
  check ci "reshape folded away" 0 (count "shlo.reshape" md);
  let red = List.hd (Symbol.collect_ops ~op_name:"shlo.reduce" md) in
  check cb "dims updated to input rank" true
    (Ircore.attr red "dimensions" = Some (Attr.Int_array [ 0; 1 ]))

let test_culprit_partial_reduce_untouched () =
  (* a reduction over a strict subset of dims must NOT be rewritten *)
  let md =
    shlo_func (fun rw t x _ ->
        let tr = Shlo.transpose rw x ~permutation:[ 1; 0 ] ~result_typ:t in
        let z = Dutil.const_float rw 0.0 in
        Shlo.reduce rw tr ~init:z ~dimensions:[ 0 ] ~kind:"add" ~result_typ:t)
  in
  apply_patterns [ Shlo_patterns.culprit ] md;
  check ci "transpose kept" 1 (count "shlo.transpose" md)

let test_pattern_set_complete () =
  check ci "20 patterns" 20 (List.length (Shlo_patterns.names ()));
  List.iter
    (fun n -> check cb n true (Option.is_some (Pattern.lookup n)))
    (Shlo_patterns.names ())

(* ------------------------------------------------------------------ *)
(* scf helpers                                                         *)
(* ------------------------------------------------------------------ *)

let test_scf_for_iter_args () =
  let b = Ircore.create_block () in
  let rw = Dutil.rw_at_end b in
  let lb = Dutil.const_int rw 0 in
  let ub = Dutil.const_int rw 10 in
  let step = Dutil.const_int rw 1 in
  let init = Dutil.const_float rw 0.0 in
  let loop =
    Scf.build_for rw ~lb ~ub ~step ~iter_args:[ init ] (fun brw _iv iters ->
        [ Arith.addf brw (List.hd iters) (List.hd iters) ])
  in
  check ci "one result" 1 (Ircore.num_results loop);
  check ci "iter args" 1 (List.length (Scf.iter_args loop));
  check cb "trip count" true (Scf.static_trip_count loop = Some 10)

let test_scf_static_bounds_negative_step () =
  let b = Ircore.create_block () in
  let rw = Dutil.rw_at_end b in
  let lb = Dutil.const_int rw 0 in
  let ub = Dutil.const_int rw 10 in
  let step = Dutil.const_int rw (-1) in
  let loop = Scf.build_for rw ~lb ~ub ~step (fun _ _ _ -> []) in
  check cb "negative step rejected" true (Scf.static_bounds loop = None)

let () =
  Alcotest.run "dialects"
    [
      ( "registry",
        [
          Alcotest.test_case "all dialects present" `Quick
            test_all_dialects_registered;
          Alcotest.test_case "traits" `Quick test_traits;
          Alcotest.test_case "effects" `Quick test_effects;
        ] );
      ( "folders",
        [
          Alcotest.test_case "arith folders" `Quick test_arith_folders;
          Alcotest.test_case "unsigned compares" `Quick test_unsigned_compare;
        ] );
      ( "opset",
        [
          Alcotest.test_case "covers" `Quick test_opset_covers;
          Alcotest.test_case "remove" `Quick test_opset_remove;
          Alcotest.test_case "parse" `Quick test_opset_parse;
          Alcotest.test_case "of_payload" `Quick test_opset_of_payload;
        ] );
      ( "shlo-patterns",
        [
          Alcotest.test_case "add_zero" `Quick test_add_zero_pattern;
          Alcotest.test_case "transpose_of_transpose" `Quick
            test_transpose_of_transpose;
          Alcotest.test_case "matmul_of_transpose" `Quick
            test_matmul_of_transpose;
          Alcotest.test_case "culprit folds full reduce" `Quick
            test_culprit_pattern;
          Alcotest.test_case "culprit skips partial reduce" `Quick
            test_culprit_partial_reduce_untouched;
          Alcotest.test_case "pattern set complete" `Quick
            test_pattern_set_complete;
        ] );
      ( "scf",
        [
          Alcotest.test_case "iter args" `Quick test_scf_for_iter_args;
          Alcotest.test_case "static bounds reject bad step" `Quick
            test_scf_static_bounds_negative_step;
        ] );
    ]
