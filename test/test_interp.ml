(* Execution substrate: cache simulator, machine model, runtime values,
   interpreter and the microkernel model. *)

open Ir
open Dialects
module R = Interp.Rvalue

let ctx = Transform.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ------------------------------------------------------------------ *)
(* cache simulator                                                     *)
(* ------------------------------------------------------------------ *)

let small_cache () =
  Interp.Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2
    ~hit_latency:1

let test_cache_hit_after_miss () =
  let c = small_cache () in
  check cb "first access misses" false (Interp.Cache.access c 0);
  check cb "second hits" true (Interp.Cache.access c 0);
  check cb "same line hits" true (Interp.Cache.access c 63);
  check cb "next line misses" false (Interp.Cache.access c 64)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* 2 ways, 8 sets: three lines mapping to set 0: 0, 8*64=512, 1024 *)
  ignore (Interp.Cache.access c 0);
  ignore (Interp.Cache.access c 512);
  ignore (Interp.Cache.access c 1024);
  (* line 0 was LRU and must be evicted *)
  check cb "line 0 evicted" false (Interp.Cache.access c 0);
  (* 512 was evicted now? no: after access(1024), ways held {512,1024};
     accessing 0 evicts 512 *)
  check cb "512 evicted by 0" false (Interp.Cache.access c 512)

let test_cache_working_set_fits () =
  let c = small_cache () in
  (* 1024 bytes = 16 lines exactly fill the cache; second sweep all hits *)
  for i = 0 to 15 do
    ignore (Interp.Cache.access c (i * 64))
  done;
  let hits = ref 0 in
  for i = 0 to 15 do
    if Interp.Cache.access c (i * 64) then incr hits
  done;
  check ci "second sweep all hits" 16 !hits;
  check cb "hit rate 50%" true (abs_float (Interp.Cache.hit_rate c -. 0.5) < 1e-9)

let test_cache_thrash () =
  let c = small_cache () in
  (* 32 distinct lines > capacity: streaming twice gives zero hits *)
  for _ = 1 to 2 do
    for i = 0 to 31 do
      ignore (Interp.Cache.access c (i * 64))
    done
  done;
  check cb "thrashing keeps rate 0" true (Interp.Cache.hit_rate c = 0.0)

(* ------------------------------------------------------------------ *)
(* machine model                                                       *)
(* ------------------------------------------------------------------ *)

let test_machine_costs_accumulate () =
  let m = Interp.Machine.create () in
  Interp.Machine.float_op m;
  Interp.Machine.int_op m;
  Interp.Machine.loop_iter m;
  check cb "cycles positive" true (m.Interp.Machine.cycles > 0.0);
  check ci "flops counted" 1 m.Interp.Machine.flops;
  let before = m.Interp.Machine.cycles in
  m.Interp.Machine.cost_enabled <- false;
  Interp.Machine.float_op m;
  check cb "disabled costs nothing" true (m.Interp.Machine.cycles = before)

let test_machine_memory_hierarchy () =
  let m = Interp.Machine.create () in
  Interp.Machine.memory_access m ~is_store:false 4096 4;
  let cold = m.Interp.Machine.cycles in
  Interp.Machine.memory_access m ~is_store:false 4096 4;
  let warm = m.Interp.Machine.cycles -. cold in
  check cb "warm access cheaper" true (warm < cold);
  check cb "warm is L1 latency" true
    (warm = float_of_int m.Interp.Machine.config.Interp.Machine.l1_latency)

let test_machine_alloc_alignment () =
  let m = Interp.Machine.create () in
  let a = Interp.Machine.alloc_address m 100 in
  let b = Interp.Machine.alloc_address m 100 in
  check ci "aligned" 0 (a mod 64);
  check cb "disjoint" true (b >= a + 100)

(* ------------------------------------------------------------------ *)
(* runtime views                                                       *)
(* ------------------------------------------------------------------ *)

let test_view_subview () =
  let data = Array.init 16 float_of_int in
  let buf = { R.data; base = 0; elt_bytes = 4 } in
  let v = { R.buf; offset = 0; sizes = [| 4; 4 |]; strides = [| 4; 1 |] } in
  check (Alcotest.float 0.0) "load [1;2]" 6.0 (R.load v [| 1; 2 |]);
  let sub =
    R.subview v ~offsets:[| 1; 1 |] ~sizes:[| 2; 2 |] ~strides:[| 1; 1 |]
  in
  check (Alcotest.float 0.0) "sub [0;0] = v[1;1]" 5.0 (R.load sub [| 0; 0 |]);
  check (Alcotest.float 0.0) "sub [1;1] = v[2;2]" 10.0 (R.load sub [| 1; 1 |]);
  R.store sub [| 0; 1 |] 99.0;
  check (Alcotest.float 0.0) "store through view" 99.0 (R.load v [| 1; 2 |])

let test_row_major_strides () =
  check cb "3d strides" true (R.row_major_strides [| 2; 3; 4 |] = [| 12; 4; 1 |])

(* ------------------------------------------------------------------ *)
(* interpreter pieces                                                  *)
(* ------------------------------------------------------------------ *)

let simple_fn body ~arg_types ~result_types =
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"k" ~arg_types ~result_types () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let rs = body rw (Ircore.block_args entry) in
  Func.return rw ~operands:rs ();
  md

let run md args =
  match Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k" args with
  | Ok (rs, _) -> rs
  | Error e -> Alcotest.failf "run: %s" e

let test_arith_exec () =
  let md =
    simple_fn ~arg_types:[ Typ.i64; Typ.i64 ] ~result_types:[ Typ.i64; Typ.i1 ]
      (fun rw args ->
        let a = List.nth args 0 and b = List.nth args 1 in
        let s = Arith.addi rw a b in
        let c = Arith.cmpi rw Arith.Slt a b in
        [ s; c ])
  in
  match run md [ R.Int 3; R.Int 4 ] with
  | [ R.Int 7; R.Bool true ] -> ()
  | rs -> Alcotest.failf "got %a" Fmt.(list R.pp) rs

let test_select_exec () =
  let md =
    simple_fn ~arg_types:[ Typ.i1; Typ.f32; Typ.f32 ] ~result_types:[ Typ.f32 ]
      (fun rw args ->
        [ Arith.select rw (List.nth args 0) (List.nth args 1) (List.nth args 2) ])
  in
  (match run md [ R.Bool true; R.Float 1.0; R.Float 2.0 ] with
  | [ R.Float 1.0 ] -> ()
  | _ -> Alcotest.fail "select true");
  match run md [ R.Bool false; R.Float 1.0; R.Float 2.0 ] with
  | [ R.Float 2.0 ] -> ()
  | _ -> Alcotest.fail "select false"

let test_scf_while_exec () =
  (* while (x < 100) x = x * 2 — via scf.while *)
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
  let doubled = Arith.muli arw (Ircore.block_arg after 0) two in
  Scf.yield arw ~operands:[ doubled ] ();
  Func.return rw ~operands:[ Ircore.result w ] ();
  match run md [ R.Int 3 ] with
  | [ R.Int 192 ] -> ()
  | rs -> Alcotest.failf "got %a" Fmt.(list R.pp) rs

let test_function_calls () =
  (* callee: double; caller calls twice *)
  let md = Builtin.create_module () in
  let callee, ce = Func.create ~name:"double" ~arg_types:[ Typ.f32 ] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) callee;
  let crw = Dutil.rw_at_end ce in
  let two = Dutil.const_float crw 2.0 in
  Func.return crw ~operands:[ Arith.mulf crw (Ircore.block_arg ce 0) two ] ();
  let f, entry = Func.create ~name:"k" ~arg_types:[ Typ.f32 ] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let c1 =
    Func.call rw ~callee:"double" ~operands:[ Ircore.block_arg entry 0 ]
      ~result_types:[ Typ.f32 ]
  in
  let c2 =
    Func.call rw ~callee:"double"
      ~operands:[ Ircore.result c1 ]
      ~result_types:[ Typ.f32 ]
  in
  Func.return rw ~operands:[ Ircore.result c2 ] ();
  match run md [ R.Float 3.0 ] with
  | [ R.Float 12.0 ] -> ()
  | rs -> Alcotest.failf "got %a" Fmt.(list R.pp) rs

let test_subview_and_metadata_exec () =
  (* func: take a 4x4 view at (1,1) of an 8x8 memref, fill it with 9.0,
     and return the extracted offset *)
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ 8; 8 ]) Typ.f32 in
  let f, entry = Func.create ~name:"k" ~arg_types:[ mt ] ~result_types:[ Typ.index ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let m = Ircore.block_arg entry 0 in
  let view =
    Memref.subview rw m
      ~offsets:[ Memref.Static 1; Memref.Static 1 ]
      ~sizes:[ Memref.Static 4; Memref.Static 4 ]
      ~strides:[ Memref.Static 1; Memref.Static 1 ]
  in
  let c9 = Dutil.const_float rw 9.0 in
  let zero = Dutil.const_int rw 0 in
  let four = Dutil.const_int rw 4 in
  let one = Dutil.const_int rw 1 in
  ignore
    (Scf.build_for rw ~lb:zero ~ub:four ~step:one (fun rwi i _ ->
         ignore
           (Scf.build_for rwi ~lb:zero ~ub:four ~step:one (fun rwj j _ ->
                Memref.store rwj c9 view [ i; j ];
                []));
         []));
  let meta =
    Rewriter.build rw ~operands:[| view |]
      ~result_types:
        [| Typ.memref [] Typ.f32; Typ.index; Typ.index; Typ.index; Typ.index;
           Typ.index |]
      Memref.extract_strided_metadata_op
  in
  Func.return rw ~operands:[ Ircore.result ~index:1 meta ] ();
  let machine = Interp.Machine.create () in
  let buf = Workloads.Matmul.make_matrix machine ~rows:8 ~cols:8 ~seed:3 in
  (match
     Interp.Compile.run_function ~machine ~ir_ctx:ctx ~module_:md ~name:"k"
       [ R.Memref buf ]
   with
  | Ok ([ R.Int offset ], _) ->
    check ci "extracted offset = 1*8+1" 9 offset
  | Ok _ -> Alcotest.fail "bad result shape"
  | Error e -> Alcotest.fail e);
  (* exactly the 4x4 interior at (1,1) was written *)
  let d = buf.R.buf.R.data in
  let wrote i j = d.((i * 8) + j) = 9.0 in
  check cb "interior written" true (wrote 1 1 && wrote 4 4 && wrote 1 4);
  check cb "border untouched" true
    ((not (wrote 0 0)) && (not (wrote 0 4)) && (not (wrote 5 5)) && not (wrote 7 7))

let test_memref_copy_exec () =
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ 3; 3 ]) Typ.f32 in
  let f, entry = Func.create ~name:"k" ~arg_types:[ mt; mt ] ~result_types:[] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  Rewriter.build0 rw
    ~operands:[| Ircore.block_arg entry 0; Ircore.block_arg entry 1 |]
    "memref.copy";
  Func.return rw ();
  let machine = Interp.Machine.create () in
  let src = Workloads.Matmul.make_matrix machine ~rows:3 ~cols:3 ~seed:5 in
  let dst = Workloads.Matmul.make_matrix machine ~rows:3 ~cols:3 ~seed:6 in
  (match
     Interp.Compile.run_function ~machine ~ir_ctx:ctx ~module_:md ~name:"k"
       [ R.Memref src; R.Memref dst ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check cb "copied" true (src.R.buf.R.data = dst.R.buf.R.data)

let test_alloc_exec () =
  (* allocate a scratch buffer, fill, read back *)
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ 4 ]) Typ.f32 in
  let f, entry = Func.create ~name:"k" ~arg_types:[] ~result_types:[ Typ.f32 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let buf = Memref.alloc rw mt in
  let c = Dutil.const_float rw 5.0 in
  let i2 = Dutil.const_int rw 2 in
  Memref.store rw c buf [ i2 ];
  let v = Memref.load rw buf [ i2 ] in
  Memref.dealloc rw buf;
  Func.return rw ~operands:[ v ] ();
  match Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k" [] with
  | Ok ([ R.Float 5.0 ], _) -> ()
  | Ok (rs, _) -> Alcotest.failf "got %a" Fmt.(list R.pp) rs
  | Error e -> Alcotest.fail e

let test_unsupported_op_reported () =
  let md =
    simple_fn ~arg_types:[] ~result_types:[]
      (fun rw _ ->
        Rewriter.build0 rw ~operands:[||] "tosa.exp";
        [])
  in
  match Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:"k" [] with
  | Ok _ -> Alcotest.fail "expected unsupported error"
  | Error e -> check cb "mentions op" true (String.length e > 0)

(* ------------------------------------------------------------------ *)
(* cost-model shape                                                    *)
(* ------------------------------------------------------------------ *)

let run_report md args =
  let machine = Interp.Machine.create () in
  match
    Interp.Compile.run_function ~machine ~ir_ctx:ctx ~module_:md ~name:"matmul"
      args
  with
  | Ok (_, r) -> r
  | Error e -> Alcotest.failf "run: %s" e

let matmul_seconds ?order ?transform ~m ~n ~k () =
  let md = Workloads.Matmul.build_module ?order ~m ~n ~k () in
  (match transform with
  | Some script -> (
    match Transform.Schedule.run ctx ~script ~payload:md with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Transform.Terror.to_string e))
  | None -> ());
  match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k md with
  | Ok (_, _, _, _, r) -> r.Interp.Machine.r_seconds
  | Error e -> Alcotest.fail e

let test_vectorization_speeds_up () =
  let base = matmul_seconds ~order:Workloads.Matmul.Ikj ~m:16 ~n:32 ~k:8 () in
  let script =
    Transform.Build.script (fun rw root ->
        let loops = Transform.Build.match_op rw ~name:"scf.for" root in
        let inner = Transform.Build.match_op rw ~select:"third" ~name:"scf.for" root in
        ignore loops;
        ignore (Transform.Build.loop_vectorize rw ~width:8 inner))
  in
  let vec =
    matmul_seconds ~order:Workloads.Matmul.Ikj ~transform:script ~m:16 ~n:32
      ~k:8 ()
  in
  check cb "vectorized faster" true (vec < base /. 2.0)

let test_unroll_reduces_loop_overhead () =
  let base = matmul_seconds ~m:8 ~n:8 ~k:8 () in
  let script =
    Transform.Build.script (fun rw root ->
        let inner = Transform.Build.match_op rw ~select:"third" ~name:"scf.for" root in
        Transform.Build.loop_unroll_full rw inner)
  in
  let unrolled = matmul_seconds ~transform:script ~m:8 ~n:8 ~k:8 () in
  check cb "unrolled faster" true (unrolled < base)

let test_microkernel_cost () =
  ignore run_report;
  let machine = Interp.Machine.create () in
  let a = Workloads.Matmul.make_matrix machine ~rows:16 ~cols:16 ~seed:1 in
  let b = Workloads.Matmul.make_matrix machine ~rows:16 ~cols:16 ~seed:2 in
  let c = Workloads.Matmul.make_matrix machine ~rows:16 ~cols:16 ~seed:3 in
  let c0 = Array.copy c.R.buf.R.data in
  ignore
    (Interp.Extern.libxsmm_gemm machine [ R.Memref a; R.Memref b; R.Memref c ]);
  let expected = Workloads.Matmul.reference ~m:16 ~n:16 ~k:16 a b c0 in
  check cb "gemm semantics" true
    (Workloads.Matmul.max_abs_diff expected c.R.buf.R.data < 1e-4);
  check ci "flops accounted" (2 * 16 * 16 * 16) machine.Interp.Machine.flops

let test_microkernel_rejects_unsupported () =
  let machine = Interp.Machine.create () in
  let a = Workloads.Matmul.make_matrix machine ~rows:100 ~cols:16 ~seed:1 in
  let b = Workloads.Matmul.make_matrix machine ~rows:16 ~cols:16 ~seed:2 in
  let c = Workloads.Matmul.make_matrix machine ~rows:100 ~cols:16 ~seed:3 in
  match
    Interp.Extern.libxsmm_gemm machine [ R.Memref a; R.Memref b; R.Memref c ]
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure for m=100"

(* ------------------------------------------------------------------ *)
(* parallel model (scf.forall)                                         *)
(* ------------------------------------------------------------------ *)

let forall_module n =
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ n ]) Typ.f32 in
  let f, entry = Func.create ~name:"k" ~arg_types:[ mt ] ~result_types:[] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let out = Ircore.block_arg entry 0 in
  let v = Dutil.const_float rw 1.0 in
  let body = Ircore.create_block ~args:[ Typ.index ] () in
  let brw = Dutil.rw_at_end body in
  (* a little compute per iteration *)
  let x = Arith.mulf brw v v in
  let y = Arith.addf brw x v in
  Memref.store brw y out [ Ircore.block_arg body 0 ];
  Rewriter.build0 rw ~operands:[||]
    ~regions:[ Ircore.region_with_block body ]
    ~attrs:[ ("static_upper_bound", Attr.Int_array [ n ]) ]
    "scf.forall";
  Func.return rw ();
  md

let forall_seconds ~threads n =
  let config = { Interp.Machine.default_config with num_threads = threads } in
  let machine = Interp.Machine.create ~config () in
  let out = Workloads.Matmul.make_matrix machine ~rows:1 ~cols:n ~seed:1 in
  let view = { out with R.sizes = [| n |]; strides = [| 1 |] } in
  match
    Interp.Compile.run_function ~machine ~ir_ctx:ctx ~module_:(forall_module n)
      ~name:"k" [ R.Memref view ]
  with
  | Ok (_, r) ->
    (* semantics unchanged by the parallel model *)
    Alcotest.(check bool)
      "all written" true
      (Array.for_all (fun x -> x = 2.0) view.R.buf.R.data);
    r.Interp.Machine.r_seconds
  | Error e -> Alcotest.fail e

let test_forall_parallel_speedup () =
  let n = 4096 in
  let t1 = forall_seconds ~threads:1 n in
  let t8 = forall_seconds ~threads:8 n in
  let speedup = t1 /. t8 in
  check cb
    (Fmt.str "8 threads give near-linear speedup (got %.1fx)" speedup)
    true
    (speedup > 5.0 && speedup <= 8.5)

let test_forall_fork_overhead_dominates_small () =
  (* a tiny parallel region should not benefit *)
  let t1 = forall_seconds ~threads:1 4 in
  let t8 = forall_seconds ~threads:8 4 in
  check cb "fork cost dominates tiny regions" true (t8 >= t1 *. 0.9)

(* ------------------------------------------------------------------ *)
(* property: interpreter agrees with direct evaluation                  *)
(* ------------------------------------------------------------------ *)

type expr = X | Y | Const of float | Add of expr * expr | Mul of expr * expr | Sub of expr * expr

let rec eval_expr x y = function
  | X -> x
  | Y -> y
  | Const c -> c
  | Add (a, b) -> eval_expr x y a +. eval_expr x y b
  | Mul (a, b) -> eval_expr x y a *. eval_expr x y b
  | Sub (a, b) -> eval_expr x y a -. eval_expr x y b

let rec build_expr rw xv yv = function
  | X -> xv
  | Y -> yv
  | Const c -> Dutil.const_float rw c
  | Add (a, b) -> Arith.addf rw (build_expr rw xv yv a) (build_expr rw xv yv b)
  | Mul (a, b) -> Arith.mulf rw (build_expr rw xv yv a) (build_expr rw xv yv b)
  | Sub (a, b) ->
    Rewriter.build1 rw
      ~operands:[| build_expr rw xv yv a; build_expr rw xv yv b |]
      ~result_types:[| Typ.f32 |] "arith.subf"

let gen_expr =
  let open QCheck.Gen in
  sized
    (fix (fun self n ->
         if n <= 0 then
           oneof
             [ return X; return Y; map (fun c -> Const (float_of_int c)) (int_range (-4) 4) ]
         else
           oneof
             [
               map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2));
             ]))

let prop_interp_matches_direct_eval =
  QCheck.Test.make ~count:100
    ~name:"interpreter matches direct evaluation on random expressions"
    (QCheck.make gen_expr)
    (fun e ->
      let md =
        simple_fn ~arg_types:[ Typ.f32; Typ.f32 ] ~result_types:[ Typ.f32 ]
          (fun rw args ->
            [ build_expr rw (List.nth args 0) (List.nth args 1) e ])
      in
      let x = 1.25 and y = -0.5 in
      match run md [ R.Float x; R.Float y ] with
      | [ R.Float v ] ->
        let expected = eval_expr x y e in
        Float.abs (v -. expected) <= 1e-6 *. Float.max 1.0 (Float.abs expected)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* fusion model                                                        *)
(* ------------------------------------------------------------------ *)

let test_fusion_model_basics () =
  let md = Workloads.Llm.build ~layers:2 () in
  let est = Interp.Fusion_model.estimate (Workloads.Llm.func_of md) in
  check cb "positive time" true (est.Interp.Fusion_model.total_seconds > 0.0);
  check cb "several clusters" true (est.Interp.Fusion_model.num_clusters > 4);
  check cb "flops counted" true (est.Interp.Fusion_model.total_flops > 0)

let test_fusion_model_culprit_regresses () =
  let estimate patterns =
    let md = Workloads.Llm.build ~layers:2 () in
    let script =
      Transform.Build.script (fun rw root ->
          let f = Transform.Build.match_op rw ~name:"func.func" root in
          if patterns <> [] then Transform.Build.apply_patterns rw f patterns)
    in
    (match Transform.Schedule.run ctx ~script ~payload:md with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Transform.Terror.to_string e));
    (Interp.Fusion_model.estimate (Workloads.Llm.func_of md))
      .Interp.Fusion_model.total_seconds
  in
  let baseline = estimate [] in
  let with_culprit = estimate [ Shlo_patterns.culprit ] in
  check cb "culprit alone regresses" true (with_culprit > baseline)

let () =
  Alcotest.run "interp"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "working set fits" `Quick
            test_cache_working_set_fits;
          Alcotest.test_case "thrash" `Quick test_cache_thrash;
        ] );
      ( "machine",
        [
          Alcotest.test_case "costs accumulate" `Quick
            test_machine_costs_accumulate;
          Alcotest.test_case "memory hierarchy" `Quick
            test_machine_memory_hierarchy;
          Alcotest.test_case "alloc alignment" `Quick test_machine_alloc_alignment;
        ] );
      ( "views",
        [
          Alcotest.test_case "subview composition" `Quick test_view_subview;
          Alcotest.test_case "row-major strides" `Quick test_row_major_strides;
        ] );
      ( "exec",
        [
          Alcotest.test_case "arith" `Quick test_arith_exec;
          Alcotest.test_case "select" `Quick test_select_exec;
          Alcotest.test_case "scf.while" `Quick test_scf_while_exec;
          Alcotest.test_case "function calls" `Quick test_function_calls;
          Alcotest.test_case "subview + metadata" `Quick
            test_subview_and_metadata_exec;
          Alcotest.test_case "memref.copy" `Quick test_memref_copy_exec;
          Alcotest.test_case "alloc/store/load/dealloc" `Quick test_alloc_exec;
          Alcotest.test_case "unsupported op reported" `Quick
            test_unsupported_op_reported;
        ] );
      ( "cost-shape",
        [
          Alcotest.test_case "vectorization speeds up" `Quick
            test_vectorization_speeds_up;
          Alcotest.test_case "unroll reduces overhead" `Quick
            test_unroll_reduces_loop_overhead;
          Alcotest.test_case "microkernel cost+semantics" `Quick
            test_microkernel_cost;
          Alcotest.test_case "microkernel rejects sizes" `Quick
            test_microkernel_rejects_unsupported;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "forall speedup" `Quick test_forall_parallel_speedup;
          Alcotest.test_case "fork overhead on tiny regions" `Quick
            test_forall_fork_overhead_dominates_small;
        ] );
      ( "props",
        [ QCheck_alcotest.to_alcotest prop_interp_matches_direct_eval ] );
      ( "fusion",
        [
          Alcotest.test_case "basics" `Quick test_fusion_model_basics;
          Alcotest.test_case "culprit regresses" `Quick
            test_fusion_model_culprit_regresses;
        ] );
    ]
