(** Seeded, deterministic generation of well-typed payload IR.

    Every random choice is drawn from an explicit [Random.State.t] (never the
    global [Random]), so a (seed, case) pair always reproduces the same
    module. Generation is correct by construction: values are only drawn
    from pools of dominating definitions, region-carrying ops yield values
    of the declared types, and every generated op is executable by
    {!Interp.Compile} — which is what lets the differential oracle run the
    module before and after each pass pipeline.

    Dialect coverage: [arith] (constants, int/float binops, comparisons,
    select, casts), [scf] ([for] with iter_args, [if] with results,
    [while]), [cf] (diamond control flow in helper functions reached via
    [func.call]), [func], [memref] (alloc/store/load with in-bounds static
    indices) and [tensor] (a non-executed shape-manipulation function). *)

open Ir
open Dialects

type config = {
  max_ops : int;  (** op budget for the main function body *)
  max_depth : int;  (** maximum region-nesting depth below the function *)
}

let default_config = { max_ops = 40; max_depth = 3 }

(** The function executed by the differential oracle. *)
let entry_name = "main"

(* ------------------------------------------------------------------ *)
(* Random helpers                                                      *)
(* ------------------------------------------------------------------ *)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let pick_opt rng = function [] -> None | xs -> Some (pick rng xs)

let small_int rng = Random.State.int rng 33 - 16

(* arbitrary doubles round-trip through the printer's hex notation *)
let small_float rng = Random.State.float rng 16.0 -. 8.0

(* ------------------------------------------------------------------ *)
(* Value pools                                                         *)
(* ------------------------------------------------------------------ *)

(** Values available at the current insertion point, bucketed by type.
    Pools are immutable: entering a region copies the enclosing pool, so
    region-local values never leak out. *)
type pool = {
  ints : Ircore.value list;  (** i64 *)
  floats : Ircore.value list;  (** f64 *)
  bools : Ircore.value list;  (** i1 *)
  indices : Ircore.value list;
  memrefs : (Ircore.value * int) list;  (** 1-D memref + static size *)
}

let empty_pool = { ints = []; floats = []; bools = []; indices = []; memrefs = [] }

let add_value pool (v : Ircore.value) =
  match Ircore.value_typ v with
  | t when Typ.equal t Typ.i64 -> { pool with ints = v :: pool.ints }
  | t when Typ.equal t Typ.f64 -> { pool with floats = v :: pool.floats }
  | t when Typ.equal t Typ.i1 -> { pool with bools = v :: pool.bools }
  | Typ.Index -> { pool with indices = v :: pool.indices }
  | _ -> pool

let scalar_choices pool =
  (if pool.ints = [] then [] else [ `Int ])
  @ (if pool.floats = [] then [] else [ `Float ])
  @ if pool.bools = [] then [] else [ `Bool ]

let pool_of_kind pool = function
  | `Int -> pool.ints
  | `Float -> pool.floats
  | `Bool -> pool.bools

let typ_of_kind = function
  | `Int -> Typ.i64
  | `Float -> Typ.f64
  | `Bool -> Typ.i1

(* ------------------------------------------------------------------ *)
(* Leaf ops                                                            *)
(* ------------------------------------------------------------------ *)

let gen_const rng rw pool =
  match Random.State.int rng 4 with
  | 0 -> add_value pool (Dutil.const_int rw ~typ:Typ.i64 (small_int rng))
  | 1 -> add_value pool (Dutil.const_float rw ~typ:Typ.f64 (small_float rng))
  | 2 ->
    add_value pool
      (Arith.constant rw (Attr.Bool (Random.State.bool rng)) Typ.i1)
  | _ -> add_value pool (Arith.const_index rw (Random.State.int rng 9))

let int_binops = [ "addi"; "subi"; "muli"; "andi"; "ori"; "xori"; "maxsi"; "minsi" ]
let float_binops = [ "addf"; "subf"; "mulf"; "maximumf"; "minimumf" ]
let ipreds = Arith.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ]
let fpreds = [ "oeq"; "one"; "olt"; "ole"; "ogt"; "oge" ]

let gen_int_binop rng rw pool =
  match pool.ints with
  | [] -> gen_const rng rw pool
  | ints -> (
    let a = pick rng ints and b = pick rng ints in
    match Random.State.int rng 10 with
    | 0 | 1 ->
      (* division and remainder: fresh strictly-positive constant divisor,
         so neither the interpreter nor a constant folder can trap *)
      let d = Dutil.const_int rw ~typ:Typ.i64 (1 + Random.State.int rng 7) in
      add_value pool
        (Arith.binop rw (if Random.State.bool rng then "divsi" else "remsi") a d)
    | 2 ->
      (* shifts: fresh small constant amount keeps the semantics defined *)
      let s = Dutil.const_int rw ~typ:Typ.i64 (Random.State.int rng 8) in
      add_value pool
        (Arith.binop rw (if Random.State.bool rng then "shli" else "shrsi") a s)
    | _ -> add_value pool (Arith.binop rw (pick rng int_binops) a b))

let gen_float_binop rng rw pool =
  match pool.floats with
  | [] -> gen_const rng rw pool
  | floats ->
    let a = pick rng floats and b = pick rng floats in
    add_value pool (Arith.binop rw (pick rng float_binops) a b)

let gen_cmp rng rw pool =
  let int_like = (if pool.ints = [] then [] else [ pool.ints ])
    @ if pool.indices = [] then [] else [ pool.indices ] in
  match (Random.State.bool rng, int_like, pool.floats) with
  | _, [], [] -> gen_const rng rw pool
  | true, (_ :: _ as ils), _ | false, (_ :: _ as ils), [] ->
    let vs = pick rng ils in
    add_value pool (Arith.cmpi rw (pick rng ipreds) (pick rng vs) (pick rng vs))
  | _, _, (_ :: _ as fs) ->
    let a = pick rng fs and b = pick rng fs in
    add_value pool
      (Rewriter.build1 rw ~operands:[| a; b |] ~result_types:[| Typ.i1 |]
         ~attrs:[ ("predicate", Attr.String (pick rng fpreds)) ]
         "arith.cmpf")

let gen_select rng rw pool =
  match (pool.bools, scalar_choices pool) with
  | [], _ | _, [] -> gen_const rng rw pool
  | bools, kinds -> (
    let vs = pool_of_kind pool (pick rng kinds) in
    match vs with
    | [] -> gen_const rng rw pool
    | _ -> add_value pool (Arith.select rw (pick rng bools) (pick rng vs) (pick rng vs)))

let gen_cast rng rw pool =
  match Random.State.int rng 3 with
  | 0 when pool.ints <> [] ->
    add_value pool (Arith.index_cast rw (pick rng pool.ints) Typ.index)
  | 1 when pool.indices <> [] ->
    add_value pool (Arith.index_cast rw (pick rng pool.indices) Typ.i64)
  | _ when pool.ints <> [] ->
    add_value pool
      (Rewriter.build1 rw ~operands:[| pick rng pool.ints |]
         ~result_types:[| Typ.f64 |] "arith.sitofp")
  | _ -> gen_const rng rw pool

(* ------------------------------------------------------------------ *)
(* memref ops                                                          *)
(* ------------------------------------------------------------------ *)

let gen_memref rng rw pool =
  if pool.memrefs = [] || Random.State.int rng 4 = 0 then begin
    let size = 2 + Random.State.int rng 7 in
    let m = Memref.alloc rw (Typ.memref (Typ.static_dims [ size ]) Typ.f64) in
    { pool with memrefs = (m, size) :: pool.memrefs }
  end
  else begin
    let m, size = pick rng pool.memrefs in
    let i = Arith.const_index rw (Random.State.int rng size) in
    if pool.floats <> [] && Random.State.bool rng then begin
      Memref.store rw (pick rng pool.floats) m [ i ];
      pool
    end
    else add_value pool (Memref.load rw m [ i ])
  end

(* ------------------------------------------------------------------ *)
(* Region-carrying scf ops                                             *)
(* ------------------------------------------------------------------ *)

(** Yield operands of the given kinds drawn from [pool]; materializes a
    constant when the pool has no value of a kind. *)
let yield_values rng rw pool kinds =
  List.map
    (fun kind ->
      match pick_opt rng (pool_of_kind pool kind) with
      | Some v -> v
      | None -> (
        match kind with
        | `Int -> Dutil.const_int rw ~typ:Typ.i64 (small_int rng)
        | `Float -> Dutil.const_float rw ~typ:Typ.f64 (small_float rng)
        | `Bool -> Arith.constant rw (Attr.Bool (Random.State.bool rng)) Typ.i1))
    kinds

let rec gen_ops rng cfg rw pool ~depth ~budget =
  if !budget <= 0 then pool
  else begin
    decr budget;
    let pool =
      match Random.State.int rng 16 with
      | 0 | 1 | 2 -> gen_const rng rw pool
      | 3 | 4 -> gen_int_binop rng rw pool
      | 5 | 6 -> gen_float_binop rng rw pool
      | 7 -> gen_cmp rng rw pool
      | 8 -> gen_select rng rw pool
      | 9 -> gen_cast rng rw pool
      | 10 | 11 -> gen_memref rng rw pool
      | 12 | 13 when depth < cfg.max_depth -> gen_if rng cfg rw pool ~depth ~budget
      | 14 when depth < cfg.max_depth -> gen_for rng cfg rw pool ~depth ~budget
      | 15 when depth < cfg.max_depth -> gen_while rng rw pool
      | _ -> gen_int_binop rng rw pool
    in
    gen_ops rng cfg rw pool ~depth ~budget
  end

and gen_if rng cfg rw pool ~depth ~budget =
  let n_results = Random.State.int rng 3 in
  let kinds = List.init n_results (fun _ -> pick rng [ `Int; `Float; `Bool ]) in
  let cond =
    match pick_opt rng pool.bools with
    | Some c -> c
    | None -> Arith.constant rw (Attr.Bool (Random.State.bool rng)) Typ.i1
  in
  let branch brw =
    let allowance = min !budget 6 in
    let inner = ref allowance in
    let bpool = gen_ops rng cfg brw pool ~depth:(depth + 1) ~budget:inner in
    budget := !budget - (allowance - !inner);
    yield_values rng brw bpool kinds
  in
  let op =
    Scf.build_if rw ~cond ~result_types:(List.map typ_of_kind kinds)
      ~then_:branch ~else_:branch
  in
  List.fold_left add_value pool (Ircore.results op)

and gen_for rng cfg rw pool ~depth ~budget =
  let n_iter = Random.State.int rng 3 in
  let kinds = List.init n_iter (fun _ -> pick rng [ `Int; `Float ]) in
  let init = yield_values rng rw pool kinds in
  let lb = Arith.const_index rw 0 in
  let ub = Arith.const_index rw (Random.State.int rng 5) in
  let step = Arith.const_index rw (1 + Random.State.int rng 2) in
  let op =
    Scf.build_for rw ~lb ~ub ~step ~iter_args:init (fun brw iv iters ->
        let bpool = List.fold_left add_value (add_value pool iv) iters in
        let allowance = min !budget 6 in
        let inner = ref allowance in
        let bpool = gen_ops rng cfg brw bpool ~depth:(depth + 1) ~budget:inner in
        budget := !budget - (allowance - !inner);
        yield_values rng brw bpool kinds)
  in
  List.fold_left add_value pool (Ircore.results op)

and gen_while rng rw pool =
  (* while (x < bound) x = f(x): a closed loop template whose carried value
     strictly increases, so termination is by construction *)
  let x0 =
    match pick_opt rng pool.ints with
    | Some v -> v
    | None -> Dutil.const_int rw ~typ:Typ.i64 (Random.State.int rng 8)
  in
  let bound = 8 + Random.State.int rng 56 in
  let before = Ircore.create_block ~args:[ Typ.i64 ] () in
  let after = Ircore.create_block ~args:[ Typ.i64 ] () in
  let w =
    Rewriter.build rw ~operands:[| x0 |] ~result_types:[| Typ.i64 |]
      ~regions:
        [ Ircore.region_with_block before; Ircore.region_with_block after ]
      Scf.while_op
  in
  let brw = Dutil.rw_at_end before in
  let b = Dutil.const_int brw ~typ:Typ.i64 bound in
  let c = Arith.cmpi brw Arith.Slt (Ircore.block_arg before 0) b in
  Rewriter.build0 brw ~operands:[| c; Ircore.block_arg before 0 |]
    Scf.condition_op;
  let arw = Dutil.rw_at_end after in
  let x = Ircore.block_arg after 0 in
  let next =
    match Random.State.int rng 3 with
    | 0 ->
      (* 2x+1 has a fixpoint at -1 and diverges below it; clamping to 0
         first makes the step strictly increasing for every start value *)
      let zero = Dutil.const_int arw ~typ:Typ.i64 0 in
      let two = Dutil.const_int arw ~typ:Typ.i64 2 in
      let one = Dutil.const_int arw ~typ:Typ.i64 1 in
      Arith.addi arw (Arith.muli arw (Arith.binop arw "maxsi" x zero) two) one
    | 1 ->
      let k = Dutil.const_int arw ~typ:Typ.i64 (1 + Random.State.int rng 5) in
      Arith.addi arw x k
    | _ ->
      let three = Dutil.const_int arw ~typ:Typ.i64 3 in
      let one = Dutil.const_int arw ~typ:Typ.i64 1 in
      Arith.addi arw (Arith.binop arw "maxsi" x one)
        (Arith.binop arw "addi" three (Dutil.const_int arw ~typ:Typ.i64 0))
  in
  Scf.yield arw ~operands:[ next ] ();
  add_value pool (Ircore.result w)

(* ------------------------------------------------------------------ *)
(* cf-diamond helper functions                                         *)
(* ------------------------------------------------------------------ *)

(** A function with unstructured control flow:
    entry: cond_br %c, ^then(%x'), ^else(%x'') ; both br ^join(%v) ; join
    returns — covers [cf.br]/[cf.cond_br], block arguments and the
    interpreter's block-dispatch execution path. *)
let gen_cf_function rng name =
  let f, entry =
    Func.create ~name ~arg_types:[ Typ.i64; Typ.i1 ] ~result_types:[ Typ.i64 ]
      ()
  in
  let region = List.hd f.Ircore.regions in
  let x = Ircore.block_arg entry 0 and c = Ircore.block_arg entry 1 in
  let then_b = Ircore.create_block ~args:[ Typ.i64 ] () in
  let else_b = Ircore.create_block ~args:[ Typ.i64 ] () in
  let join_b = Ircore.create_block ~args:[ Typ.i64 ] () in
  Ircore.append_block region then_b;
  Ircore.append_block region else_b;
  Ircore.append_block region join_b;
  let rw = Dutil.rw_at_end entry in
  let k = Dutil.const_int rw ~typ:Typ.i64 (small_int rng) in
  let a = Arith.addi rw x k in
  Cf.cond_br rw ~cond:c ~true_dest:then_b ~true_args:[ a ] ~false_dest:else_b
    ~false_args:[ x ] ();
  let trw = Dutil.rw_at_end then_b in
  let t2 = Dutil.const_int trw ~typ:Typ.i64 2 in
  Cf.br trw ~dest:join_b
    ~args:[ Arith.muli trw (Ircore.block_arg then_b 0) t2 ]
    ();
  let erw = Dutil.rw_at_end else_b in
  let e1 = Dutil.const_int erw ~typ:Typ.i64 (1 + Random.State.int rng 4) in
  Cf.br erw ~dest:join_b
    ~args:[ Arith.subi erw (Ircore.block_arg else_b 0) e1 ]
    ();
  let jrw = Dutil.rw_at_end join_b in
  Func.return jrw ~operands:[ Ircore.block_arg join_b 0 ] ();
  f

(* ------------------------------------------------------------------ *)
(* tensor function (not executed; exercises parser/printer/verifier)   *)
(* ------------------------------------------------------------------ *)

let gen_tensor_function rng name =
  let n = 2 + Random.State.int rng 6 in
  let tt = Typ.tensor (Typ.static_dims [ n ]) Typ.f64 in
  let f, entry = Func.create ~name ~arg_types:[ tt ] ~result_types:[ Typ.f64 ] () in
  let rw = Dutil.rw_at_end entry in
  let e = Tensor_d.empty rw tt in
  let x = Dutil.const_float rw ~typ:Typ.f64 (small_float rng) in
  let i = Arith.const_index rw (Random.State.int rng n) in
  let ins =
    Rewriter.build1 rw ~operands:[| x; e; i |] ~result_types:[| tt |]
      "tensor.insert"
  in
  let src = if Random.State.bool rng then ins else Ircore.block_arg entry 0 in
  let v =
    Rewriter.build1 rw
      ~operands:[| src; i |]
      ~result_types:[| Typ.f64 |] "tensor.extract"
  in
  Func.return rw ~operands:[ v ] ();
  f

(* ------------------------------------------------------------------ *)
(* Module generation                                                   *)
(* ------------------------------------------------------------------ *)

(** Generate one well-typed module. [main] takes no arguments and returns
    up to three scalars; helper functions (cf diamonds, tensor) are reached
    from [main] or stand alone. *)
let generate ?(config = default_config) rng =
  let md = Builtin.create_module () in
  let body = Builtin.body_block md in
  (* helper functions first so main's calls resolve in symbol order *)
  let n_cf = Random.State.int rng 3 in
  let cf_names = List.init n_cf (fun i -> Fmt.str "cf%d" i) in
  List.iter
    (fun name -> Ircore.insert_at_end body (gen_cf_function rng name))
    cf_names;
  if Random.State.bool rng then
    Ircore.insert_at_end body (gen_tensor_function rng "tensorfn");
  (* main *)
  let f, entry = Func.create ~name:entry_name ~arg_types:[] ~result_types:[] () in
  Ircore.insert_at_end body f;
  let rw = Dutil.rw_at_end entry in
  let budget = ref config.max_ops in
  let pool = gen_ops rng config rw empty_pool ~depth:0 ~budget in
  (* call each cf helper with values from the pool (or fresh constants) *)
  let pool =
    List.fold_left
      (fun pool callee ->
        let x =
          match pick_opt rng pool.ints with
          | Some v -> v
          | None -> Dutil.const_int rw ~typ:Typ.i64 (small_int rng)
        in
        let c =
          match pick_opt rng pool.bools with
          | Some v -> v
          | None -> Arith.constant rw (Attr.Bool (Random.State.bool rng)) Typ.i1
        in
        let call =
          Func.call rw ~callee ~operands:[ x; c ] ~result_types:[ Typ.i64 ]
        in
        add_value pool (Ircore.result call))
      pool cf_names
  in
  (* return up to three scalars; rewrite main's declared type to match *)
  let n_rets = Random.State.int rng 4 in
  let kinds = List.init n_rets (fun _ -> pick rng [ `Int; `Float; `Bool ]) in
  let rets = yield_values rng rw pool kinds in
  Ircore.set_attr f "function_type"
    (Attr.Type (Typ.Func ([], List.map typ_of_kind kinds)));
  Func.return rw ~operands:rets ();
  md
