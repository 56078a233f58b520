(** Compilation of payload IR to OCaml closures for execution on the
    {!Machine} model. Each SSA value gets an environment slot; each op
    becomes a closure that reads operand slots, charges machine cost and
    writes result slots. Structured control flow (scf) compiles to native
    OCaml loops; unstructured control flow (cf/llvm branches) compiles to a
    block-dispatch loop — so IR before and after lowering passes can be
    executed and compared. *)

open Ir
open Dialects
module R = Rvalue

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun m -> raise (Unsupported m)) fmt

type extern_fn = Machine.t -> R.t list -> R.t list

type env = R.t array

type compiled_fn = { cf_num_slots : int; cf_run : Machine.t -> R.t list -> R.t list }

type cctx = {
  ir_ctx : Context.t;
  module_ : Ircore.op option;
  externs : (string, extern_fn) Hashtbl.t;
  compiled : (int, compiled_fn) Hashtbl.t;  (** func op id -> compiled *)
}

let create_cctx ?(externs = Hashtbl.create 8) ?module_ ir_ctx =
  { ir_ctx; module_; externs; compiled = Hashtbl.create 8 }

(* ------------------------------------------------------------------ *)
(* Slot assignment (per function)                                      *)
(* ------------------------------------------------------------------ *)

type slots = { table : (int, int) Hashtbl.t; mutable count : int }

let slot_of slots (v : Ircore.value) =
  match Hashtbl.find_opt slots.table v.Ircore.v_id with
  | Some s -> s
  | None ->
    let s = slots.count in
    slots.count <- slots.count + 1;
    Hashtbl.replace slots.table v.Ircore.v_id s;
    s

(* control-flow outcome of executing a region's block *)
type flow =
  | Done of R.t list  (** region exited (yield/return/condition false) *)
  | Jump of Ircore.block * R.t list

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let elt_bytes = function
  | Typ.Float Typ.F64 -> 8
  | Typ.Float _ -> 4
  | Typ.Integer n -> max 1 (n / 8)
  | Typ.Index -> 8
  | _ -> 4

let is_float_typ t =
  match t with
  | Typ.Float _ -> true
  | Typ.Vector (_, Typ.Float _) -> true
  | _ -> false

let geti (env : env) s = R.as_int env.(s)
let getf (env : env) s = R.as_float env.(s)

let int_binop os rs f =
  let a = os.(0) and b = os.(1) in
  fun machine (env : env) ->
    Machine.int_op machine;
    env.(rs.(0)) <- R.Int (f (geti env a) (geti env b))

let result_is_vec op =
  match Ircore.value_typ (Ircore.result op) with
  | Typ.Vector _ -> true
  | _ -> false

let float_binop op os rs f =
  let a = os.(0) and b = os.(1) in
  if result_is_vec op then fun machine (env : env) ->
    let va = R.as_vec env.(a) and vb = R.as_vec env.(b) in
    Machine.vector_op machine;
    env.(rs.(0)) <- R.Vec (Array.init (Array.length va) (fun i -> f va.(i) vb.(i)))
  else fun machine (env : env) ->
    Machine.float_op machine;
    env.(rs.(0)) <- R.Float (f (getf env a) (getf env b))

let float_unop op os rs f =
  let a = os.(0) in
  if result_is_vec op then fun machine (env : env) ->
    let va = R.as_vec env.(a) in
    Machine.vector_op machine;
    env.(rs.(0)) <- R.Vec (Array.map f va)
  else fun machine (env : env) ->
    Machine.float_op machine;
    env.(rs.(0)) <- R.Float (f (getf env a))

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)
(* ------------------------------------------------------------------ *)

let rec compile_func cctx (func_op : Ircore.op) : compiled_fn =
  match Hashtbl.find_opt cctx.compiled func_op.Ircore.op_id with
  | Some cf -> cf
  | None ->
    let slots = { table = Hashtbl.create 64; count = 0 } in
    let entry =
      match Func.entry_block func_op with
      | Some b -> b
      | None -> unsupported "function %s has no body" (Func.name func_op)
    in
    let region =
      match func_op.Ircore.regions with [ r ] -> r | _ -> assert false
    in
    let arg_slots = List.map (slot_of slots) (Ircore.block_args entry) in
    let run_region = compile_region cctx slots region in
    (* placeholder registered first to support recursion *)
    let cf_ref = ref None in
    let cf =
      {
        cf_num_slots = 0;
        cf_run =
          (fun machine args ->
            match !cf_ref with
            | Some f -> f machine args
            | None -> assert false);
      }
    in
    Hashtbl.replace cctx.compiled func_op.Ircore.op_id cf;
    let num_slots = slots.count in
    let run machine args =
      let env = Array.make (max 1 num_slots) R.Unit in
      (try
         List.iter2 (fun s v -> env.(s) <- v) arg_slots args
       with Invalid_argument _ ->
         unsupported "call to %s: argument arity mismatch" (Func.name func_op));
      run_region machine env
    in
    cf_ref := Some run;
    let cf = { cf_num_slots = num_slots; cf_run = run } in
    Hashtbl.replace cctx.compiled func_op.Ircore.op_id cf;
    cf

(** Compile a region into [machine -> env -> results]. *)
and compile_region cctx slots (region : Ircore.region) :
    Machine.t -> env -> R.t list =
  let blocks = Ircore.region_blocks region in
  match blocks with
  | [] -> fun _ _ -> []
  | [ block ] ->
    let body = compile_straightline cctx slots block in
    let term = compile_terminator cctx slots block in
    fun machine env ->
      body machine env;
      (match term machine env with
      | Done vs -> vs
      | Jump _ -> unsupported "branch out of a single-block region")
  | blocks ->
    (* CFG: block-dispatch loop *)
    let compiled =
      List.map
        (fun b ->
          let arg_slots = List.map (slot_of slots) (Ircore.block_args b) in
          ( b.Ircore.b_id,
            (arg_slots, compile_straightline cctx slots b,
             compile_terminator cctx slots b) ))
        blocks
    in
    let table = Hashtbl.create 8 in
    List.iter (fun (id, c) -> Hashtbl.replace table id c) compiled;
    let entry = List.hd blocks in
    fun machine env ->
      let rec go (b : Ircore.block) (args : R.t list option) =
        let arg_slots, body, term = Hashtbl.find table b.Ircore.b_id in
        (* entry-block args are pre-set by the caller (function arguments) *)
        (match args with
        | Some args -> List.iter2 (fun s v -> env.(s) <- v) arg_slots args
        | None -> ());
        body machine env;
        match term machine env with
        | Done vs -> vs
        | Jump (dest, args) -> go dest (Some args)
      in
      go entry None

(** Compile all non-terminator ops of a block into one closure. *)
and compile_straightline cctx slots (block : Ircore.block) :
    Machine.t -> env -> unit =
  let ops = Ircore.block_ops block in
  let ops =
    (* last op is the terminator when the block has one *)
    match List.rev ops with
    | last :: _ when is_terminator cctx last ->
      List.filter (fun o -> not (o == last)) ops
    | _ -> ops
  in
  let closures = List.map (compile_op cctx slots) ops in
  let arr = Array.of_list closures in
  fun machine env ->
    for i = 0 to Array.length arr - 1 do
      arr.(i) machine env
    done

and is_terminator cctx (op : Ircore.op) =
  Context.op_has_trait cctx.ir_ctx op Context.Terminator

and compile_terminator cctx slots (block : Ircore.block) :
    Machine.t -> env -> flow =
  match Ircore.block_last_op block with
  | Some op when is_terminator cctx op -> (
    let operand_slots = List.map (slot_of slots) (Ircore.operands op) in
    match op.Ircore.op_name with
    | "scf.yield" | "func.return" | "llvm.return" ->
      fun _ env -> Done (List.map (fun s -> env.(s)) operand_slots)
    | "scf.condition" ->
      (* first operand: continue?; rest: forwarded values *)
      fun _ env ->
        Done (List.map (fun s -> env.(s)) operand_slots)
    | "cf.br" | "llvm.br" ->
      let dest = op.Ircore.successors.(0) in
      fun machine env ->
        Machine.int_op machine;
        Jump (dest, List.map (fun s -> env.(s)) operand_slots)
    | "cf.cond_br" | "llvm.cond_br" ->
      let t_dest = op.Ircore.successors.(0) in
      let f_dest = op.Ircore.successors.(1) in
      let _, nt, nf = Cf.cond_segments op in
      let all = Array.of_list operand_slots in
      let cond_slot = all.(0) in
      let t_slots = Array.to_list (Array.sub all 1 nt) in
      let f_slots = Array.to_list (Array.sub all (1 + nt) nf) in
      fun machine env ->
        Machine.int_op machine;
        if R.as_bool env.(cond_slot) then
          Jump (t_dest, List.map (fun s -> env.(s)) t_slots)
        else Jump (f_dest, List.map (fun s -> env.(s)) f_slots)
    | name -> unsupported "terminator %s" name)
  | _ -> fun _ _ -> Done []

(* ------------------------------------------------------------------ *)
(* Individual operations                                               *)
(* ------------------------------------------------------------------ *)

and compile_op cctx slots (op : Ircore.op) : Machine.t -> env -> unit =
  let name = op.Ircore.op_name in
  let os = Array.of_list (List.map (slot_of slots) (Ircore.operands op)) in
  let rs = Array.of_list (List.map (slot_of slots) (Ircore.results op)) in
  let result_typ i = Ircore.value_typ (Ircore.result ~index:i op) in
  match name with
  (* ---------------- constants ---------------- *)
  | "arith.constant" | "index.constant" | "llvm.mlir.constant" -> (
    let rv =
      match Ircore.attr op "value" with
      | Some (Attr.Int (n, _)) -> R.Int n
      | Some (Attr.Float (f, _)) -> R.Float f
      | Some (Attr.Bool b) -> R.Bool b
      | Some a -> unsupported "constant attribute %a" Attr.pp a
      | None -> unsupported "constant without value"
    in
    fun machine env ->
      Machine.int_op machine;
      env.(rs.(0)) <- rv)
  (* ---------------- integer/float binary ---------------- *)
  | "arith.addi" | "index.add" | "llvm.add" -> int_binop os rs ( + )
  | "arith.subi" | "index.sub" | "llvm.sub" -> int_binop os rs ( - )
  | "arith.muli" | "index.mul" | "llvm.mul" -> int_binop os rs ( * )
  | "arith.divsi" | "arith.divui" | "llvm.sdiv" | "llvm.udiv" ->
    int_binop os rs ( / )
  | "arith.remsi" | "arith.remui" | "llvm.srem" | "llvm.urem" ->
    int_binop os rs Int.rem
  | "arith.andi" | "llvm.and" -> int_binop os rs ( land )
  | "arith.ori" | "llvm.or" -> int_binop os rs ( lor )
  | "arith.xori" | "llvm.xor" -> int_binop os rs ( lxor )
  | "arith.maxsi" | "llvm.smax" -> int_binop os rs max
  | "arith.minsi" | "llvm.smin" -> int_binop os rs min
  | "arith.shli" | "llvm.shl" -> int_binop os rs (fun a b -> a lsl b)
  | "arith.shrsi" | "llvm.ashr" -> int_binop os rs (fun a b -> a asr b)
  | "llvm.lshr" -> int_binop os rs (fun a b -> a lsr b)
  | "arith.addf" | "llvm.fadd" -> float_binop op os rs ( +. )
  | "arith.subf" | "llvm.fsub" -> float_binop op os rs ( -. )
  | "arith.mulf" | "llvm.fmul" -> float_binop op os rs ( *. )
  | "arith.divf" | "llvm.fdiv" -> float_binop op os rs ( /. )
  | "arith.maximumf" | "llvm.fmax" -> float_binop op os rs Float.max
  | "arith.minimumf" | "llvm.fmin" -> float_binop op os rs Float.min
  | "arith.cmpi" | "index.cmp" | "llvm.icmp" -> (
    let pred =
      match Dutil.str_attr_of op "predicate" with
      | Some p -> (
        match Arith.ipred_of_string p with
        | Some p -> p
        | None -> unsupported "cmpi predicate %s" p)
      | None -> unsupported "cmpi without predicate"
    in
    let a = os.(0) and b = os.(1) in
    fun machine env ->
      Machine.int_op machine;
      env.(rs.(0)) <- R.Bool (Arith.eval_ipred pred (geti env a) (geti env b)))
  | "arith.cmpf" | "llvm.fcmp" -> (
    let pred =
      Option.value ~default:"oeq" (Dutil.str_attr_of op "predicate")
    in
    let f =
      match pred with
      | "oeq" | "ueq" -> ( = )
      | "one" | "une" -> ( <> )
      | "olt" | "ult" -> ( < )
      | "ole" | "ule" -> ( <= )
      | "ogt" | "ugt" -> ( > )
      | "oge" | "uge" -> ( >= )
      | p -> unsupported "cmpf predicate %s" p
    in
    let a = os.(0) and b = os.(1) in
    fun machine env ->
      Machine.float_op machine;
      env.(rs.(0)) <- R.Bool (f (getf env a) (getf env b)))
  | "arith.select" | "llvm.select" -> (
    let c = os.(0) and a = os.(1) and b = os.(2) in
    fun machine env ->
      Machine.int_op machine;
      env.(rs.(0)) <- (if R.as_bool env.(c) then env.(a) else env.(b)))
  | "arith.index_cast" | "arith.extsi" | "arith.extui" | "arith.trunci"
  | "index.casts" -> (
    let a = os.(0) in
    fun machine env ->
      Machine.int_op machine;
      env.(rs.(0)) <- R.Int (geti env a))
  | "arith.sitofp" | "llvm.sitofp" -> (
    let a = os.(0) in
    fun machine env ->
      Machine.float_op machine;
      env.(rs.(0)) <- R.Float (float_of_int (geti env a)))
  | "arith.fptosi" | "llvm.fptosi" -> (
    let a = os.(0) in
    fun machine env ->
      Machine.float_op machine;
      env.(rs.(0)) <- R.Int (int_of_float (getf env a)))
  | "arith.extf" | "arith.truncf" | "arith.bitcast" | "llvm.bitcast"
  | "llvm.fpext" | "llvm.fptrunc" -> (
    let a = os.(0) in
    fun machine env ->
      Machine.int_op machine;
      env.(rs.(0)) <- env.(a))
  (* ---------------- unary float math ---------------- *)
  | "math.exp" -> float_unop op os rs Float.exp
  | "math.tanh" -> float_unop op os rs Float.tanh
  | "math.sqrt" -> float_unop op os rs Float.sqrt
  | "math.rsqrt" -> float_unop op os rs (fun x -> 1.0 /. Float.sqrt x)
  | "math.log" -> float_unop op os rs Float.log
  | "math.absf" -> float_unop op os rs Float.abs
  (* ---------------- memref ---------------- *)
  | "memref.alloc" | "memref.alloca" -> (
    let typ = result_typ 0 in
    let dims, elt =
      match typ with
      | Typ.Memref (dims, elt, _) -> (dims, elt)
      | t -> unsupported "alloc of %a" Typ.pp t
    in
    let bytes_per = elt_bytes elt in
    fun machine env ->
      let sizes = Array.make (List.length dims) 0 in
      let dyn = ref 0 in
      List.iteri
        (fun i d ->
          match d with
          | Typ.Static n -> sizes.(i) <- n
          | Typ.Dynamic ->
            sizes.(i) <- geti env os.(!dyn);
            incr dyn)
        dims;
      let n = Array.fold_left ( * ) 1 sizes in
      let base = Machine.alloc_address machine (n * bytes_per) in
      let buf = { R.data = Array.make n 0.0; base; elt_bytes = bytes_per } in
      Machine.add_cycles machine 20.0;
      env.(rs.(0)) <-
        R.Memref
          {
            R.buf;
            offset = 0;
            sizes;
            strides = R.row_major_strides sizes;
          })
  | "memref.dealloc" -> fun machine _ -> Machine.add_cycles machine 10.0
  | "memref.load" -> (
    let m = os.(0) in
    let idx_slots = Array.sub os 1 (Array.length os - 1) in
    fun machine env ->
      let view = R.as_view env.(m) in
      let li = ref view.R.offset in
      Array.iteri
        (fun i s -> li := !li + (geti env s * view.R.strides.(i)))
        idx_slots;
      Machine.memory_access machine ~is_store:false
        (R.byte_address view !li)
        view.R.buf.elt_bytes;
      env.(rs.(0)) <- R.Float view.R.buf.data.(!li))
  | "memref.store" -> (
    let v = os.(0) and m = os.(1) in
    let idx_slots = Array.sub os 2 (Array.length os - 2) in
    fun machine env ->
      let view = R.as_view env.(m) in
      let li = ref view.R.offset in
      Array.iteri
        (fun i s -> li := !li + (geti env s * view.R.strides.(i)))
        idx_slots;
      Machine.memory_access machine ~is_store:true
        (R.byte_address view !li)
        view.R.buf.elt_bytes;
      view.R.buf.data.(!li) <- R.as_float env.(v))
  (* ---------------- llvm memory (post finalize-memref-to-llvm) ------ *)
  | "llvm.alloca" -> (
    let bytes_per =
      match Ircore.attr op "elem_bytes" with
      | Some (Attr.Int (n, _)) -> n
      | _ -> 8
    in
    fun machine env ->
      let n = if Array.length os > 0 then max 1 (geti env os.(0)) else 1 in
      let base = Machine.alloc_address machine (n * bytes_per) in
      let buf = { R.data = Array.make n 0.0; base; elt_bytes = bytes_per } in
      Machine.add_cycles machine 20.0;
      env.(rs.(0)) <-
        R.Memref { R.buf; offset = 0; sizes = [| n |]; strides = [| 1 |] })
  | "llvm.getelementptr" -> (
    let idx_slots = Array.sub os 1 (Array.length os - 1) in
    fun _machine env ->
      let view = R.as_view env.(os.(0)) in
      let li = ref view.R.offset in
      Array.iteri
        (fun i s ->
          let stride =
            if i < Array.length view.R.strides then view.R.strides.(i) else 1
          in
          li := !li + (geti env s * stride))
        idx_slots;
      env.(rs.(0)) <- R.Memref { view with R.offset = !li })
  | "llvm.load" -> (
    let is_f = is_float_typ (result_typ 0) in
    fun machine env ->
      let view = R.as_view env.(os.(0)) in
      let li = view.R.offset in
      Machine.memory_access machine ~is_store:false
        (R.byte_address view li)
        view.R.buf.elt_bytes;
      let x = view.R.buf.data.(li) in
      env.(rs.(0)) <- (if is_f then R.Float x else R.Int (int_of_float x)))
  | "llvm.store" -> (
    fun machine env ->
      let view = R.as_view env.(os.(1)) in
      let li = view.R.offset in
      Machine.memory_access machine ~is_store:true
        (R.byte_address view li)
        view.R.buf.elt_bytes;
      let x =
        match env.(os.(0)) with
        | R.Bool b -> if b then 1.0 else 0.0
        | v -> R.as_float v
      in
      view.R.buf.data.(li) <- x)
  | "llvm.ptrtoint" -> (
    fun _machine env ->
      let view = R.as_view env.(os.(0)) in
      env.(rs.(0)) <- R.Int (R.byte_address view view.R.offset))
  | "memref.subview" -> (
    let static_offsets = Array.of_list (Memref.static_offsets op) in
    let static_sizes = Array.of_list (Memref.static_sizes op) in
    let static_strides = Array.of_list (Memref.static_strides op) in
    fun machine env ->
      let view = R.as_view env.(os.(0)) in
      let dyn = ref 1 in
      let resolve arr =
        Array.map
          (fun s ->
            if s = Memref.dynamic_sentinel then begin
              let v = geti env os.(!dyn) in
              incr dyn;
              v
            end
            else s)
          arr
      in
      let offsets = resolve static_offsets in
      let sizes = resolve static_sizes in
      let strides = resolve static_strides in
      Machine.int_op machine;
      env.(rs.(0)) <- R.Memref (R.subview view ~offsets ~sizes ~strides))
  | "memref.dim" -> (
    fun machine env ->
      let view = R.as_view env.(os.(0)) in
      Machine.int_op machine;
      env.(rs.(0)) <- R.Int view.R.sizes.(geti env os.(1)))
  | "memref.cast" | "builtin.unrealized_conversion_cast" -> (
    fun _ env -> env.(rs.(0)) <- env.(os.(0)))
  | "memref.copy" -> (
    fun machine env ->
      let src = R.as_view env.(os.(0)) in
      let dst = R.as_view env.(os.(1)) in
      let n = R.num_elements src in
      (* flat copy through both views *)
      let rec iter idx dims k =
        if dims = Array.length src.R.sizes then k (Array.copy idx)
        else
          for i = 0 to src.R.sizes.(dims) - 1 do
            idx.(dims) <- i;
            iter idx (dims + 1) k
          done
      in
      if n > 0 then
        iter (Array.make (Array.length src.R.sizes) 0) 0 (fun idx ->
            let li_s = R.linear_index src idx in
            let li_d = R.linear_index dst idx in
            Machine.memory_access machine ~is_store:false
              (R.byte_address src li_s) src.R.buf.elt_bytes;
            Machine.memory_access machine ~is_store:true
              (R.byte_address dst li_d) dst.R.buf.elt_bytes;
            dst.R.buf.data.(li_d) <- src.R.buf.data.(li_s)))
  | "memref.extract_strided_metadata" -> (
    fun machine env ->
      let view = R.as_view env.(os.(0)) in
      Machine.int_op machine;
      let base =
        R.Memref { view with R.offset = 0; sizes = [||]; strides = [||] }
      in
      let rank = Array.length view.R.sizes in
      env.(rs.(0)) <- base;
      env.(rs.(1)) <- R.Int view.R.offset;
      for i = 0 to rank - 1 do
        env.(rs.(2 + i)) <- R.Int view.R.sizes.(i);
        env.(rs.(2 + rank + i)) <- R.Int view.R.strides.(i)
      done)
  | "memref.reinterpret_cast" -> (
    let static_offsets = Array.of_list (Memref.static_offsets op) in
    let static_sizes = Array.of_list (Memref.static_sizes op) in
    let static_strides = Array.of_list (Memref.static_strides op) in
    fun machine env ->
      let view = R.as_view env.(os.(0)) in
      let dyn = ref 1 in
      let resolve arr =
        Array.map
          (fun s ->
            if s = Memref.dynamic_sentinel then begin
              let v = geti env os.(!dyn) in
              incr dyn;
              v
            end
            else s)
          arr
      in
      let offsets = resolve static_offsets in
      let sizes = resolve static_sizes in
      let strides = resolve static_strides in
      Machine.int_op machine;
      env.(rs.(0)) <-
        R.Memref
          {
            R.buf = view.R.buf;
            offset = (if Array.length offsets > 0 then offsets.(0) else 0);
            sizes;
            strides;
          })
  | "memref.extract_aligned_pointer_as_index" -> (
    fun machine env ->
      let view = R.as_view env.(os.(0)) in
      Machine.int_op machine;
      env.(rs.(0)) <- R.Int view.R.buf.base)
  (* ---------------- vector ---------------- *)
  | "vector.load" -> (
    let width =
      match result_typ 0 with
      | Typ.Vector ([ w ], _) -> w
      | t -> unsupported "vector.load result %a" Typ.pp t
    in
    let m = os.(0) in
    let idx_slots = Array.sub os 1 (Array.length os - 1) in
    fun machine env ->
      let view = R.as_view env.(m) in
      let li = ref view.R.offset in
      Array.iteri
        (fun i s -> li := !li + (geti env s * view.R.strides.(i)))
        idx_slots;
      Machine.memory_access machine ~is_store:false
        (R.byte_address view !li)
        (width * view.R.buf.elt_bytes);
      env.(rs.(0)) <- R.Vec (Array.sub view.R.buf.data !li width))
  | "vector.store" -> (
    let v = os.(0) and m = os.(1) in
    let idx_slots = Array.sub os 2 (Array.length os - 2) in
    fun machine env ->
      let view = R.as_view env.(m) in
      let vec = R.as_vec env.(v) in
      let li = ref view.R.offset in
      Array.iteri
        (fun i s -> li := !li + (geti env s * view.R.strides.(i)))
        idx_slots;
      Machine.memory_access machine ~is_store:true
        (R.byte_address view !li)
        (Array.length vec * view.R.buf.elt_bytes);
      Array.blit vec 0 view.R.buf.data !li (Array.length vec))
  | "vector.splat" | "vector.broadcast" -> (
    let width =
      match result_typ 0 with
      | Typ.Vector ([ w ], _) -> w
      | t -> unsupported "vector splat result %a" Typ.pp t
    in
    fun machine env ->
      Machine.vector_op machine;
      env.(rs.(0)) <- R.Vec (Array.make width (getf env os.(0))))
  | "vector.reduction" -> (
    let kind = Option.value ~default:"add" (Dutil.str_attr_of op "kind") in
    let f =
      match kind with
      | "add" -> ( +. )
      | "mul" -> ( *. )
      | "maximumf" -> Float.max
      | "minimumf" -> Float.min
      | k -> unsupported "vector.reduction kind %s" k
    in
    fun machine env ->
      let v = R.as_vec env.(os.(0)) in
      Machine.vector_op machine;
      Machine.add_cycles machine 2.0;
      env.(rs.(0)) <- R.Float (Array.fold_left f (if kind = "mul" then 1.0 else 0.0) v))
  | "vector.fma" -> (
    fun machine env ->
      let a = R.as_vec env.(os.(0)) in
      let b = R.as_vec env.(os.(1)) in
      let c = R.as_vec env.(os.(2)) in
      Machine.vector_op machine;
      env.(rs.(0)) <- R.Vec (Array.init (Array.length a) (fun i -> (a.(i) *. b.(i)) +. c.(i))))
  (* ---------------- affine ---------------- *)
  | "affine.apply" | "affine.min" | "affine.max" -> (
    let map =
      match Affine_ops.map_of op with
      | Some m -> m
      | None -> unsupported "affine op without map"
    in
    let combine =
      match name with
      | "affine.apply" -> fun xs -> List.hd xs
      | "affine.min" -> fun xs -> List.fold_left min max_int xs
      | _ -> fun xs -> List.fold_left max min_int xs
    in
    fun machine env ->
      let args = Array.map (fun s -> geti env s) os in
      let dims = Array.sub args 0 map.Affine.num_dims in
      let syms = Array.sub args map.Affine.num_dims map.Affine.num_syms in
      Machine.int_op machine;
      Machine.int_op machine;
      env.(rs.(0)) <- R.Int (combine (Affine.eval_map map ~dims ~syms)))
  (* ---------------- scf ---------------- *)
  | "scf.for" -> (
    let body_block = Scf.body_block op in
    let region = match op.Ircore.regions with [ r ] -> r | _ -> assert false in
    let run_body = compile_region cctx slots region in
    let iv_slot = slot_of slots (Scf.induction_var op) in
    let iter_slots = List.map (slot_of slots) (Scf.iter_args op) in
    ignore body_block;
    let lb = os.(0) and ub = os.(1) and step = os.(2) in
    let init_slots =
      Array.to_list (Array.sub os 3 (Array.length os - 3))
    in
    fun machine env ->
      let lo = geti env lb and hi = geti env ub and st = geti env step in
      List.iteri
        (fun i s -> env.(List.nth iter_slots i) <- env.(s))
        init_slots;
      let i = ref lo in
      let carried = ref (List.map (fun s -> env.(s)) iter_slots) in
      while !i < hi do
        Machine.loop_iter machine;
        env.(iv_slot) <- R.Int !i;
        List.iteri (fun k v -> env.(List.nth iter_slots k) <- v) !carried;
        carried := run_body machine env;
        i := !i + st
      done;
      List.iteri (fun k v -> env.(rs.(k)) <- v) !carried)
  | "scf.forall" -> (
    let region = match op.Ircore.regions with [ r ] -> r | _ -> assert false in
    let bounds =
      match Ircore.attr op "static_upper_bound" with
      | Some (Attr.Int_array ub) -> Array.of_list ub
      | _ -> unsupported "scf.forall without static_upper_bound"
    in
    let body_block =
      match Ircore.region_first_block region with
      | Some b -> b
      | None -> unsupported "scf.forall without body"
    in
    let iv_slots =
      List.map (slot_of slots) (Ircore.block_args body_block)
    in
    let run_body = compile_region cctx slots region in
    fun machine env ->
      let rank = Array.length bounds in
      let idx = Array.make rank 0 in
      let before = machine.Machine.cycles in
      let rec go d =
        if d = rank then begin
          Machine.loop_iter machine;
          List.iteri (fun i s -> env.(s) <- R.Int idx.(i)) iv_slots;
          ignore (run_body machine env)
        end
        else
          for i = 0 to bounds.(d) - 1 do
            idx.(d) <- i;
            go (d + 1)
          done
      in
      go 0;
      (* idealized parallel scaling: the cycles spent inside the parallel
         region are divided across the modeled cores, plus fork/join cost *)
      let threads = machine.Machine.config.Machine.num_threads in
      if machine.Machine.cost_enabled && threads > 1 then begin
        let total_iters = Array.fold_left ( * ) 1 bounds in
        let ways = min threads (max 1 total_iters) in
        let spent = machine.Machine.cycles -. before in
        machine.Machine.cycles <-
          before
          +. (spent /. float_of_int ways)
          +. machine.Machine.config.Machine.parallel_fork_cycles
      end)
  | "scf.if" -> (
    let then_r, else_r =
      match op.Ircore.regions with
      | [ t; e ] -> (t, e)
      | _ -> unsupported "scf.if must have two regions"
    in
    let run_then = compile_region cctx slots then_r in
    let run_else = compile_region cctx slots else_r in
    let c = os.(0) in
    fun machine env ->
      Machine.int_op machine;
      let vs =
        if R.as_bool env.(c) then run_then machine env else run_else machine env
      in
      List.iteri (fun i v -> env.(rs.(i)) <- v) vs)
  | "scf.while" -> (
    let before_r, after_r =
      match op.Ircore.regions with
      | [ b; a ] -> (b, a)
      | _ -> unsupported "scf.while must have two regions"
    in
    let before_block =
      Option.get (Ircore.region_first_block before_r)
    in
    let after_block = Option.get (Ircore.region_first_block after_r) in
    let before_args = List.map (slot_of slots) (Ircore.block_args before_block) in
    let after_args = List.map (slot_of slots) (Ircore.block_args after_block) in
    let run_before = compile_region cctx slots before_r in
    let run_after = compile_region cctx slots after_r in
    (* the condition terminator returns cond :: forwarded *)
    let init_slots = Array.to_list os in
    fun machine env ->
      let args = ref (List.map (fun s -> env.(s)) init_slots) in
      let finished = ref false in
      let results = ref [] in
      while not !finished do
        Machine.loop_iter machine;
        List.iteri (fun i v -> env.(List.nth before_args i) <- v) !args;
        match run_before machine env with
        | cond :: forwarded ->
          if R.as_bool cond then begin
            List.iteri (fun i v -> env.(List.nth after_args i) <- v) forwarded;
            args := run_after machine env
          end
          else begin
            finished := true;
            results := forwarded
          end
        | [] -> unsupported "scf.while before-region yielded nothing"
      done;
      List.iteri (fun i v -> env.(rs.(i)) <- v) !results)
  (* ---------------- calls ---------------- *)
  | "func.call" | "llvm.call" -> (
    let callee =
      match Ircore.attr op "callee" with
      | Some (Attr.Symbol_ref (s, _)) -> s
      | _ -> unsupported "call without callee"
    in
    match Hashtbl.find_opt cctx.externs callee with
    | Some ext ->
      fun machine env ->
        Machine.call machine;
        let args = Array.to_list (Array.map (fun s -> env.(s)) os) in
        let vs = ext machine args in
        List.iteri (fun i v -> env.(rs.(i)) <- v) vs
    | None -> (
      match cctx.module_ with
      | None -> unsupported "call to %s outside a module" callee
      | Some m -> (
        match Symbol.lookup_in ~table:m callee with
        | None -> unsupported "call to unknown function %s" callee
        | Some f ->
          (* defer compilation to execution time to allow any definition
             order and recursion *)
          let compiled = lazy (compile_func cctx f) in
          fun machine env ->
            Machine.call machine;
            let args = Array.to_list (Array.map (fun s -> env.(s)) os) in
            let vs = (Lazy.force compiled).cf_run machine args in
            List.iteri (fun i v -> env.(rs.(i)) <- v) vs)))
  | name -> unsupported "cannot execute op %s" name

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

(** Execute function [name] in [module_] with [args]; returns results and
    the machine report. *)
let run_function ?(machine = Machine.create ()) ?(externs = Hashtbl.create 8)
    ~ir_ctx ~module_ ~name args =
  match Symbol.lookup_in ~table:module_ name with
  | None -> Error (Fmt.str "no function @%s in module" name)
  | Some f -> (
    let cctx = create_cctx ~externs ~module_ ir_ctx in
    try
      let compiled = compile_func cctx f in
      let results = compiled.cf_run machine args in
      Ok (results, Machine.report machine)
    with
    | Unsupported msg -> Error ("interpreter: " ^ msg)
    | R.Type_error msg -> Error ("interpreter: " ^ msg))
