(** The progressive-lowering conversion passes of Case Study 2:

    ① convert-scf-to-cf      ② convert-arith-to-llvm  ③ convert-cf-to-llvm
    ④ convert-func-to-llvm   ⑤ expand-strided-metadata
    ⑥ finalize-memref-to-llvm ⑦ reconcile-unrealized-casts
    plus lower-affine.

    Conversions follow MLIR's partial-conversion discipline: when an op is
    rewritten into a lower dialect, [builtin.unrealized_conversion_cast]s
    bridge the type mismatch with not-yet-converted neighbours; ⑦ cancels
    matching cast pairs and *fails* on leftovers — reproducing the exact
    failure mode discussed in the paper.

    Each pass declares a {!Pass.table} that {!Pass.convert} runs;
    convert-scf-to-cf keeps its own outermost-first loop and converts each
    op through {!Pass.convert_op}. *)

open Ir
open Dialects

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Cast plumbing                                                       *)
(* ------------------------------------------------------------------ *)

(** Adapt [v] to type [t] by inserting an unrealized cast (no-op if the type
    already matches). *)
let adapt rw v t =
  if Typ.equal (Ircore.value_typ v) t then v else Builtin.cast rw v t

let stat_casts_reconciled =
  Stats.counter ~component:"conversions" "casts_reconciled"

(** Replace [op] with a new op [name]: operands adapted to [operand_types],
    results of [result_types] cast back to the old result types. *)
let replace_as rw op ~name ~operand_types ~result_types =
  Rewriter.set_ip rw (Builder.Before op);
  let operands =
    List.map2 (fun v t -> adapt rw v t) (Ircore.operands op) operand_types
  in
  let new_op =
    Rewriter.build rw ~operands:(Array.of_list operands)
      ~result_types:(Array.of_list result_types) ~attrs:op.Ircore.attrs
      ~successors:(Array.copy op.Ircore.successors) name
  in
  let replacements =
    List.map2
      (fun new_r old_r -> adapt rw new_r (Ircore.value_typ old_r))
      (Ircore.results new_op) (Ircore.results op)
  in
  Rewriter.replace_op rw op ~with_:replacements

(* ------------------------------------------------------------------ *)
(* ① convert-scf-to-cf                                                 *)
(* ------------------------------------------------------------------ *)

(** Lower an [scf.forall] into a nest of [scf.for]. *)
let forall_to_fors rw op =
  let bounds =
    match Ircore.attr op "static_upper_bound" with
    | Some (Attr.Int_array ub) -> ub
    | _ -> []
  in
  let region = List.hd op.Ircore.regions in
  let body = Option.get (Ircore.region_first_block region) in
  let ivs = Ircore.block_args body in
  Rewriter.set_ip rw (Builder.Before op);
  let zero = Dutil.const_int rw 0 in
  let one = Dutil.const_int rw 1 in
  let rec build i brw =
    if i = List.length bounds then begin
      List.iter
        (fun o ->
          if o.Ircore.op_name <> Scf.yield_op && o.Ircore.op_name <> "scf.forall.in_parallel"
          then begin
            Ircore.detach o;
            Rewriter.insert brw o
          end)
        (Ircore.block_ops body);
      []
    end
    else begin
      let ub = Dutil.const_int brw (List.nth bounds i) in
      ignore
        (Scf.build_for brw ~lb:zero ~ub ~step:one (fun brw' iv _ ->
             Ircore.replace_all_uses_with (List.nth ivs i) ~with_:iv;
             build (i + 1) brw'));
      []
    end
  in
  ignore (build 0 rw);
  Rewriter.erase_op rw op

(** Lower one [scf.for] into CFG blocks. The loop's parent block is split. *)
let for_to_cf rw (loop : Ircore.op) =
  let parent = Option.get (Ircore.op_parent loop) in
  let iter_types = List.map Ircore.value_typ (Ircore.results loop) in
  (* rest of the parent block, starting at the loop *)
  let rest = Rewriter.split_block_before rw parent loop in
  Ircore.detach loop;
  (* rest gets one arg per loop result *)
  let rest_args = List.map (fun t -> Ircore.add_block_arg rest t) iter_types in
  List.iter2
    (fun r a -> Ircore.replace_all_uses_with r ~with_:a)
    (Ircore.results loop) rest_args;
  let region = Option.get (Ircore.block_parent parent) in
  (* condition block *)
  let cond = Ircore.create_block ~args:(Typ.index :: iter_types) () in
  Ircore.insert_block_after region ~anchor:parent cond;
  (* body block: reuse the loop's own block *)
  let body = Scf.body_block loop in
  let loop_region = List.hd loop.Ircore.regions in
  Ircore.detach_block body;
  Ircore.insert_block_after region ~anchor:cond body;
  ignore loop_region;
  (* parent: branch to cond with (lb, inits) *)
  let lb = Scf.lower_bound loop
  and ub = Scf.upper_bound loop
  and step = Scf.step loop in
  let inits = Scf.iter_init_args loop in
  let prw = Rewriter.create ~ip:(Builder.At_end parent) () in
  Cf.br prw ~dest:cond ~args:(lb :: inits) ();
  (* cond: iv < ub ? body(iv, iters) : rest(iters) *)
  let crw = Rewriter.create ~ip:(Builder.At_end cond) () in
  let civ = Ircore.block_arg cond 0 in
  let citers = List.tl (Ircore.block_args cond) in
  let cmp = Arith.cmpi crw Arith.Slt civ ub in
  Cf.cond_br crw ~cond:cmp ~true_dest:body ~true_args:(civ :: citers)
    ~false_dest:rest ~false_args:citers ();
  (* body: replace yield by iv+step branch back to cond *)
  let yield =
    match Ircore.block_last_op body with
    | Some y when y.Ircore.op_name = Scf.yield_op -> y
    | _ -> failwith "scf.for body lacks yield"
  in
  let yrw = Rewriter.create ~ip:(Builder.Before yield) () in
  let biv = Ircore.block_arg body 0 in
  let next = Arith.addi yrw biv step in
  Cf.br yrw ~dest:cond ~args:(next :: Ircore.operands yield) ();
  Rewriter.erase_op yrw yield;
  (* the loop op itself is now empty *)
  Rewriter.erase_op rw loop

(** Lower one [scf.if]. *)
let if_to_cf rw (ifop : Ircore.op) =
  let parent = Option.get (Ircore.op_parent ifop) in
  let result_types = List.map Ircore.value_typ (Ircore.results ifop) in
  let rest = Rewriter.split_block_before rw parent ifop in
  Ircore.detach ifop;
  let rest_args = List.map (fun t -> Ircore.add_block_arg rest t) result_types in
  List.iter2
    (fun r a -> Ircore.replace_all_uses_with r ~with_:a)
    (Ircore.results ifop) rest_args;
  let region = Option.get (Ircore.block_parent parent) in
  let then_block, else_block =
    match ifop.Ircore.regions with
    | [ t; e ] ->
      (Option.get (Ircore.region_first_block t),
       Option.get (Ircore.region_first_block e))
    | _ -> failwith "scf.if must have two regions"
  in
  Ircore.detach_block then_block;
  Ircore.insert_block_after region ~anchor:parent then_block;
  Ircore.detach_block else_block;
  Ircore.insert_block_after region ~anchor:then_block else_block;
  let retarget_yield block =
    match Ircore.block_last_op block with
    | Some y when y.Ircore.op_name = Scf.yield_op ->
      let yrw = Rewriter.create ~ip:(Builder.Before y) () in
      Cf.br yrw ~dest:rest ~args:(Ircore.operands y) ();
      Rewriter.erase_op yrw y
    | _ -> failwith "scf.if region lacks yield"
  in
  retarget_yield then_block;
  retarget_yield else_block;
  let prw = Rewriter.create ~ip:(Builder.At_end parent) () in
  Cf.cond_br prw
    ~cond:(Ircore.operand ~index:0 ifop)
    ~true_dest:then_block ~false_dest:else_block ();
  Rewriter.erase_op rw ifop

(** Lower one [scf.while]: the before-region becomes the loop header (its
    [scf.condition] turning into a conditional branch), the after-region the
    loop body branching back to the header. *)
let while_to_cf rw (w : Ircore.op) =
  let parent = Option.get (Ircore.op_parent w) in
  let result_types = List.map Ircore.value_typ (Ircore.results w) in
  let rest = Rewriter.split_block_before rw parent w in
  Ircore.detach w;
  let rest_args = List.map (fun t -> Ircore.add_block_arg rest t) result_types in
  List.iter2
    (fun r a -> Ircore.replace_all_uses_with r ~with_:a)
    (Ircore.results w) rest_args;
  let region = Option.get (Ircore.block_parent parent) in
  let before_block, after_block =
    match w.Ircore.regions with
    | [ b; a ] ->
      (Option.get (Ircore.region_first_block b),
       Option.get (Ircore.region_first_block a))
    | _ -> failwith "scf.while must have two regions"
  in
  Ircore.detach_block before_block;
  Ircore.insert_block_after region ~anchor:parent before_block;
  Ircore.detach_block after_block;
  Ircore.insert_block_after region ~anchor:before_block after_block;
  (* entry: jump to the header with the init operands *)
  let prw = Rewriter.create ~ip:(Builder.At_end parent) () in
  Cf.br prw ~dest:before_block ~args:(Ircore.operands w) ();
  (* header: scf.condition(c, fwd...) -> cond_br c, after(fwd), rest(fwd) *)
  (match Ircore.block_last_op before_block with
  | Some cond when cond.Ircore.op_name = Scf.condition_op ->
    let crw = Rewriter.create ~ip:(Builder.Before cond) () in
    let c = Ircore.operand ~index:0 cond in
    let fwd = List.tl (Ircore.operands cond) in
    Cf.cond_br crw ~cond:c ~true_dest:after_block ~true_args:fwd
      ~false_dest:rest ~false_args:fwd ();
    Rewriter.erase_op crw cond
  | _ -> failwith "scf.while before-region lacks scf.condition");
  (* body: scf.yield(next...) -> br header(next...) *)
  (match Ircore.block_last_op after_block with
  | Some y when y.Ircore.op_name = Scf.yield_op ->
    let yrw = Rewriter.create ~ip:(Builder.Before y) () in
    Cf.br yrw ~dest:before_block ~args:(Ircore.operands y) ();
    Rewriter.erase_op yrw y
  | _ -> failwith "scf.while after-region lacks scf.yield");
  Rewriter.erase_op rw w

let scf_to_cf rw (o : Ircore.op) =
  if o.Ircore.op_name = Scf.for_op then for_to_cf rw o
  else if o.Ircore.op_name = Scf.while_op then while_to_cf rw o
  else if_to_cf rw o

let run_scf_to_cf _ctx top =
  let pass = "convert-scf-to-cf" in
  (* expand foralls first; an outer forall moves its body, nested foralls
     included, into the new loops *)
  let* () = Pass.convert ~pass [ (Scf.forall_op, forall_to_fors) ] top in
  (* outermost-first conversion (an scf op must live in a CFG-legal region
     before its own body is expanded into blocks); an op left in place (its
     conversion vetoed) is not retried, and what it nests stays too *)
  let is_scf o =
    o.Ircore.op_name = Scf.for_op
    || o.Ircore.op_name = Scf.if_op
    || o.Ircore.op_name = Scf.while_op
  in
  let rec nested_in_scf o =
    match Ircore.parent_op o with
    | None -> false
    | Some p -> is_scf p || nested_in_scf p
  in
  let rw = Rewriter.create () in
  let kept = Hashtbl.create 8 in
  let rec convert_all () =
    let targets =
      Symbol.collect top ~f:(fun o ->
          is_scf o
          && (not (Hashtbl.mem kept o.Ircore.op_id))
          && not (nested_in_scf o))
    in
    if targets <> [] then begin
      List.iter
        (fun o ->
          if not (Pass.convert_op ~pass rw scf_to_cf o) then
            Hashtbl.replace kept o.Ircore.op_id ())
        targets;
      convert_all ()
    end
  in
  convert_all ();
  Ok ()

(* ------------------------------------------------------------------ *)
(* ② convert-arith-to-llvm                                             *)
(* ------------------------------------------------------------------ *)

let llvm_int_typ = function
  | Typ.Index -> Typ.i64
  | Typ.Integer n -> Typ.Integer n
  | t -> t

(* each arith op becomes its LLVM counterpart, index operands and results
   retyped to i64 *)
let arith_lowering : Pass.table =
  let to_llvm name rw op =
    let retype = List.map (fun v -> llvm_int_typ (Ircore.value_typ v)) in
    replace_as rw op ~name
      ~operand_types:(retype (Ircore.operands op))
      ~result_types:(retype (Ircore.results op))
  in
  List.map
    (fun (arith, llvm) -> (arith, to_llvm llvm))
    [
      ("arith.constant", "llvm.mlir.constant"); ("arith.addi", "llvm.add");
      ("arith.subi", "llvm.sub"); ("arith.muli", "llvm.mul");
      ("arith.divsi", "llvm.sdiv"); ("arith.divui", "llvm.udiv");
      ("arith.remsi", "llvm.srem"); ("arith.remui", "llvm.urem");
      ("arith.andi", "llvm.and"); ("arith.ori", "llvm.or");
      ("arith.xori", "llvm.xor"); ("arith.shli", "llvm.shl");
      ("arith.shrsi", "llvm.ashr"); ("arith.addf", "llvm.fadd");
      ("arith.subf", "llvm.fsub"); ("arith.mulf", "llvm.fmul");
      ("arith.divf", "llvm.fdiv"); ("arith.maximumf", "llvm.fmax");
      ("arith.minimumf", "llvm.fmin"); ("arith.maxsi", "llvm.smax");
      ("arith.minsi", "llvm.smin"); ("arith.cmpi", "llvm.icmp");
      ("arith.cmpf", "llvm.fcmp"); ("arith.select", "llvm.select");
      ("arith.sitofp", "llvm.sitofp"); ("arith.fptosi", "llvm.fptosi");
      ("arith.extf", "llvm.fpext"); ("arith.truncf", "llvm.fptrunc");
      ("arith.index_cast", "llvm.bitcast"); ("arith.extsi", "llvm.bitcast");
      ("arith.extui", "llvm.bitcast"); ("arith.trunci", "llvm.bitcast");
      ("arith.bitcast", "llvm.bitcast");
    ]

(* ------------------------------------------------------------------ *)
(* ③ convert-cf-to-llvm                                                *)
(* ------------------------------------------------------------------ *)

let cf_lowering : Pass.table =
  let to_llvm name rw op =
    let tys = List.map Ircore.value_typ (Ircore.operands op) in
    replace_as rw op ~name ~operand_types:tys ~result_types:[]
  in
  [
    (Cf.br_op, to_llvm "llvm.br");
    (Cf.cond_br_op, to_llvm "llvm.cond_br");
    (Cf.switch_op, to_llvm "llvm.switch");
  ]

(* ------------------------------------------------------------------ *)
(* ④ convert-func-to-llvm                                              *)
(* ------------------------------------------------------------------ *)

let llvm_typ = function
  | Typ.Index -> Typ.i64
  | Typ.Memref _ | Typ.Unranked_memref _ -> Typ.llvm_ptr
  | t -> t

(** Retype the arguments of [block] with [llvm_typ], inserting cast-backs at
    the block start and adapting the matching operands of all predecessor
    branches in [func] — the signature-conversion step of MLIR's dialect
    conversion framework. *)
let convert_block_signature func block =
  let brw =
    match Ircore.block_first_op block with
    | Some first -> Rewriter.create ~ip:(Builder.Before first) ()
    | None -> Rewriter.create ~ip:(Builder.At_end block) ()
  in
  let changed = ref [] in
  List.iteri
    (fun i arg ->
      let old_t = Ircore.value_typ arg in
      let new_t = llvm_typ old_t in
      if not (Typ.equal old_t new_t) then begin
        arg.Ircore.v_typ <- new_t;
        let cast = Builtin.cast brw arg old_t in
        List.iter
          (fun { Ircore.u_op; u_index; _ } ->
            if not (u_op == Option.get (Ircore.defining_op cast)) then
              Ircore.set_operand u_op u_index cast)
          (Ircore.value_uses arg);
        changed := (i, new_t) :: !changed
      end)
    (Ircore.block_args block);
  if !changed <> [] then
    (* adapt predecessor branch operands feeding the retyped args *)
    Ircore.walk
      (fun term ->
        Array.iteri
          (fun succ_idx succ ->
            if succ == block then begin
              let base =
                match term.Ircore.op_name with
                | "cf.br" | "llvm.br" -> 0
                | "cf.cond_br" | "llvm.cond_br" ->
                  let _, nt, _ = Cf.cond_segments term in
                  if succ_idx = 0 then 1 else 1 + nt
                | _ -> 0
              in
              let trw = Rewriter.create ~ip:(Builder.Before term) () in
              List.iter
                (fun (arg_idx, new_t) ->
                  let op_idx = base + arg_idx in
                  if op_idx < Ircore.num_operands term then begin
                    let v = Ircore.operand ~index:op_idx term in
                    if not (Typ.equal (Ircore.value_typ v) new_t) then
                      Ircore.set_operand term op_idx (adapt trw v new_t)
                  end)
                !changed
            end)
          term.Ircore.successors)
      func

let func_to_llvm rw fop =
  (* convert every block signature in the function body *)
  List.iter
    (fun r -> List.iter (convert_block_signature fop) (Ircore.region_blocks r))
    fop.Ircore.regions;
  (* rename the op *)
  let ins, outs =
    match Func.function_type fop with Some (i, o) -> (i, o) | None -> ([], [])
  in
  let new_type = Typ.Func (List.map llvm_typ ins, List.map llvm_typ outs) in
  Rewriter.set_ip rw (Builder.Before fop);
  let regions = fop.Ircore.regions in
  fop.Ircore.regions <- [];
  Rewriter.build0 rw ~operands:[||] ~regions
    ~attrs:(Attr.set "function_type" (Attr.Type new_type) fop.Ircore.attrs)
    Llvm.func_op;
  Rewriter.erase_op rw fop

let func_lowering : Pass.table =
  let retype = List.map (fun v -> llvm_typ (Ircore.value_typ v)) in
  [
    (Func.func_op, func_to_llvm);
    ( Func.return_op,
      fun rw op ->
        let tys = List.map Ircore.value_typ (Ircore.operands op) in
        replace_as rw op ~name:Llvm.return_op ~operand_types:tys
          ~result_types:[] );
    ( Func.call_op,
      fun rw op ->
        replace_as rw op ~name:Llvm.call_op
          ~operand_types:(retype (Ircore.operands op))
          ~result_types:(retype (Ircore.results op)) );
  ]

(* ------------------------------------------------------------------ *)
(* ⑤ expand-strided-metadata                                           *)
(* ------------------------------------------------------------------ *)

(** Rewrite non-trivial [memref.subview]s into [extract_strided_metadata] +
    (affine) offset arithmetic + [reinterpret_cast], leaving only *trivial*
    accesses behind — the paper's Figure 3/4 post-condition
    [memref.subview.constr]. Offsets that are fully static fold to
    constants; otherwise an [affine.apply] is introduced (the op that later
    breaks the naive pipeline). *)
let expand_subview rw op =
  let has_dynamic_sizes =
    List.exists
      (fun s -> s = Memref.dynamic_sentinel)
      (Memref.static_sizes op)
  in
  if (not (Memref.subview_is_trivial op)) && not has_dynamic_sizes then begin
    Rewriter.set_ip rw (Builder.Before op);
    let src = Ircore.operand ~index:0 op in
    let rank = List.length (Memref.static_sizes op) in
    (* source metadata *)
    let src_typ = Ircore.value_typ src in
    let base_typ =
      match src_typ with
      | Typ.Memref (_, elt, _) -> Typ.Memref ([], elt, Typ.Identity)
      | t -> t
    in
    let meta =
      Rewriter.build rw ~operands:[| src |]
        ~result_types:
          (Array.init (2 + (2 * rank)) (fun i ->
               if i = 0 then base_typ else Typ.index))
        Memref.extract_strided_metadata_op
    in
    let src_offset = Ircore.result ~index:1 meta in
    let src_stride i = Ircore.result ~index:(2 + rank + i) meta in
    (* gather mixed offsets *)
    let statics = Memref.static_offsets op in
    let dynamic_operands =
      (* operands after the source, first segment = offsets *)
      match Ircore.attr op "operand_segment_sizes" with
      | Some (Attr.Int_array [ _; n_off; _; _ ]) ->
        List.filteri
          (fun i _ -> i >= 1 && i < 1 + n_off)
          (Ircore.operands op)
      | _ -> []
    in
    (* offset = src_offset + sum_i off_i * stride_i *)
    let dyn = ref dynamic_operands in
    let take_dyn () =
      match !dyn with
      | v :: rest ->
        dyn := rest;
        v
      | [] -> failwith "subview: missing dynamic offset operand"
    in
    let all_static =
      List.for_all (fun s -> s <> Memref.dynamic_sentinel) statics
    in
    (* [`Static off] keeps the offset in the attribute (no operand, no
       affine op) — this is why the static-offset variant of the Case
       Study 2 program lowers cleanly through the naive pipeline. *)
    let new_offset =
      if all_static then begin
        match src_typ with
        | Typ.Memref (dims, _, Typ.Identity)
          when List.for_all
                 (function Typ.Static _ -> true | _ -> false)
                 dims ->
          let sizes =
            Array.of_list
              (List.map (function Typ.Static n -> n | _ -> 0) dims)
          in
          let strides_arr = Array.make (Array.length sizes) 1 in
          for i = Array.length sizes - 2 downto 0 do
            strides_arr.(i) <- strides_arr.(i + 1) * sizes.(i + 1)
          done;
          let strides = Array.to_list strides_arr in
          let off =
            List.fold_left2 (fun acc o s -> acc + (o * s)) 0 statics strides
          in
          `Static off
        | Typ.Memref (_, _, Typ.Identity)
          when List.for_all (fun s -> s = 0) statics ->
          (* zero offsets into an identity-layout source: offset 0
             regardless of (possibly dynamic) strides *)
          `Static 0
        | _ ->
          (* static relative offsets but dynamic base: affine.apply *)
          let exprs =
            List.mapi
              (fun i o ->
                Affine.Mul (Affine.Sym (i + 1), Affine.Const o))
              statics
          in
          let sum =
            List.fold_left
              (fun acc e -> Affine.Add (acc, e))
              (Affine.Sym 0) exprs
          in
          let map =
            Affine.make_map ~num_dims:0
              ~num_syms:(1 + List.length statics)
              [ sum ]
          in
          `Dynamic
            (Affine_ops.apply rw map
               (src_offset :: List.mapi (fun i _ -> src_stride i) statics))
      end
      else begin
        (* dynamic offsets: offset = src_offset + Σ o_i * stride_i *)
        let syms = ref [ src_offset ] in
        let exprs =
          List.mapi
            (fun i s ->
              let o_sym =
                if s = Memref.dynamic_sentinel then begin
                  let v = take_dyn () in
                  syms := !syms @ [ v ];
                  Affine.Sym (List.length !syms - 1)
                end
                else Affine.Const s
              in
              syms := !syms @ [ src_stride i ];
              Affine.Mul (o_sym, Affine.Sym (List.length !syms - 1)))
            statics
        in
        let sum =
          List.fold_left (fun acc e -> Affine.Add (acc, e)) (Affine.Sym 0) exprs
        in
        let map =
          Affine.make_map ~num_dims:0 ~num_syms:(List.length !syms) [ sum ]
        in
        `Dynamic (Affine_ops.apply rw map !syms)
      end
    in
    (* build the reinterpret_cast with the computed offset and the
       subview's sizes and *final* strides (relative stride times source
       stride, which may require metadata values for dynamic sources) *)
    let sizes = Memref.static_sizes op in
    let rel_strides = Memref.static_strides op in
    let base = Ircore.result ~index:0 meta in
    (* statically-known source strides, when the source is a fully
       static identity memref *)
    let src_static_strides =
      match src_typ with
      | Typ.Memref (dims, _, Typ.Identity)
        when List.for_all (function Typ.Static _ -> true | _ -> false) dims
        ->
        let ds = List.map (function Typ.Static n -> n | _ -> 0) dims in
        let arr = Array.make (List.length ds) 1 in
        let szs = Array.of_list ds in
        for i = Array.length arr - 2 downto 0 do
          arr.(i) <- arr.(i + 1) * szs.(i + 1)
        done;
        Array.to_list (Array.map Option.some arr)
      | _ -> List.map (fun _ -> None) rel_strides
    in
    let final_strides =
      List.mapi
        (fun i rel ->
          let src = List.nth src_static_strides i in
          match (rel, src) with
          | rel, Some s when rel <> Memref.dynamic_sentinel ->
            `Static (rel * s)
          | 1, None -> `Dynamic (src_stride i)
          | rel, None when rel <> Memref.dynamic_sentinel ->
            let map =
              Affine.make_map ~num_dims:0 ~num_syms:1
                [ Affine.Mul (Affine.Sym 0, Affine.Const rel) ]
            in
            `Dynamic (Affine_ops.apply rw map [ src_stride i ])
          | _, _ ->
            let map =
              Affine.make_map ~num_dims:0 ~num_syms:2
                [ Affine.Mul (Affine.Sym 0, Affine.Sym 1) ]
            in
            `Dynamic
              (Affine_ops.apply rw map [ src_stride i; take_dyn () ]))
        rel_strides
    in
    let offset_operands, offset_attr =
      match new_offset with
      | `Static off -> ([], [ off ])
      | `Dynamic v -> ([ v ], [ Memref.dynamic_sentinel ])
    in
    let stride_operands =
      List.filter_map
        (function `Dynamic v -> Some v | `Static _ -> None)
        final_strides
    in
    let stride_attr =
      List.map
        (function `Static s -> s | `Dynamic _ -> Memref.dynamic_sentinel)
        final_strides
    in
    let new_op =
      Rewriter.build rw
        ~operands:(Array.of_list ((base :: offset_operands) @ stride_operands))
        ~result_types:[| Ircore.value_typ (Ircore.result op) |]
        ~attrs:
          [
            ("static_offsets", Attr.Int_array offset_attr);
            ("static_sizes", Attr.Int_array sizes);
            ("static_strides", Attr.Int_array stride_attr);
          ]
        Memref.reinterpret_cast_op
    in
    Rewriter.replace_op rw op ~with_:[ Ircore.result new_op ]
  end

(* ------------------------------------------------------------------ *)
(* ⑥ finalize-memref-to-llvm                                           *)
(* ------------------------------------------------------------------ *)

let ptr = Typ.llvm_ptr

(* llvm.alloca takes an explicit element count: the product of the static
   extents times any dynamic-extent operands. The element width rides along
   as an attribute so downstream consumers (the interpreter, the cache
   model) know the allocation size. *)
let alloc_to_llvm rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let res = Ircore.result op in
  let static_count, elt =
    match Ircore.value_typ res with
    | Typ.Memref (dims, elt, _) ->
      ( List.fold_left
          (fun acc d ->
            match d with Typ.Static n -> acc * n | Typ.Dynamic -> acc)
          1 dims,
        elt )
    | _ -> (1, Typ.i64)
  in
  let size =
    Rewriter.build1 rw ~operands:[||] ~result_types:[| Typ.i64 |]
      ~attrs:[ ("value", Attr.Int (static_count, Typ.i64)) ]
      Llvm.constant_op
  in
  let size =
    List.fold_left
      (fun acc v ->
        let v = adapt rw v Typ.i64 in
        Rewriter.build1 rw ~operands:[| acc; v |] ~result_types:[| Typ.i64 |]
          "llvm.mul")
      size (Ircore.operands op)
  in
  let elem_bytes =
    match elt with
    | Typ.Float Typ.F64 | Typ.Index -> 8
    | Typ.Float _ -> 4
    | Typ.Integer n -> max 1 (n / 8)
    | _ -> 8
  in
  let a =
    Rewriter.build1 rw ~operands:[| size |]
      ~attrs:[ ("elem_bytes", Attr.Int (elem_bytes, Typ.i64)) ]
      ~result_types:[| ptr |] Llvm.alloca_op
  in
  let back = adapt rw a (Ircore.value_typ res) in
  Rewriter.replace_op rw op ~with_:[ back ]

let dealloc_to_llvm rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let m = adapt rw (Ircore.operand ~index:0 op) ptr in
  Rewriter.build0 rw ~operands:[| m |]
    ~attrs:[ ("callee", Attr.Symbol_ref ("free", [])) ]
    Llvm.call_op;
  Rewriter.erase_op rw op

let load_to_llvm rw op =
  let tys =
    ptr :: List.map (fun _ -> Typ.i64) (List.tl (Ircore.operands op))
  in
  Rewriter.set_ip rw (Builder.Before op);
  let operands =
    List.map2 (fun v t -> adapt rw v t) (Ircore.operands op) tys
  in
  let gep =
    Rewriter.build1 rw ~operands:(Array.of_list operands)
      ~result_types:[| ptr |] Llvm.getelementptr_op
  in
  let loaded =
    Rewriter.build1 rw ~operands:[| gep |]
      ~result_types:[| llvm_typ (Ircore.value_typ (Ircore.result op)) |]
      Llvm.load_op
  in
  let back = adapt rw loaded (Ircore.value_typ (Ircore.result op)) in
  Rewriter.replace_op rw op ~with_:[ back ]

let store_to_llvm rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let v = Ircore.operand ~index:0 op in
  let m = adapt rw (Ircore.operand ~index:1 op) ptr in
  let idx =
    List.map
      (fun x -> adapt rw x Typ.i64)
      (List.filteri (fun i _ -> i >= 2) (Ircore.operands op))
  in
  let gep =
    Rewriter.build1 rw ~operands:(Array.of_list (m :: idx))
      ~result_types:[| ptr |] Llvm.getelementptr_op
  in
  let v' = adapt rw v (llvm_typ (Ircore.value_typ v)) in
  Rewriter.build0 rw ~operands:[| v'; gep |] Llvm.store_op;
  Rewriter.erase_op rw op

(* reinterpret_cast / cast: address computation, where dynamic offsets come
   from the operands and static non-zero offsets materialize as constants *)
let view_to_llvm rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let m = adapt rw (Ircore.operand ~index:0 op) ptr in
  let extra =
    List.map (fun v -> adapt rw v Typ.i64) (List.tl (Ircore.operands op))
  in
  let extra =
    match Ircore.attr op "static_offsets" with
    | Some (Attr.Int_array [ off ])
      when off <> 0 && off <> Memref.dynamic_sentinel ->
      Rewriter.build1 rw ~operands:[||] ~result_types:[| Typ.i64 |]
        ~attrs:[ ("value", Attr.Int (off, Typ.i64)) ]
        Llvm.constant_op
      :: extra
    | _ -> extra
  in
  let g =
    if extra = [] then m
    else
      Rewriter.build1 rw ~operands:(Array.of_list (m :: extra))
        ~result_types:[| ptr |] Llvm.getelementptr_op
  in
  let back = adapt rw g (Ircore.value_typ (Ircore.result op)) in
  Rewriter.replace_op rw op ~with_:[ back ]

(* only lowerable when consumers are gone; turn results into
   ptrtoint/constants *)
let metadata_to_llvm rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let m = adapt rw (Ircore.operand ~index:0 op) ptr in
  let replacements =
    List.mapi
      (fun i r ->
        if i = 0 then adapt rw m (Ircore.value_typ r)
        else begin
          let v =
            Rewriter.build1 rw ~operands:[| m |] ~result_types:[| Typ.i64 |]
              Llvm.ptrtoint_op
          in
          adapt rw v (Ircore.value_typ r)
        end)
      (Ircore.results op)
  in
  Rewriter.replace_op rw op ~with_:replacements

(* extract_aligned_pointer_as_index / dim: the pointer as an integer *)
let ptrtoint_to_llvm rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let m = adapt rw (Ircore.operand ~index:0 op) ptr in
  let v =
    Rewriter.build1 rw ~operands:[| m |] ~result_types:[| Typ.i64 |]
      Llvm.ptrtoint_op
  in
  let back = adapt rw v (Ircore.value_typ (Ircore.result op)) in
  Rewriter.replace_op rw op ~with_:[ back ]

(* only trivial subviews lower; the rest are expand-strided-metadata's *)
let subview_to_llvm rw op =
  if Memref.subview_is_trivial op then begin
    Rewriter.set_ip rw (Builder.Before op);
    let m = adapt rw (Ircore.operand ~index:0 op) ptr in
    let back = adapt rw m (Ircore.value_typ (Ircore.result op)) in
    Rewriter.replace_op rw op ~with_:[ back ]
  end

let memref_lowering : Pass.table =
  [
    ("memref.alloc", alloc_to_llvm); ("memref.alloca", alloc_to_llvm);
    ("memref.dealloc", dealloc_to_llvm); ("memref.load", load_to_llvm);
    ("memref.store", store_to_llvm);
    ("memref.reinterpret_cast", view_to_llvm); ("memref.cast", view_to_llvm);
    ("memref.extract_strided_metadata", metadata_to_llvm);
    ("memref.extract_aligned_pointer_as_index", ptrtoint_to_llvm);
    ("memref.dim", ptrtoint_to_llvm); (Memref.subview_op, subview_to_llvm);
  ]

(* ------------------------------------------------------------------ *)
(* ⑦ reconcile-unrealized-casts                                        *)
(* ------------------------------------------------------------------ *)

(* cancel one cast: identity casts and A -> B -> A round trips fold to
   their source, unused casts go *)
let reconcile_cast changed rw op =
  let operand = Ircore.operand ~index:0 op in
  let result = Ircore.result op in
  if Typ.equal (Ircore.value_typ operand) (Ircore.value_typ result) then begin
    Stats.incr stat_casts_reconciled;
    Rewriter.replace_op rw op ~with_:[ operand ];
    changed := true
  end
  else if not (Ircore.has_uses result) then begin
    Stats.incr stat_casts_reconciled;
    Rewriter.erase_op rw op;
    changed := true
  end
  else
    match Ircore.defining_op operand with
    | Some def
      when def.Ircore.op_name = Builtin.cast_op
           && Typ.equal
                (Ircore.value_typ (Ircore.operand ~index:0 def))
                (Ircore.value_typ result) ->
      (* cast(cast(x : A -> B) : B -> A) => x *)
      Stats.incr stat_casts_reconciled;
      Rewriter.replace_op rw op ~with_:[ Ircore.operand ~index:0 def ];
      changed := true
    | _ -> ()

let run_reconcile_unrealized_casts _ctx top =
  let changed = ref false in
  let table = [ (Builtin.cast_op, reconcile_cast changed) ] in
  (* sweep to a fixpoint: a cancelled pair can leave its inner cast dead *)
  let rec sweep () =
    changed := false;
    let* () = Pass.convert ~pass:"reconcile-unrealized-casts" table top in
    if !changed then sweep () else Ok ()
  in
  let* () = sweep () in
  let remaining = Symbol.collect_ops ~op_name:Builtin.cast_op top in
  match remaining with
  | [] -> Ok ()
  | first :: _ ->
    if Action.enabled () then
      Action.remark
        (Remark.missed ~pass:"reconcile-unrealized-casts"
           ~loc:first.Ircore.op_loc
           ~args:[ ("remaining", Remark.Int (List.length remaining)) ]
           "declined to erase %d live unrealized casts bridging unconverted \
            types"
           (List.length remaining));
    Diag.fail ~loc:first.Ircore.op_loc
      ~notes:
        (List.map
           (fun (op : Ircore.op) ->
             Diag.note ~loc:op.Ircore.op_loc "unresolved cast here")
           remaining)
      "failed to legalize operation 'builtin.unrealized_conversion_cast' \
       that was explicitly marked illegal (%d remaining)"
      (List.length remaining)

(* ------------------------------------------------------------------ *)
(* lower-affine                                                        *)
(* ------------------------------------------------------------------ *)

let rec emit_affine_expr rw ~dims ~syms (e : Affine.expr) =
  match e with
  | Affine.Const c -> Dutil.const_int rw c
  | Affine.Dim i -> List.nth dims i
  | Affine.Sym i -> List.nth syms i
  | Affine.Add (a, b) ->
    Arith.addi rw (emit_affine_expr rw ~dims ~syms a)
      (emit_affine_expr rw ~dims ~syms b)
  | Affine.Mul (a, b) ->
    Arith.muli rw (emit_affine_expr rw ~dims ~syms a)
      (emit_affine_expr rw ~dims ~syms b)
  | Affine.Mod (a, b) ->
    Arith.remsi rw (emit_affine_expr rw ~dims ~syms a)
      (emit_affine_expr rw ~dims ~syms b)
  | Affine.Floordiv (a, b) ->
    Arith.divsi rw (emit_affine_expr rw ~dims ~syms a)
      (emit_affine_expr rw ~dims ~syms b)
  | Affine.Ceildiv (a, b) ->
    (* (a + b - 1) / b for non-negative a *)
    let bv = emit_affine_expr rw ~dims ~syms b in
    let av = emit_affine_expr rw ~dims ~syms a in
    let one = Dutil.const_int rw 1 in
    Arith.divsi rw (Arith.subi rw (Arith.addi rw av bv) one) bv

let affine_to_arith rw op =
  match Affine_ops.map_of op with
  | None -> ()
  | Some map ->
    Rewriter.set_ip rw (Builder.Before op);
    let operands = Ircore.operands op in
    let dims = List.filteri (fun i _ -> i < map.Affine.num_dims) operands in
    let syms = List.filteri (fun i _ -> i >= map.Affine.num_dims) operands in
    let values = List.map (emit_affine_expr rw ~dims ~syms) map.Affine.exprs in
    let combined =
      match (op.Ircore.op_name, values) with
      | _, [ v ] -> v
      | "affine.min", v :: rest ->
        List.fold_left
          (fun acc x ->
            Rewriter.build1 rw ~operands:[| acc; x |]
              ~result_types:[| Typ.index |] "arith.minsi")
          v rest
      | "affine.max", v :: rest ->
        List.fold_left
          (fun acc x ->
            Rewriter.build1 rw ~operands:[| acc; x |]
              ~result_types:[| Typ.index |] "arith.maxsi")
          v rest
      | _, v :: _ -> v
      | _, [] -> failwith "affine op with empty map"
    in
    Rewriter.replace_op rw op ~with_:[ combined ]

let affine_lowering : Pass.table =
  List.map
    (fun name -> (name, affine_to_arith))
    [ Affine_ops.apply_op; Affine_ops.min_op; Affine_ops.max_op ]

(* ------------------------------------------------------------------ *)
(* Registration with pre-/post-conditions (Table 2)                    *)
(* ------------------------------------------------------------------ *)

let o = Opset.exact
let d = Opset.dialect
let cast_elem = o Builtin.cast_op

let register () =
  Pass.register
    (Pass.make ~name:"convert-scf-to-cf"
       ~summary:"lower structured control flow to basic blocks and branches"
       ~pre:[ d "scf" ]
       ~post:
         [
           o "cf.br"; o "cf.cond_br"; o "arith.addi"; o "arith.cmpi";
           o "arith.constant"; cast_elem;
         ]
       run_scf_to_cf);
  Pass.register
    (Pass.conversion ~name:"convert-arith-to-llvm"
       ~summary:"lower arith ops to the LLVM dialect" ~pre:[ d "arith" ]
       ~post:
         [
           o "llvm.add"; o "llvm.sub"; o "llvm.mul"; o "llvm.sdiv";
           o "llvm.udiv"; o "llvm.srem"; o "llvm.urem"; o "llvm.and";
           o "llvm.or"; o "llvm.xor"; o "llvm.shl"; o "llvm.ashr";
           o "llvm.fadd"; o "llvm.fsub"; o "llvm.fmul"; o "llvm.fdiv";
           o "llvm.fmax"; o "llvm.fmin"; o "llvm.smax"; o "llvm.smin";
           o "llvm.icmp"; o "llvm.fcmp"; o "llvm.select"; o "llvm.sitofp";
           o "llvm.fptosi"; o "llvm.fpext"; o "llvm.fptrunc";
           o "llvm.bitcast"; o "llvm.mlir.constant"; cast_elem;
         ]
       arith_lowering);
  Pass.register
    (Pass.conversion ~name:"convert-cf-to-llvm"
       ~summary:"lower cf branches to LLVM branches" ~pre:[ d "cf" ]
       ~post:
         [ o "llvm.br"; o "llvm.cond_br"; o "llvm.switch"; cast_elem ]
       cf_lowering);
  Pass.register
    (Pass.conversion ~name:"convert-func-to-llvm"
       ~summary:"lower functions to LLVM functions" ~pre:[ d "func" ]
       ~post:
         [
           o "llvm.func"; o "llvm.return"; o "llvm.call"; cast_elem;
         ]
       func_lowering);
  Pass.register
    (Pass.conversion ~name:"expand-strided-metadata"
       ~summary:"externalize non-trivial addressing from memrefs"
       (* the paper's Figure 4 declares the coarse {memref.*}; we declare the
          precise consumed set so the *dynamic* condition checker (Section
          3.3) accepts the accurate implementation *)
       ~pre:[ o "memref.subview" ]
       ~post:
         [
           Opset.constrained "memref.subview" "constr";
           o "memref.extract_strided_metadata";
           o "memref.extract_aligned_pointer_as_index";
           o "memref.reinterpret_cast"; o "affine.apply"; o "affine.min";
           o "arith.constant";
         ]
       [ (Memref.subview_op, expand_subview) ]);
  Pass.register
    (Pass.conversion ~name:"finalize-memref-to-llvm"
       ~summary:"lower trivially-indexed memrefs to LLVM pointers"
       ~pre:
         [
           Opset.constrained "memref.subview" "constr";
           o "memref.extract_strided_metadata";
           o "memref.extract_aligned_pointer_as_index";
           o "memref.reinterpret_cast"; o "memref.alloc"; o "memref.alloca";
           o "memref.dealloc"; o "memref.load"; o "memref.store";
           o "memref.cast"; o "memref.dim";
         ]
       ~post:
         [
           o "llvm.alloca"; o "llvm.call"; o "llvm.load"; o "llvm.store";
           o "llvm.getelementptr"; o "llvm.ptrtoint"; o "llvm.mlir.constant";
           o "llvm.mul"; cast_elem;
         ]
       memref_lowering);
  Pass.register
    (Pass.make ~name:"reconcile-unrealized-casts"
       ~summary:"cancel temporary conversion casts" ~pre:[ cast_elem ]
       ~post:[]
       run_reconcile_unrealized_casts);
  Pass.register
    (Pass.conversion ~name:"lower-affine"
       ~summary:"lower affine ops to arith"
       ~pre:[ d "affine" ]
       ~post:
         [
           o "arith.addi"; o "arith.muli"; o "arith.remsi"; o "arith.divsi";
           o "arith.minsi"; o "arith.maxsi"; o "arith.subi"; o "arith.constant";
         ]
       affine_lowering)
