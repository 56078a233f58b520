(** General transformation passes: canonicalize, CSE, LICM, DCE, inline. *)

open Ir
open Dialects

(* ------------------------------------------------------------------ *)
(* canonicalize                                                        *)
(* ------------------------------------------------------------------ *)

(** All canonicalization patterns registered by op definitions in [ctx]. *)
let canonicalization_patterns ctx =
  let names = Hashtbl.create 16 in
  List.iter
    (fun dialect ->
      List.iter
        (fun op_name ->
          match Context.lookup ctx op_name with
          | Some def ->
            List.iter
              (fun pname -> Hashtbl.replace names pname ())
              def.Context.d_canonicalizers
          | None -> ())
        (Context.dialect_ops ctx dialect))
    (Context.registered_dialects ctx);
  Hashtbl.fold
    (fun name () acc ->
      match Pattern.lookup name with Some p -> p :: acc | None -> acc)
    names []

(** The canonicalization pattern set, frozen: root-indexed and deduped by
    name ({!Frozen_patterns.freeze} drops duplicate registrations). *)
let frozen_canonicalization_patterns ctx =
  Frozen_patterns.freeze
    (canonicalization_patterns ctx
    (* always include the arith simplifications *)
    @ Arith.canonicalization_patterns ())

let run_canonicalize ctx top =
  let patterns = frozen_canonicalization_patterns ctx in
  ignore
    (Greedy.apply ~materialize:Dutil.materialize_arith_constant ctx ~patterns
       top);
  Ok ()

(* ------------------------------------------------------------------ *)
(* CSE                                                                 *)
(* ------------------------------------------------------------------ *)

(** Key identifying structurally equal pure ops within one block scope:
    op name, operand ids, attributes and result types. Attributes compare
    with {!Attr.equal}, so [0.0] and [-0.0] stay apart; result types keep
    ops that differ only in type apart. The key holds the op for its name,
    attributes and result types, which CSE never edits, and a copy of its
    operands, which a replacement may retarget; the hash is computed once,
    when the key is made. *)
type cse_key = {
  k_hash : int;
  k_op : Ircore.op;
  k_operands : Ircore.value array;
}

let rec attrs_equal (a : Attr.dict) (b : Attr.dict) =
  match (a, b) with
  | [], [] -> true
  | (k, x) :: a, (k', y) :: b ->
    String.equal k k' && Attr.equal x y && attrs_equal a b
  | _ -> false

let results_typed_alike (a : Ircore.value array) (b : Ircore.value array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : Ircore.value) (y : Ircore.value) ->
         Typ.equal x.Ircore.v_typ y.Ircore.v_typ)
       a b

module Cse_table = Hashtbl.Make (struct
  type t = cse_key

  let equal a b =
    a.k_hash = b.k_hash
    && String.equal a.k_op.Ircore.op_name b.k_op.Ircore.op_name
    && Array.length a.k_operands = Array.length b.k_operands
    && Array.for_all2 ( == ) a.k_operands b.k_operands
    && attrs_equal a.k_op.Ircore.attrs b.k_op.Ircore.attrs
    && results_typed_alike a.k_op.Ircore.results b.k_op.Ircore.results

  let hash k = k.k_hash
end)

let cse_key (op : Ircore.op) =
  let mix h x = (h * 31) + x in
  let h = ref (Hashtbl.hash op.Ircore.op_name) in
  let operands = op.Ircore.operands in
  for i = 0 to Array.length operands - 1 do
    h := mix !h operands.(i).Ircore.v_id
  done;
  let rec attrs h = function
    | [] -> h
    | (k, a) :: rest -> attrs (mix (mix h (Hashtbl.hash k)) (Attr.hash a)) rest
  in
  h := attrs !h op.Ircore.attrs;
  let results = op.Ircore.results in
  for i = 0 to Array.length results - 1 do
    h := mix !h (Hashtbl.hash results.(i).Ircore.v_typ)
  done;
  { k_hash = !h; k_op = op; k_operands = Array.copy operands }

(** Dominance-aware CSE: within each region, blocks are processed in reverse
    postorder and an op may reuse an equivalent op from any *dominating*
    block (looked up along the immediate-dominator chain). *)
let run_cse ctx top =
  let rw = Rewriter.create () in
  (* sized to the block, so it never grows *)
  let new_table b = Cse_table.create (Ircore.block_num_ops b) in
  let rec do_region r =
    match r.Ircore.r_first with
    | None -> ()
    | Some ({ Ircore.b_next = None; _ } as b) ->
      (* a lone block has no dominator to search *)
      let table = new_table b in
      visit_block ~lookup:(Cse_table.find_opt table) table b
    | Some _ ->
      let doms = Dominance.compute r in
      let tables = Util.Itbl.create 8 in
      let table_of b =
        match Util.Itbl.find tables b.Ircore.b_id with
        | t -> t
        | exception Not_found ->
          let t = new_table b in
          Util.Itbl.replace tables b.Ircore.b_id t;
          t
      in
      let rec lookup b key =
        match Cse_table.find (table_of b) key with
        | op -> Some op
        | exception Not_found -> (
          match Dominance.idom_of doms b with
          | Some d -> lookup d key
          | None -> None)
      in
      List.iter
        (fun b -> visit_block ~lookup:(lookup b) (table_of b) b)
        (Dominance.reverse_postorder r)
  (* [lookup] finds an equivalent op in [b] or a block dominating it; a
     pure op without one goes into [b]'s [table] *)
  and visit_block ~lookup table b =
    let rec visit = function
      | None -> ()
      | Some op ->
        (* read before a replacement erases [op] and unlinks it *)
        let next = op.Ircore.op_next in
        List.iter do_region op.Ircore.regions;
        (match Context.lookup ctx op.Ircore.op_name with
        | Some def
          when Context.def_is_pure def op
               && op.Ircore.regions = []
               && Ircore.num_results op > 0 -> (
          let key = cse_key op in
          match lookup key with
          | Some prior ->
            Rewriter.replace_op rw op ~with_:(Ircore.results prior)
          | None -> Cse_table.add table key op)
        | _ -> ());
        visit next
    in
    visit b.Ircore.b_first
  in
  List.iter do_region top.Ircore.regions;
  Ok ()

(* ------------------------------------------------------------------ *)
(* LICM                                                                *)
(* ------------------------------------------------------------------ *)

let run_licm ctx top =
  let rw = Rewriter.create () in
  let loops = Symbol.collect_ops ~op_name:Scf.for_op top in
  List.iter
    (fun loop ->
      if Ircore.op_parent loop <> None then
        ignore (Loop_utils.hoist_invariants ctx rw loop))
    loops;
  Ok ()

(* ------------------------------------------------------------------ *)
(* DCE (standalone)                                                    *)
(* ------------------------------------------------------------------ *)

(* no patterns and no materializer: the greedy driver only erases dead
   ops, re-pushing the defs of an erased op's operands *)
let run_dce ctx top =
  ignore (Greedy.apply ctx ~patterns:Frozen_patterns.empty top);
  Ok ()

(* ------------------------------------------------------------------ *)
(* Symbol DCE: drop unreferenced private functions                     *)
(* ------------------------------------------------------------------ *)

let run_symbol_dce _ctx top =
  let rw = Rewriter.create () in
  let referenced = Hashtbl.create 16 in
  Ircore.walk
    (fun op ->
      List.iter
        (fun (_, a) ->
          match a with
          | Attr.Symbol_ref (s, _) -> Hashtbl.replace referenced s ()
          | _ -> ())
        op.Ircore.attrs)
    top;
  List.iter
    (fun f ->
      let name = Func.name f in
      let private_ =
        match Ircore.attr f "sym_visibility" with
        | Some (Attr.String "private") -> true
        | _ -> false
      in
      if private_ && not (Hashtbl.mem referenced name) then
        Rewriter.erase_op rw f)
    (Symbol.collect_ops ~op_name:Func.func_op top);
  Ok ()

let register () =
  Pass.register
    (Pass.make ~name:"canonicalize"
       ~summary:"greedy canonicalization and folding" ~function_parallel:true
       run_canonicalize);
  Pass.register
    (Pass.make ~name:"cse" ~summary:"common subexpression elimination"
       ~function_parallel:true run_cse);
  Pass.register
    (Pass.make ~name:"licm" ~summary:"loop-invariant code motion"
       ~pre:[ Opset.exact "scf.for" ]
       ~post:[] ~function_parallel:true run_licm);
  Pass.register
    (Pass.make ~name:"dce" ~summary:"dead code elimination"
       ~function_parallel:true run_dce);
  Pass.register
    (Pass.make ~name:"symbol-dce" ~summary:"drop dead private symbols"
       run_symbol_dce)
