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
  ignore (Greedy.apply ~config:Dutil.greedy_config ctx ~patterns top);
  Ok ()

(* ------------------------------------------------------------------ *)
(* CSE                                                                 *)
(* ------------------------------------------------------------------ *)

(** Key identifying structurally equal pure ops within one block scope:
    op name, operand ids, attributes and result types. Attributes compare
    with {!Attr.equal}, so [0.0] and [-0.0] stay apart; result types keep
    ops that differ only in type apart. *)
module Cse_key = Hashtbl.Make (struct
  type t = string * int list * Attr.dict * Typ.t list

  let equal (n, vs, attrs, tys) (n', vs', attrs', tys') =
    String.equal n n'
    && List.equal Int.equal vs vs'
    && List.equal
         (fun (k, a) (k', a') -> String.equal k k' && Attr.equal a a')
         attrs attrs'
    && List.equal Typ.equal tys tys'

  let hash (n, vs, attrs, tys) =
    Hashtbl.hash (n, vs, List.map (fun (k, a) -> (k, Attr.hash a)) attrs, tys)
end)

let cse_key op =
  ( op.Ircore.op_name,
    List.map (fun v -> v.Ircore.v_id) (Ircore.operands op),
    op.Ircore.attrs,
    List.map Ircore.value_typ (Ircore.results op) )

(** Dominance-aware CSE: within each region, blocks are processed in reverse
    postorder and an op may reuse an equivalent op from any *dominating*
    block (looked up along the immediate-dominator chain). *)
let run_cse ctx top =
  let rw = Rewriter.create () in
  let rec do_region r =
    let doms = Dominance.compute r in
    let tables = Hashtbl.create 8 in
    let table_of b =
      match Hashtbl.find_opt tables b.Ircore.b_id with
      | Some t -> t
      | None ->
        let t = Cse_key.create 16 in
        Hashtbl.replace tables b.Ircore.b_id t;
        t
    in
    let rec lookup b key =
      match Cse_key.find_opt (table_of b) key with
      | Some op -> Some op
      | None -> (
        match Dominance.idom_of doms b with
        | Some d -> lookup d key
        | None -> None)
    in
    List.iter
      (fun b ->
        List.iter
          (fun op ->
            List.iter
              (fun nested -> do_region nested)
              op.Ircore.regions;
            if
              Context.is_pure ctx op
              && op.Ircore.regions = []
              && Ircore.num_results op > 0
            then begin
              let key = cse_key op in
              match lookup b key with
              | Some prior ->
                Rewriter.replace_op rw op ~with_:(Ircore.results prior)
              | None -> Cse_key.replace (table_of b) key op
            end)
          (Ircore.block_ops b))
      (Dominance.reverse_postorder r)
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

let run_dce ctx top =
  let rw = Rewriter.create () in
  let changed = ref true in
  while !changed do
    changed := false;
    let dead = ref [] in
    Ircore.walk_op top ~post:(fun op ->
        if
          (not (op == top))
          && Context.is_pure ctx op
          && (not (Context.op_has_trait ctx op Context.Terminator))
          && List.for_all
               (fun r -> not (Ircore.has_uses r))
               (Ircore.results op)
        then dead := op :: !dead);
    List.iter
      (fun op ->
        if Ircore.op_parent op <> None then begin
          Rewriter.erase_op rw op;
          changed := true
        end)
      !dead
  done;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Symbol DCE: drop unreferenced private functions                     *)
(* ------------------------------------------------------------------ *)

let run_symbol_dce _ctx top =
  let rw = Rewriter.create () in
  let referenced = Hashtbl.create 16 in
  Ircore.walk_op top ~pre:(fun op ->
      List.iter
        (fun (_, a) ->
          match a with
          | Attr.Symbol_ref (s, _) -> Hashtbl.replace referenced s ()
          | _ -> ())
        op.Ircore.attrs);
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
