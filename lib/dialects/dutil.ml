(** Shared helpers for dialect definitions, including the arith constant
    materializer that greedy folding builds its results with. *)

open Ir

let ( let* ) = Result.bind

(** A rewriter with no listeners, for plain IR construction. *)
let rw_at_end block = Rewriter.create ~ip:(Builder.At_end block) ()
let rw_detached () = Rewriter.create ()

(** Element type of [t] if shaped, [t] itself otherwise. *)
let scalar_of t = Option.value ~default:t (Typ.element_type t)

(** Register a pure binary elementwise op with a folder over integer or float
    constants. *)
let register_binary ctx ?(traits = []) ?fold_int ?fold_float name =
  let fold (_op : Ircore.op) (operand_attrs : Attr.t option list) =
    match operand_attrs with
    | [ Some (Attr.Int (a, t)); Some (Attr.Int (b, _)) ] ->
      Option.map (fun f -> [ Attr.Int (f a b, t) ]) fold_int
    | [ Some (Attr.Float (a, t)); Some (Attr.Float (b, _)) ] ->
      Option.map (fun f -> [ Attr.Float (f a b, t) ]) fold_float
    | _ -> None
  in
  (* guard fold against division by zero etc. *)
  let fold op attrs = try fold op attrs with Division_by_zero -> None in
  Context.register_op ctx name
    ~traits:([ Context.Pure; Context.Same_operands_and_result_type ] @ traits)
    ~verify:(Verifier.all [ Verifier.expect_operands 2; Verifier.expect_results 1 ])
    ~interfaces:(Util.Univ.add Context.folder_key { Context.fold } Util.Univ.empty)

(** Build an [arith.constant]. *)
let const_int rw ?(typ = Typ.index) v =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| typ |]
    ~attrs:[ ("value", Attr.Int (v, typ)) ]
    "arith.constant"

let const_float rw ?(typ = Typ.f32) v =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| typ |]
    ~attrs:[ ("value", Attr.Float (v, typ)) ]
    "arith.constant"

(** Materialize-constant hook for greedy folding ([Greedy.apply
    ~materialize]): builds [arith.constant]. *)
let materialize_arith_constant rw (attr : Attr.t) (t : Typ.t) =
  match attr with
  | Attr.Int _ | Attr.Float _ | Attr.Bool _ ->
    Some
      (Rewriter.build1 rw ~operands:[||] ~result_types:[| t |]
         ~attrs:[ ("value", attr) ] "arith.constant")
  | _ -> None

let str_attr_of op name =
  match Ircore.attr op name with Some (Attr.String s) -> Some s | _ -> None
