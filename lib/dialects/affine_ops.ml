(** The affine dialect (the slice used by lowering passes):
    [affine.apply], [affine.min], [affine.max]. *)

open Ir

let apply_op = "affine.apply"
let min_op = "affine.min"
let max_op = "affine.max"

let map_of op =
  match Ircore.attr op "map" with
  | Some (Attr.Affine_map m) -> Some m
  | _ -> None

let verify_map_arity op =
  match map_of op with
  | None -> Error "missing 'map' attribute"
  | Some m ->
    let expected = m.Affine.num_dims + m.Affine.num_syms in
    if Ircore.num_operands op <> expected then
      Error
        (Fmt.str "map expects %d operands (dims+syms), got %d" expected
           (Ircore.num_operands op))
    else Ok ()

let register ctx =
  let fold_with combine (op : Ircore.op) attrs =
    match map_of op with
    | None -> None
    | Some m ->
      let const_args =
        List.map (function Some (Attr.Int (n, _)) -> Some n | _ -> None) attrs
      in
      if List.for_all Option.is_some const_args then begin
        let args = Array.of_list (List.map Option.get const_args) in
        let dims = Array.sub args 0 m.Affine.num_dims in
        let syms = Array.sub args m.Affine.num_dims m.Affine.num_syms in
        match Affine.eval_map m ~dims ~syms with
        | [] -> None
        | results -> Some [ Attr.Int (combine results, Typ.index) ]
        | exception Affine.Eval_error _ -> None
      end
      else None
  in
  let reg name combine =
    Context.register_op ctx name ~traits:[ Context.Pure ]
      ~verify:(Verifier.all [ verify_map_arity; Verifier.expect_results 1 ])
      ~interfaces:
        (Util.Univ.add Context.folder_key
           { Context.fold = fold_with combine }
           Util.Univ.empty)
  in
  reg apply_op (function [ x ] -> x | xs -> List.hd xs);
  reg min_op (fun xs -> List.fold_left min max_int xs);
  reg max_op (fun xs -> List.fold_left max min_int xs)

let apply rw map operands =
  Rewriter.build1 rw ~operands:(Array.of_list operands)
    ~result_types:[| Typ.index |]
    ~attrs:[ ("map", Attr.Affine_map map) ]
    apply_op

let min_ rw map operands =
  Rewriter.build1 rw ~operands:(Array.of_list operands)
    ~result_types:[| Typ.index |]
    ~attrs:[ ("map", Attr.Affine_map map) ]
    min_op
