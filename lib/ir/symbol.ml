(** Symbol table helpers: resolving [@symbol] references inside the nearest
    symbol-table op (typically [builtin.module]). *)

open Ircore

let symbol_name op =
  match attr op "sym_name" with Some (Attr.String s) -> Some s | _ -> None

exception Found of op

(** Find the first op named [name] among the immediate children of
    symbol-table op [table]. *)
let lookup_in ~table name =
  match
    iter_children
      (fun child ->
        match List.assoc "sym_name" child.attrs with
        | Attr.String s when String.equal s name -> raise_notrace (Found child)
        | _ | (exception Not_found) -> ())
      table
  with
  | () -> None
  | exception Found op -> Some op

(** Nearest enclosing op with the [Symbol_table] trait. *)
let rec nearest_symbol_table ctx op =
  match parent_op op with
  | None -> if Context.op_has_trait ctx op Context.Symbol_table then Some op else None
  | Some p ->
    if Context.op_has_trait ctx p Context.Symbol_table then Some p
    else nearest_symbol_table ctx p

(** Resolve a symbol reference starting from [from]'s enclosing table. *)
let resolve ctx ~from name =
  match nearest_symbol_table ctx from with
  | None -> None
  | Some table -> lookup_in ~table name

(** All ops in the subtree rooted at [root] named [op_name] (pre-order,
    excluding [root] itself). *)
let collect_ops ~op_name root =
  let out = ref [] in
  walk
    (fun op ->
      if (not (op == root)) && op.op_name = op_name then out := op :: !out)
    root;
  List.rev !out

(** All ops in the subtree for which [f] holds (excluding the root). *)
let collect ~f root =
  let out = ref [] in
  walk (fun op -> if (not (op == root)) && f op then out := op :: !out) root;
  List.rev !out
