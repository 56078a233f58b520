(** Printing of IR in MLIR's *generic* textual form, e.g.:

    {v
    %0 = "arith.constant"() {value = 42 : i32} : () -> i32
    "scf.for"(%lb, %ub, %step) ({
    ^bb0(%iv: index):
      ...
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    v}

    The printer assigns sequential names ([%0], [%1], ... and [^bb0], ...) in
    syntactic order; {!Parser} accepts arbitrary names, so print→parse
    round-trips preserve structure. *)

open Ircore

type naming = {
  values : (int, string) Hashtbl.t;
  blocks : (int, string) Hashtbl.t;
  mutable next_value : int;
  mutable next_block : int;
}

let fresh_naming () =
  { values = Hashtbl.create 64; blocks = Hashtbl.create 8; next_value = 0; next_block = 0 }

let value_name naming v =
  match Hashtbl.find_opt naming.values v.v_id with
  | Some n -> n
  | None ->
    let n = Fmt.str "%%%d" naming.next_value in
    naming.next_value <- naming.next_value + 1;
    Hashtbl.replace naming.values v.v_id n;
    n

(** For an op result, the printed reference: [%2] or [%2#1] for result i>0 of
    a multi-result op, matching MLIR's group naming. *)
let value_ref naming v =
  match v.v_def with
  | Op_result (op, i) when Array.length op.results > 1 ->
    let base = value_name naming op.results.(0) in
    if i = 0 then base else Fmt.str "%s#%d" base i
  | _ -> value_name naming v

let block_name naming b =
  match Hashtbl.find_opt naming.blocks b.b_id with
  | Some n -> n
  | None ->
    let n = Fmt.str "^bb%d" naming.next_block in
    naming.next_block <- naming.next_block + 1;
    Hashtbl.replace naming.blocks b.b_id n;
    n

let rec pp_op_with ?(locs = false) naming ~indent fmt op =
  let pad = String.make indent ' ' in
  Fmt.string fmt pad;
  (* results *)
  (match Array.length op.results with
  | 0 -> ()
  | 1 -> Fmt.pf fmt "%s = " (value_name naming op.results.(0))
  | n -> Fmt.pf fmt "%s:%d = " (value_name naming op.results.(0)) n);
  Fmt.pf fmt "%S(" op.op_name;
  Fmt.string fmt
    (String.concat ", "
       (List.map (value_ref naming) (Array.to_list op.operands)));
  Fmt.string fmt ")";
  (* successors *)
  if Array.length op.successors > 0 then begin
    Fmt.string fmt "[";
    Fmt.string fmt
      (String.concat ", "
         (List.map (block_name naming) (Array.to_list op.successors)));
    Fmt.string fmt "]"
  end;
  (* regions *)
  if op.regions <> [] then begin
    Fmt.string fmt " (";
    List.iteri
      (fun i r ->
        if i > 0 then Fmt.string fmt ", ";
        pp_region_with ~locs naming ~indent fmt r)
      op.regions;
    Fmt.string fmt ")"
  end;
  (* attributes *)
  if op.attrs <> [] then begin
    Fmt.string fmt " {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Fmt.string fmt ", ";
        match v with
        | Attr.Unit -> Fmt.string fmt k
        | _ -> Fmt.pf fmt "%s = %a" k Attr.pp v)
      op.attrs;
    Fmt.string fmt "}"
  end;
  (* type signature *)
  let operand_types =
    List.map (fun v -> v.v_typ) (Array.to_list op.operands)
  in
  let result_types = List.map (fun v -> v.v_typ) (Array.to_list op.results) in
  Fmt.pf fmt " : (%a) -> " (Util.pp_list Typ.pp) operand_types;
  (match result_types with
  | [ (Typ.Func _ as t) ] -> Fmt.pf fmt "(%a)" Typ.pp t
  | [ t ] -> Typ.pp fmt t
  | ts -> Fmt.pf fmt "(%a)" (Util.pp_list Typ.pp) ts);
  if locs && op.op_loc <> Loc.Unknown then Fmt.pf fmt " %a" Loc.pp op.op_loc

and pp_region_with ?(locs = false) naming ~indent fmt r =
  Fmt.string fmt "{\n";
  let blocks = region_blocks r in
  (* Pre-assign block names in order so forward branch references resolve. *)
  List.iter (fun b -> ignore (block_name naming b)) blocks;
  let multi = List.length blocks > 1 in
  List.iter
    (fun b ->
      if multi || Array.length b.b_args > 0 then begin
        Fmt.pf fmt "%s%s" (String.make indent ' ') (block_name naming b);
        if Array.length b.b_args > 0 then begin
          Fmt.string fmt "(";
          Array.iteri
            (fun i a ->
              if i > 0 then Fmt.string fmt ", ";
              Fmt.pf fmt "%s: %a" (value_name naming a) Typ.pp a.v_typ)
            b.b_args;
          Fmt.string fmt ")"
        end;
        Fmt.string fmt ":\n"
      end;
      List.iter
        (fun op ->
          pp_op_with ~locs naming ~indent:(indent + 2) fmt op;
          Fmt.string fmt "\n")
        (block_ops b))
    blocks;
  Fmt.pf fmt "%s}" (String.make indent ' ')

let pp_op fmt op = pp_op_with (fresh_naming ()) ~indent:0 fmt op
let op_to_string op = Fmt.str "%a" pp_op op

(** Generic form including [loc(...)] suffixes where known. *)
let pp_op_locs fmt op = pp_op_with ~locs:true (fresh_naming ()) ~indent:0 fmt op
let op_to_string_locs op = Fmt.str "%a" pp_op_locs op

let print_op ?(oc = stdout) op =
  let fmt = Format.formatter_of_out_channel oc in
  pp_op fmt op;
  Format.pp_print_newline fmt ()
