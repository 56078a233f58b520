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
    round-trips preserve structure.

    All text is appended to one [Buffer.t]; types, attributes, affine maps
    and locations use their kinds' buffer writers ({!Typ.bprint} and so
    on). Every piece of scratch state lives in the per-print {!naming}
    record, so concurrent prints on several domains share nothing. *)

open Ircore

type naming = {
  values : (int, int) Hashtbl.t;  (** value id -> printed number *)
  blocks : (int, int) Hashtbl.t;  (** block id -> printed number *)
  mutable next_value : int;
  mutable next_block : int;
  types : (Typ.t, string) Hashtbl.t;
      (** each type's text, rendered once per print: a module holds many
          type references but few distinct types *)
  mutable last_type : Typ.t;
  mutable last_text : string;
      (** the type printed last and its text: parsed modules share equal
          types, so a run of one type skips the hash *)
}

(* a type no IR holds, so the first [==] test fails *)
let no_type = Typ.Opaque ("", "")

let fresh_naming () =
  { values = Hashtbl.create 64; blocks = Hashtbl.create 8; next_value = 0;
    next_block = 0; types = Hashtbl.create 16; last_type = no_type;
    last_text = "" }

let value_num naming v =
  match Hashtbl.find_opt naming.values v.v_id with
  | Some n -> n
  | None ->
    let n = naming.next_value in
    naming.next_value <- n + 1;
    Hashtbl.replace naming.values v.v_id n;
    n

let block_num naming b =
  match Hashtbl.find_opt naming.blocks b.b_id with
  | Some n -> n
  | None ->
    let n = naming.next_block in
    naming.next_block <- n + 1;
    Hashtbl.replace naming.blocks b.b_id n;
    n

let bprint_value_name naming buf v =
  Buffer.add_char buf '%';
  Util.add_int buf (value_num naming v)

(** For an op result, the printed reference: [%2] or [%2#1] for result i>0 of
    a multi-result op, matching MLIR's group naming. *)
let bprint_value_ref naming buf v =
  match v.v_def with
  | Op_result (op, i) when Array.length op.results > 1 ->
    bprint_value_name naming buf op.results.(0);
    if i > 0 then begin
      Buffer.add_char buf '#';
      Util.add_int buf i
    end
  | _ -> bprint_value_name naming buf v

let bprint_block_name naming buf b =
  Buffer.add_string buf "^bb";
  Util.add_int buf (block_num naming b)

let value_name naming v = Util.bprint_to_string (bprint_value_name naming) v
let value_ref naming v = Util.bprint_to_string (bprint_value_ref naming) v
let block_name naming b = Util.bprint_to_string (bprint_block_name naming) b

let bprint_type naming buf t =
  if t != naming.last_type then begin
    naming.last_text <-
      (match Hashtbl.find_opt naming.types t with
      | Some s -> s
      | None ->
        let s = Typ.to_string t in
        Hashtbl.replace naming.types t s;
        s);
    naming.last_type <- t
  end;
  Buffer.add_string buf naming.last_text

let bprint_indent buf indent =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done

let bprint_array bprint_elt buf xs =
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      bprint_elt buf x)
    xs

let rec bprint_op ~locs naming ~indent buf op =
  bprint_indent buf indent;
  (* results *)
  (match Array.length op.results with
  | 0 -> ()
  | n ->
    bprint_value_name naming buf op.results.(0);
    if n > 1 then begin
      Buffer.add_char buf ':';
      Util.add_int buf n
    end;
    Buffer.add_string buf " = ");
  Util.bprint_quoted buf op.op_name;
  Buffer.add_char buf '(';
  bprint_array (bprint_value_ref naming) buf op.operands;
  Buffer.add_char buf ')';
  (* successors *)
  if Array.length op.successors > 0 then begin
    Buffer.add_char buf '[';
    bprint_array (bprint_block_name naming) buf op.successors;
    Buffer.add_char buf ']'
  end;
  (* regions *)
  if op.regions <> [] then begin
    Buffer.add_string buf " (";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string buf ", ";
        bprint_region ~locs naming ~indent buf r)
      op.regions;
    Buffer.add_char buf ')'
  end;
  (* attributes *)
  if op.attrs <> [] then begin
    Buffer.add_string buf " {";
    Util.bprint_list
      (fun buf (k, v) ->
        Buffer.add_string buf k;
        match v with
        | Attr.Unit -> ()
        | _ ->
          Buffer.add_string buf " = ";
          Attr.bprint_with (bprint_type naming) buf v)
      buf op.attrs;
    Buffer.add_char buf '}'
  end;
  (* type signature *)
  let value_typ buf v = bprint_type naming buf v.v_typ in
  Buffer.add_string buf " : (";
  bprint_array value_typ buf op.operands;
  Buffer.add_string buf ") -> ";
  (* a lone result prints bare unless it is itself a function type *)
  (match op.results with
  | [| v |] when not (Typ.is_func v.v_typ) -> value_typ buf v
  | rs ->
    Buffer.add_char buf '(';
    bprint_array value_typ buf rs;
    Buffer.add_char buf ')');
  if locs && op.op_loc <> Loc.Unknown then begin
    Buffer.add_char buf ' ';
    Loc.bprint buf op.op_loc
  end

and bprint_region ~locs naming ~indent buf r =
  Buffer.add_string buf "{\n";
  let blocks = region_blocks r in
  (* Pre-assign block names in order so forward branch references resolve. *)
  List.iter (fun b -> ignore (block_num naming b)) blocks;
  let multi = match blocks with _ :: _ :: _ -> true | _ -> false in
  List.iter
    (fun b ->
      if multi || Array.length b.b_args > 0 then begin
        bprint_indent buf indent;
        bprint_block_name naming buf b;
        if Array.length b.b_args > 0 then begin
          Buffer.add_char buf '(';
          bprint_array
            (fun buf a ->
              bprint_value_name naming buf a;
              Buffer.add_string buf ": ";
              bprint_type naming buf a.v_typ)
            buf b.b_args;
          Buffer.add_char buf ')'
        end;
        Buffer.add_string buf ":\n"
      end;
      let rec ops = function
        | None -> ()
        | Some op ->
          bprint_op ~locs naming ~indent:(indent + 2) buf op;
          Buffer.add_char buf '\n';
          ops op.op_next
      in
      ops b.b_first)
    blocks;
  bprint_indent buf indent;
  Buffer.add_char buf '}'

let op_text ~locs op =
  let buf = Buffer.create 1024 in
  bprint_op ~locs (fresh_naming ()) ~indent:0 buf op;
  buf

let op_to_string op = Buffer.contents (op_text ~locs:false op)

(** Generic form including [loc(...)] suffixes where known. *)
let op_to_string_locs op = Buffer.contents (op_text ~locs:true op)

let pp_op_with ?(locs = false) naming ~indent fmt op =
  let buf = Buffer.create 256 in
  bprint_op ~locs naming ~indent buf op;
  Format.pp_print_string fmt (Buffer.contents buf)

let pp_op fmt op = Format.pp_print_string fmt (op_to_string op)

let print_op ?(oc = stdout) op =
  let buf = op_text ~locs:false op in
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf;
  flush oc
