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
    record, so concurrent prints on several domains share nothing. The
    output buffer is reused: each domain keeps one for its prints (see
    {!with_buffer}). *)

open Ircore

type naming = {
  values : int Util.Itbl.t;  (** value id -> printed number *)
  blocks : int Util.Itbl.t;  (** block id -> printed number *)
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
  { values = Util.Itbl.create 64; blocks = Util.Itbl.create 8; next_value = 0;
    next_block = 0; types = Hashtbl.create 16; last_type = no_type;
    last_text = "" }

let value_num naming v =
  match Util.Itbl.find naming.values v.v_id with
  | n -> n
  | exception Not_found ->
    let n = naming.next_value in
    naming.next_value <- n + 1;
    Util.Itbl.add naming.values v.v_id n;
    n

let block_num naming b =
  match Util.Itbl.find naming.blocks b.b_id with
  | n -> n
  | exception Not_found ->
    let n = naming.next_block in
    naming.next_block <- n + 1;
    Util.Itbl.add naming.blocks b.b_id n;
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
      (match Hashtbl.find naming.types t with
      | s -> s
      | exception Not_found ->
        let s = Typ.to_string t in
        Hashtbl.add naming.types t s;
        s);
    naming.last_type <- t
  end;
  Buffer.add_string buf naming.last_text

let rec number_blocks naming = function
  | None -> ()
  | Some b ->
    ignore (block_num naming b);
    number_blocks naming b.b_next

let bprint_indent buf indent =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done

(* The per-op lists below are loops over the op's arrays, so printing an
   op allocates no closure. *)
let bprint_operands naming buf vs =
  for i = 0 to Array.length vs - 1 do
    if i > 0 then Buffer.add_string buf ", ";
    bprint_value_ref naming buf vs.(i)
  done

let bprint_value_types naming buf vs =
  for i = 0 to Array.length vs - 1 do
    if i > 0 then Buffer.add_string buf ", ";
    bprint_type naming buf vs.(i).v_typ
  done

let bprint_successors naming buf bs =
  for i = 0 to Array.length bs - 1 do
    if i > 0 then Buffer.add_string buf ", ";
    bprint_block_name naming buf bs.(i)
  done

let bprint_attr naming buf (k, v) =
  Buffer.add_string buf k;
  match v with
  | Attr.Unit -> ()
  | _ ->
    Buffer.add_string buf " = ";
    Attr.bprint_with (bprint_type naming) buf v

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
  bprint_operands naming buf op.operands;
  Buffer.add_char buf ')';
  (* successors *)
  if Array.length op.successors > 0 then begin
    Buffer.add_char buf '[';
    bprint_successors naming buf op.successors;
    Buffer.add_char buf ']'
  end;
  (* regions *)
  (match op.regions with
  | [] -> ()
  | first :: rest ->
    Buffer.add_string buf " (";
    bprint_region ~locs naming ~indent buf first;
    bprint_more_regions ~locs naming ~indent buf rest;
    Buffer.add_char buf ')');
  (* attributes *)
  (match op.attrs with
  | [] -> ()
  | first :: rest ->
    Buffer.add_string buf " {";
    bprint_attr naming buf first;
    bprint_more_attrs naming buf rest;
    Buffer.add_char buf '}');
  (* type signature *)
  Buffer.add_string buf " : (";
  bprint_value_types naming buf op.operands;
  Buffer.add_string buf ") -> ";
  (* a lone result prints bare unless it is itself a function type *)
  (match op.results with
  | [| v |] when not (Typ.is_func v.v_typ) -> bprint_type naming buf v.v_typ
  | rs ->
    Buffer.add_char buf '(';
    bprint_value_types naming buf rs;
    Buffer.add_char buf ')');
  match op.op_loc with
  | Loc.Unknown -> ()
  | loc ->
    if locs then begin
      Buffer.add_char buf ' ';
      Loc.bprint buf loc
    end

and bprint_more_attrs naming buf = function
  | [] -> ()
  | a :: rest ->
    Buffer.add_string buf ", ";
    bprint_attr naming buf a;
    bprint_more_attrs naming buf rest

and bprint_more_regions ~locs naming ~indent buf = function
  | [] -> ()
  | r :: rest ->
    Buffer.add_string buf ", ";
    bprint_region ~locs naming ~indent buf r;
    bprint_more_regions ~locs naming ~indent buf rest

and bprint_region ~locs naming ~indent buf r =
  Buffer.add_string buf "{\n";
  (* Pre-assign block names in order so forward branch references resolve. *)
  number_blocks naming r.r_first;
  let multi =
    match r.r_first with Some b -> Option.is_some b.b_next | None -> false
  in
  bprint_blocks ~locs naming ~indent ~multi buf r.r_first;
  bprint_indent buf indent;
  Buffer.add_char buf '}'

and bprint_blocks ~locs naming ~indent ~multi buf = function
  | None -> ()
  | Some b ->
    if multi || Array.length b.b_args > 0 then begin
      bprint_indent buf indent;
      bprint_block_name naming buf b;
      if Array.length b.b_args > 0 then begin
        Buffer.add_char buf '(';
        for i = 0 to Array.length b.b_args - 1 do
          let a = b.b_args.(i) in
          if i > 0 then Buffer.add_string buf ", ";
          bprint_value_name naming buf a;
          Buffer.add_string buf ": ";
          bprint_type naming buf a.v_typ
        done;
        Buffer.add_char buf ')'
      end;
      Buffer.add_string buf ":\n"
    end;
    bprint_ops ~locs naming ~indent:(indent + 2) buf b.b_first;
    bprint_blocks ~locs naming ~indent ~multi buf b.b_next

and bprint_ops ~locs naming ~indent buf = function
  | None -> ()
  | Some op ->
    bprint_op ~locs naming ~indent buf op;
    Buffer.add_char buf '\n';
    bprint_ops ~locs naming ~indent buf op.op_next

(* Each domain keeps one output buffer that its prints reuse, so the only
   large allocation of a print is the text it returns: a buffer grown by
   doubling for every print would put several times the output into the
   major heap, and major-heap allocation paces the major GC. [busy] lends
   the buffer to one print at a time; a print that finds it lent (another
   systhread printing on the same domain) uses a fresh buffer. A buffer
   grown past [max_retained] bytes is released after the print. *)
type slot = { buf : Buffer.t; busy : bool Atomic.t }

let max_retained = 1 lsl 20

let slot =
  Domain.DLS.new_key (fun () ->
      { buf = Buffer.create 4096; busy = Atomic.make false })

let release s =
  if Buffer.length s.buf > max_retained then Buffer.reset s.buf;
  Atomic.set s.busy false

(** [f buf] with an empty output buffer, this domain's when it is free. *)
let with_buffer f =
  let s = Domain.DLS.get slot in
  if Atomic.compare_and_set s.busy false true then begin
    Buffer.clear s.buf;
    match f s.buf with
    | r ->
      release s;
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release s;
      Printexc.raise_with_backtrace e bt
  end
  else f (Buffer.create 1024)

let op_text ~locs op =
  with_buffer (fun buf ->
      bprint_op ~locs (fresh_naming ()) ~indent:0 buf op;
      Buffer.contents buf)

let op_to_string op = op_text ~locs:false op

(** Generic form including [loc(...)] suffixes where known. *)
let op_to_string_locs op = op_text ~locs:true op

let pp_op_with ?(locs = false) naming ~indent fmt op =
  let buf = Buffer.create 256 in
  bprint_op ~locs naming ~indent buf op;
  Format.pp_print_string fmt (Buffer.contents buf)

let pp_op fmt op = Format.pp_print_string fmt (op_to_string op)

let print_op op =
  with_buffer (fun buf ->
      bprint_op ~locs:false (fresh_naming ()) ~indent:0 buf op;
      Buffer.add_char buf '\n';
      Buffer.output_buffer stdout buf);
  flush stdout
