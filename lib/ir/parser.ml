(** Recursive-descent parser for the generic MLIR textual format produced by
    {!Printer}. Supports forward references to values (multi-block CFGs) via
    placeholder values that are patched once the definition is seen, and
    forward references to blocks via on-demand block creation.

    A parse allocates little beyond the IR it returns: the lexer keeps its
    token in mutable fields; value and block names are looked up and bound
    by their span of the source, never copied; types, attribute
    dictionaries and op names are memoized by their source text, so a
    module's repeated types and names are one shared value; and an op's
    operands and successors are gathered in scratch slots and copied once
    into the arrays the op keeps. All of this state belongs to one parse;
    concurrent parses share nothing. *)

open Lexer

exception Parse_error of string

let fail lx msg =
  let line, col = Lexer.line_col lx (Lexer.token_start lx) in
  raise (Parse_error (Fmt.str "%d:%d: %s" line col msg))

(** Reject the lookahead, consumed first, as not the [what] the grammar
    needs here. *)
let unexpected lx what =
  let got = describe lx in
  advance lx;
  fail lx (Fmt.str "expected %s, got %s" what got)

let expect lx k =
  if at lx k then advance lx
  else fail lx (Fmt.str "expected %s, got %s" (kind_name k) (describe lx))

(** Consume an identifier or string lookahead and return its text. *)
let take_text lx =
  let s = text lx in
  advance lx;
  s

let expect_ident lx =
  if at lx IDENT then take_text lx
  else fail lx ("expected identifier, got " ^ describe lx)

let expect_int lx =
  let negate = at lx MINUS in
  if negate then advance lx;
  if at lx INT then begin
    let n = lx.int_value in
    advance lx;
    if negate then -n else n
  end
  else fail lx ("expected integer, got " ^ describe lx)

(* ---------------------------------------------------------------- *)
(* Scopes                                                            *)
(* ---------------------------------------------------------------- *)

(** The type of a forward-reference placeholder until a use gives it one.
    Compared by [==], so a user-written [!__pending__] is an ordinary
    type. *)
let pending_typ = Typ.Opaque ("__pending__", "")

(** A growable stack of slots that one parse reuses: the operands or
    successors of an op are pushed here as they parse and then copied, once,
    into the array the op keeps. *)
type 'a slots = { mutable items : 'a array; mutable len : int }

let push slots x =
  if slots.len = Array.length slots.items then begin
    let items = Array.make (max 8 (2 * slots.len)) x in
    Array.blit slots.items 0 items 0 slots.len;
    slots.items <- items
  end;
  slots.items.(slots.len) <- x;
  slots.len <- slots.len + 1

(** The pushed slots as a fresh array; empties the stack. *)
let take slots =
  let n = slots.len in
  slots.len <- 0;
  if n = 0 then [||] else Array.sub slots.items 0 n

type scope = {
  defs : Ircore.value array Span_table.t;
      (** values by name, without the [%], keyed by a span of the source *)
  parent : scope option;
  blocks : Ircore.block Span_table.t;  (** by name, without the [^] *)
  mutable pendings : (string, Ircore.value) Hashtbl.t option;
      (** key is "name" or "name#i"; value is the placeholder. Created by
          the first forward reference: most regions have none, and an empty
          [Hashtbl] takes 20 words *)
  operands : Ircore.value slots;
  successors : Ircore.block slots;
      (** one pair of stacks for the whole parse, shared by every scope *)
}

let new_scope parent =
  let operands, successors =
    match parent with
    | Some p -> (p.operands, p.successors)
    | None -> ({ items = [||]; len = 0 }, { items = [||]; len = 0 })
  in
  { defs = Span_table.create 8; parent; blocks = Span_table.create 4;
    pendings = None; operands; successors }

let rec lookup_def scope src off len hash =
  try Span_table.find_hashed scope.defs hash src off len
  with Not_found -> (
    match scope.parent with
    | None -> raise Not_found
    | Some p -> lookup_def p src off len hash)

let pending_key name index =
  if index = 0 then name else name ^ "#" ^ Int.to_string index

let make_pending scope key =
  let pendings =
    match scope.pendings with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 4 in
      scope.pendings <- Some t;
      t
  in
  match Hashtbl.find_opt pendings key with
  | Some v -> v
  | None ->
    let op =
      Ircore.make ~operands:[||] ~result_types:[| pending_typ |] ~attrs:[]
        ~regions:[] ~successors:[||] ~loc:Loc.unknown "__pending__"
    in
    let v = Ircore.result op in
    Hashtbl.replace pendings key v;
    v

(* a definition replaces the placeholder of its forward references, whose
   uses fixed the type the definition must have *)
let resolve_pending lx pendings key real =
  match Hashtbl.find_opt pendings key with
  | None -> ()
  | Some placeholder ->
    let used = Ircore.value_typ placeholder
    and defined = Ircore.value_typ real in
    if used != pending_typ && not (Typ.equal used defined) then
      fail lx
        (Fmt.str "definition of value %%%s has type %a, but a use before it \
                  has type %a"
           key Typ.pp defined Typ.pp used);
    Ircore.replace_all_uses_with placeholder ~with_:real;
    (match Ircore.defining_op placeholder with
    | Some op -> Ircore.erase_unchecked op
    | None -> ());
    Hashtbl.remove pendings key

(** Bind the name [src.[off .. off + len - 1]] to [vs]. *)
let define_values lx scope src off len (vs : Ircore.value array) =
  let h = Span_table.hash_span src off len in
  (match Span_table.find_hashed scope.defs h src off len with
  | _ ->
    raise
      (Parse_error
         (Fmt.str "redefinition of value %%%s" (String.sub src off len)))
  | exception Not_found -> Span_table.add scope.defs h src off len vs);
  match scope.pendings with
  | Some pendings when Hashtbl.length pendings > 0 ->
    let name = String.sub src off len in
    Array.iteri
      (fun i v -> resolve_pending lx pendings (pending_key name i) v)
      vs
  | _ -> ()

(* all pendings of a closing scope must be resolved *)
let check_resolved scope =
  Option.iter
    (Hashtbl.iter (fun key _ ->
         raise (Parse_error (Fmt.str "use of undefined value %%%s" key))))
    scope.pendings

(** Consume a [^name] lookahead and return its block, created by the
    first reference. *)
let take_block lx scope =
  let src = source lx in
  let off = token_start lx + 1 in
  let len = token_stop lx - off in
  advance lx;
  let h = Span_table.hash_span src off len in
  match Span_table.find_hashed scope.blocks h src off len with
  | b -> b
  | exception Not_found ->
    let b = Ircore.create_block () in
    Span_table.add scope.blocks h src off len b;
    b

(* ---------------------------------------------------------------- *)
(* Types                                                             *)
(* ---------------------------------------------------------------- *)

(** Types are memoized within one parse by their source text, so each
    spelling of [(i64, i64) -> i64] in a module is parsed once and all its
    uses share one value. A hit is sound: the parse of a type reads only
    the characters of its span, plus whether an identifier goes on and
    whether a [<] follows, and {!Lexer.type_extent} stops on exactly those
    conditions. *)
let rec parse_type lx : Typ.t =
  memoized lx lx.types (type_extent lx) parse_type_text

and parse_type_text lx =
  match peek lx with
  | LPAREN -> parse_function_type lx
  | BANG -> parse_opaque_type lx
  | IDENT when int_type_width lx >= 0 ->
    let w = int_type_width lx in
    advance lx;
    Typ.Integer w
  | IDENT when ident_is lx "index" ->
    advance lx;
    Typ.Index
  | IDENT when ident_is lx "f16" ->
    advance lx;
    Typ.f16
  | IDENT when ident_is lx "bf16" ->
    advance lx;
    Typ.bf16
  | IDENT when ident_is lx "f32" ->
    advance lx;
    Typ.f32
  | IDENT when ident_is lx "f64" ->
    advance lx;
    Typ.f64
  | IDENT when ident_is lx "vector" ->
    advance lx;
    expect lx LT;
    let dims =
      match raw_dimension_list lx with
      | `Ranked dims ->
        List.map
          (function
            | Typ.Static n -> n
            | Typ.Dynamic -> fail lx "vector dims must be static")
          dims
      | `Unranked -> fail lx "vector cannot be unranked"
    in
    let elt = parse_type lx in
    expect lx GT;
    Typ.Vector (dims, elt)
  | IDENT when ident_is lx "tensor" ->
    advance lx;
    expect lx LT;
    let dims = raw_dimension_list lx in
    let elt = parse_type lx in
    expect lx GT;
    (match dims with
    | `Ranked dims -> Typ.Ranked_tensor (dims, elt)
    | `Unranked -> Typ.Unranked_tensor elt)
  | IDENT when ident_is lx "memref" ->
    advance lx;
    expect lx LT;
    let dims = raw_dimension_list lx in
    let elt = parse_type lx in
    let layout =
      if at lx COMMA then begin
        advance lx;
        parse_layout lx
      end
      else Typ.Identity
    in
    expect lx GT;
    (match dims with
    | `Ranked dims -> Typ.Memref (dims, elt, layout)
    | `Unranked -> Typ.Unranked_memref elt)
  | IDENT when ident_is lx "tuple" ->
    advance lx;
    expect lx LT;
    let rec go acc =
      let t = parse_type lx in
      if at lx COMMA then begin
        advance lx;
        go (t :: acc)
      end
      else List.rev (t :: acc)
    in
    let ts = if at lx GT then [] else go [] in
    expect lx GT;
    Typ.Tuple ts
  | _ -> fail lx ("expected type, got " ^ describe lx)

and parse_opaque_type lx =
  advance lx;
  let name = expect_ident lx in
  let dialect, body =
    match String.index_opt name '.' with
    | None -> (name, "")
    | Some i ->
      ( String.sub name 0 i,
        String.sub name (i + 1) (String.length name - i - 1) )
  in
  (* optional <...> raw body, balanced *)
  if at lx LT then begin
    let buf = Buffer.create 16 in
    Buffer.add_string buf body;
    advance lx;
    Buffer.add_char buf '<';
    Lexer.enter_raw lx;
    let depth = ref 1 in
    while !depth > 0 do
      match Lexer.raw_peek_char lx with
      | None -> fail lx "unterminated opaque type body"
      | Some '<' ->
        incr depth;
        Buffer.add_char buf '<';
        Lexer.raw_advance_char lx
      | Some '>' ->
        decr depth;
        if !depth > 0 then Buffer.add_char buf '>';
        Lexer.raw_advance_char lx
      | Some c ->
        Buffer.add_char buf c;
        Lexer.raw_advance_char lx
    done;
    Buffer.add_char buf '>';
    Typ.Opaque (dialect, Buffer.contents buf)
  end
  else Typ.Opaque (dialect, body)

and parse_function_type lx =
  expect lx LPAREN;
  let ins = parse_type_list_until_rparen lx in
  expect lx ARROW;
  let outs =
    if at lx LPAREN then begin
      advance lx;
      parse_type_list_until_rparen lx
    end
    else [ parse_type lx ]
  in
  Typ.Func (ins, outs)

and parse_type_list_until_rparen lx =
  if at lx RPAREN then begin
    advance lx;
    []
  end
  else begin
    let rec go acc =
      let t = parse_type lx in
      if at lx COMMA then begin
        advance lx;
        go (t :: acc)
      end
      else begin
        expect lx RPAREN;
        List.rev (t :: acc)
      end
    in
    go []
  end

and parse_layout lx =
  if ident_is lx "strided" then begin
    advance lx;
    expect lx LT;
    expect lx LBRACKET;
    let parse_sdim () =
      if at lx QUESTION then begin
        advance lx;
        Typ.Dynamic
      end
      else Typ.Static (expect_int lx)
    in
    let rec go acc =
      if at lx RBRACKET then begin
        advance lx;
        List.rev acc
      end
      else begin
        let d = parse_sdim () in
        if at lx COMMA then advance lx;
        go (d :: acc)
      end
    in
    let strides = go [] in
    let offset =
      if at lx COMMA then begin
        advance lx;
        if ident_is lx "offset" then begin
          advance lx;
          expect lx COLON
        end
        else fail lx "expected offset";
        parse_sdim ()
      end
      else Typ.Static 0
    in
    expect lx GT;
    Typ.Strided { offset; strides }
  end
  else if ident_is lx "affine_map" then begin
    advance lx;
    expect lx LT;
    let m = parse_affine_map lx in
    expect lx GT;
    Typ.Affine_layout m
  end
  else fail lx ("expected layout, got " ^ describe lx)

(* ---------------------------------------------------------------- *)
(* Affine maps                                                       *)
(* ---------------------------------------------------------------- *)

and parse_affine_map lx : Affine.map =
  expect lx LPAREN;
  let parse_name_list close =
    let rec go acc =
      if at lx close then begin
        advance lx;
        List.rev acc
      end
      else begin
        let n = expect_ident lx in
        if at lx COMMA then advance lx;
        go (n :: acc)
      end
    in
    go []
  in
  let dims = parse_name_list RPAREN in
  let syms =
    if at lx LBRACKET then begin
      advance lx;
      parse_name_list RBRACKET
    end
    else []
  in
  expect lx ARROW;
  expect lx LPAREN;
  let env name =
    match List.find_index (String.equal name) dims with
    | Some i -> Affine.Dim i
    | None -> (
      match List.find_index (String.equal name) syms with
      | Some i -> Affine.Sym i
      | None -> fail lx (Fmt.str "unknown affine identifier %s" name))
  in
  let rec go acc =
    if at lx RPAREN then begin
      advance lx;
      List.rev acc
    end
    else begin
      let e = parse_affine_expr lx env in
      if at lx COMMA then advance lx;
      go (e :: acc)
    end
  in
  let exprs = go [] in
  Affine.make_map ~num_dims:(List.length dims) ~num_syms:(List.length syms) exprs

and parse_affine_expr lx env : Affine.expr =
  let rec expr () =
    let lhs = term () in
    let rec go lhs =
      match peek lx with
      | PLUS ->
        advance lx;
        go (Affine.Add (lhs, term ()))
      | MINUS ->
        advance lx;
        go (Affine.Add (lhs, Affine.Mul (term (), Affine.Const (-1))))
      | _ -> lhs
    in
    go lhs
  and term () =
    let lhs = factor () in
    let rec go lhs =
      if at lx STAR then begin
        advance lx;
        go (Affine.Mul (lhs, factor ()))
      end
      else if ident_is lx "mod" then begin
        advance lx;
        go (Affine.Mod (lhs, factor ()))
      end
      else if ident_is lx "floordiv" then begin
        advance lx;
        go (Affine.Floordiv (lhs, factor ()))
      end
      else if ident_is lx "ceildiv" then begin
        advance lx;
        go (Affine.Ceildiv (lhs, factor ()))
      end
      else lhs
    in
    go lhs
  and factor () =
    match peek lx with
    | INT ->
      let n = lx.int_value in
      advance lx;
      Affine.Const n
    | MINUS ->
      advance lx;
      Affine.Mul (factor (), Affine.Const (-1))
    | LPAREN ->
      advance lx;
      let e = expr () in
      expect lx RPAREN;
      e
    | IDENT -> env (take_text lx)
    | _ -> fail lx ("expected affine expression, got " ^ describe lx)
  in
  Affine.simplify (expr ())

(* ---------------------------------------------------------------- *)
(* Attributes                                                        *)
(* ---------------------------------------------------------------- *)

let rec parse_attr lx : Attr.t =
  match peek lx with
  | INT ->
    let n = lx.int_value in
    advance lx;
    parse_int_suffix lx n
  | FLOATLIT ->
    let f = lx.float_value in
    advance lx;
    parse_float_suffix lx f
  | MINUS -> (
    advance lx;
    match peek lx with
    | INT ->
      let n = lx.int_value in
      advance lx;
      parse_int_suffix lx (-n)
    | FLOATLIT ->
      let f = lx.float_value in
      advance lx;
      parse_float_suffix lx (-.f)
    | _ -> fail lx ("expected number after '-', got " ^ describe lx))
  | STRING -> Attr.String (take_text lx)
  | IDENT when ident_is lx "true" ->
    advance lx;
    Attr.Bool true
  | IDENT when ident_is lx "false" ->
    advance lx;
    Attr.Bool false
  | IDENT when ident_is lx "unit" ->
    advance lx;
    Attr.Unit
  | IDENT when ident_is lx "dense" ->
    advance lx;
    expect lx LT;
    let number () =
      match peek lx with
      | INT ->
        let n = lx.int_value in
        advance lx;
        `I n
      | FLOATLIT ->
        let f = lx.float_value in
        advance lx;
        `F f
      | _ -> fail lx ("bad dense element " ^ describe lx)
    in
    let element () =
      if at lx MINUS then begin
        advance lx;
        match peek lx with
        | INT | FLOATLIT -> (
          match number () with `I n -> `I (-n) | `F f -> `F (-.f))
        | _ ->
          let got = describe lx in
          advance lx;
          raise (Parse_error ("bad dense element " ^ got))
      end
      else number ()
    in
    let elems =
      if at lx LBRACKET then begin
        advance lx;
        let rec go acc =
          if at lx RBRACKET then begin
            advance lx;
            List.rev acc
          end
          else begin
            let e = element () in
            if at lx COMMA then advance lx;
            go (e :: acc)
          end
        in
        go []
      end
      else [ element () ]
    in
    expect lx GT;
    expect lx COLON;
    let t = parse_type lx in
    if List.exists (function `F _ -> true | `I _ -> false) elems then
      Attr.Dense_float
        (List.map (function `F f -> f | `I n -> float_of_int n) elems, t)
    else Attr.Dense_int (List.map (function `I n -> n | `F _ -> 0) elems, t)
  | IDENT when ident_is lx "array" ->
    advance lx;
    expect lx LT;
    let _elt = expect_ident lx in
    let xs =
      if at lx COLON then begin
        advance lx;
        let rec go acc =
          if at lx GT then List.rev acc
          else begin
            let n = expect_int lx in
            if at lx COMMA then advance lx;
            go (n :: acc)
          end
        in
        go []
      end
      else []
    in
    expect lx GT;
    Attr.Int_array xs
  | IDENT when ident_is lx "affine_map" ->
    advance lx;
    expect lx LT;
    let m = parse_affine_map lx in
    expect lx GT;
    Attr.Affine_map m
  | AT_IDENT ->
    let root = take_text lx in
    let rec go acc =
      if at lx DCOLON then begin
        advance lx;
        if at lx AT_IDENT then go (take_text lx :: acc)
        else unexpected lx "@symbol after ::"
      end
      else List.rev acc
    in
    Attr.Symbol_ref (root, go [])
  | LBRACKET ->
    advance lx;
    let rec go acc =
      if at lx RBRACKET then begin
        advance lx;
        List.rev acc
      end
      else begin
        let a = parse_attr lx in
        if at lx COMMA then advance lx;
        go (a :: acc)
      end
    in
    Attr.Array (go [])
  | LBRACE -> Attr.Dict (parse_attr_dict lx)
  | _ -> Attr.Type (parse_type lx)

and parse_int_suffix lx n =
  if at lx COLON then begin
    advance lx;
    let t = parse_type lx in
    Attr.Int (n, t)
  end
  else Attr.Int (n, Typ.i64)

and parse_float_suffix lx f =
  if at lx COLON then begin
    advance lx;
    let t = parse_type lx in
    Attr.Float (f, t)
  end
  else Attr.Float (f, Typ.f64)

(* lowered models repeat a few dictionaries on most ops: 1,778 of the
   1,858 in lowered GPT-2 are [{operand_segment_sizes = array<...>}], and
   the parse of one ends at its closing brace *)
and parse_attr_dict lx : Attr.dict =
  memoized lx lx.dicts (dict_extent lx) parse_attr_dict_text

and parse_attr_dict_text lx =
  expect lx LBRACE;
  let rec go acc =
    if at lx RBRACE then begin
      advance lx;
      List.rev acc
    end
    else begin
      let key =
        match peek lx with
        | IDENT | STRING -> take_text lx
        | _ -> unexpected lx "attribute name"
      in
      let v =
        if at lx EQUAL then begin
          advance lx;
          parse_attr lx
        end
        else Attr.Unit
      in
      if at lx COMMA then advance lx;
      go ((key, v) :: acc)
    end
  in
  go []

(* ---------------------------------------------------------------- *)
(* Operations, blocks, regions                                       *)
(* ---------------------------------------------------------------- *)

(** [loc(...)] suffix: files, names (optionally nested), fusions. *)
let rec parse_loc lx : Loc.t =
  if ident_is lx "loc" then advance lx else unexpected lx "loc";
  expect lx LPAREN;
  let l = parse_loc_body lx in
  expect lx RPAREN;
  l

and parse_loc_body lx : Loc.t =
  match peek lx with
  | IDENT when ident_is lx "unknown" ->
    advance lx;
    Loc.Unknown
  | IDENT when ident_is lx "fused" ->
    advance lx;
    expect lx LBRACKET;
    let rec go acc =
      if at lx RBRACKET then begin
        advance lx;
        List.rev acc
      end
      else begin
        let l = parse_loc lx in
        if at lx COMMA then advance lx;
        go (l :: acc)
      end
    in
    Loc.Fused (go [])
  | STRING ->
    let s = take_text lx in
    if at lx COLON then begin
      advance lx;
      let line = expect_int lx in
      expect lx COLON;
      let col = expect_int lx in
      Loc.File { file = s; line; col }
    end
    else if ident_is lx "at" then begin
      advance lx;
      Loc.Name (s, parse_loc lx)
    end
    else Loc.Name (s, Loc.Unknown)
  | _ -> fail lx ("expected location, got " ^ describe lx)

(* [%x] or [%x#1]: '#' is not an identifier character, so the index lexes
   as HASH then INT *)
let parse_operand_ref lx scope =
  if at lx PCT_IDENT then begin
    let src = source lx in
    let off = token_start lx + 1 in
    let len = token_stop lx - off in
    advance lx;
    let index =
      if at lx HASH then begin
        advance lx;
        expect_int lx
      end
      else 0
    in
    match lookup_def scope src off len (Span_table.hash_span src off len) with
    | vs ->
      if index >= Array.length vs then
        raise
          (Parse_error
             (Fmt.str "value group %%%s has %d results, requested #%d"
                (String.sub src off len) (Array.length vs) index))
      else vs.(index)
    | exception Not_found ->
      make_pending scope (pending_key (String.sub src off len) index)
  end
  else unexpected lx "%operand"

(* The count of [%a =] or [%a:2 =], the lookahead past the name. A list
   [%a, %b =] is rejected at its comma, as it always was. The loops of the
   per-op path are top-level functions, so they allocate no closure. *)
let parse_result_count lx =
  let count =
    if at lx COLON then begin
      advance lx;
      expect_int lx
    end
    else 1
  in
  if at lx COMMA then unexpected lx "%result" else expect lx EQUAL;
  count

(* The arguments of [block] from index [i] on, up to and past the closing
   parenthesis. Each is defined as it is parsed; the caller adds them all
   to the block in one copy of its argument array. *)
let[@tail_mod_cons] rec parse_block_args lx scope block i =
  if at lx RPAREN then begin
    advance lx;
    []
  end
  else if at lx PCT_IDENT then begin
    let src = source lx and off = token_start lx + 1 in
    let len = token_stop lx - off in
    advance lx;
    expect lx COLON;
    let v = Ircore.new_block_arg block i (parse_type lx) in
    define_values lx scope src off len [| v |];
    if at lx COMMA then advance lx;
    v :: parse_block_args lx scope block (i + 1)
  end
  else (unexpected [@tailcall false]) lx "%arg"

(* the operands up to and past the closing parenthesis *)
let rec parse_operands lx scope =
  if at lx RPAREN then begin
    advance lx;
    take scope.operands
  end
  else begin
    push scope.operands (parse_operand_ref lx scope);
    if at lx COMMA then advance lx;
    parse_operands lx scope
  end

(* the successors up to and past the closing bracket *)
let rec parse_successors lx scope =
  if at lx RBRACKET then begin
    advance lx;
    take scope.successors
  end
  else if at lx CARET_IDENT then begin
    push scope.successors (take_block lx scope);
    if at lx COMMA then advance lx;
    parse_successors lx scope
  end
  else unexpected lx "^block"

(* each operand's type must match the signature; a forward reference
   takes its type from its first use *)
let rec check_operand_types lx op_name vs i = function
  | [] -> ()
  | t :: ts ->
    let v = vs.(i) in
    let vt = Ircore.value_typ v in
    if vt == pending_typ then v.Ircore.v_typ <- t
    else if not (Typ.equal vt t) then
      fail lx
        (Fmt.str "op %s: operand %d has type %a but signature says %a" op_name
           i Typ.pp vt Typ.pp t);
    check_operand_types lx op_name vs (i + 1) ts

let rec parse_op lx scope : Ircore.op =
  (* the result name is a span of the source, bound once the op exists *)
  let src = source lx in
  let named = at lx PCT_IDENT in
  let name_off = if named then token_start lx + 1 else 0 in
  let name_len = if named then token_stop lx - name_off else 0 in
  if named then advance lx;
  let declared = if named then parse_result_count lx else 0 in
  let op_name =
    if at lx STRING then memoized lx lx.names (token_stop lx) take_text
    else unexpected lx "op name string"
  in
  expect lx LPAREN;
  let operands = parse_operands lx scope in
  let successors =
    if at lx LBRACKET then begin
      advance lx;
      parse_successors lx scope
    end
    else [||]
  in
  let regions =
    if at lx LPAREN then begin
      advance lx;
      parse_regions lx scope
    end
    else []
  in
  (* attributes *)
  let attrs = if at lx LBRACE then parse_attr_dict lx else [] in
  (* type signature: a function type, parsed (and shared) by parse_type;
     anything else fails with "expected (" *)
  expect lx COLON;
  if not (at lx LPAREN) then expect lx LPAREN;
  let operand_types, result_types =
    match parse_type lx with
    | Typ.Func (ins, outs) -> (ins, outs)
    | _ -> fail lx "expected function type signature"
  in
  if List.compare_length_with operand_types (Array.length operands) <> 0 then
    fail lx
      (Fmt.str "op %s: %d operands but %d operand types" op_name
         (Array.length operands) (List.length operand_types));
  check_operand_types lx op_name operands 0 operand_types;
  (* optional trailing location *)
  let loc = if ident_is lx "loc" then parse_loc lx else Loc.unknown in
  let op =
    Ircore.make ~operands ~result_types:(Array.of_list result_types) ~attrs
      ~regions ~successors ~loc op_name
  in
  (* the one result group names all the results *)
  let results = op.Ircore.results in
  if named then begin
    if declared <> Array.length results then
      fail lx
        (Fmt.str "op %s: %d results declared but signature has %d" op_name
           declared (Array.length results));
    define_values lx scope src name_off name_len results
  end;
  op

and[@tail_mod_cons] parse_regions lx scope =
  let r = parse_region lx scope in
  if at lx COMMA then begin
    advance lx;
    r :: parse_regions lx scope
  end
  else begin
    expect lx RPAREN;
    [ r ]
  end

and parse_region lx outer_scope : Ircore.region =
  expect lx LBRACE;
  let scope = new_scope (Some outer_scope) in
  let region = Ircore.create_region () in
  (* anonymous entry block: ops before any ^label *)
  let parse_block_body block =
    let rec go () =
      match peek lx with
      | RBRACE | CARET_IDENT -> ()
      | _ ->
        let op = parse_op lx scope in
        Ircore.insert_at_end block op;
        go ()
    in
    go ()
  in
  (match peek lx with
  | RBRACE | CARET_IDENT -> ()
  | _ ->
    let entry = Ircore.create_block () in
    Ircore.append_block region entry;
    parse_block_body entry);
  (* labeled blocks *)
  let rec labeled () =
    match peek lx with
    | CARET_IDENT ->
      let start = token_start lx and stop = token_stop lx in
      let block = take_block lx scope in
      if Option.is_some (Ircore.block_parent block) then
        fail lx
          (Fmt.str "redefinition of block %s"
             (String.sub (source lx) start (stop - start)));
      (* block arguments *)
      if at lx LPAREN then begin
        advance lx;
        Ircore.add_block_args block
          (parse_block_args lx scope block (Array.length block.Ircore.b_args))
      end;
      expect lx COLON;
      Ircore.append_block region block;
      parse_block_body block;
      labeled ()
    | RBRACE -> advance lx
    | _ -> fail lx ("expected block or '}', got " ^ describe lx)
  in
  labeled ();
  check_resolved scope;
  (* unplaced forward-referenced blocks are an error *)
  Span_table.iter
    (fun src off len b ->
      if Option.is_none (Ircore.block_parent b) then
        raise
          (Parse_error
             (Fmt.str "use of undefined block ^%s" (String.sub src off len))))
    scope.blocks;
  region

(* ---------------------------------------------------------------- *)
(* Entry points                                                      *)
(* ---------------------------------------------------------------- *)

(* global statistics (Ir.Stats) *)
let stat_modules =
  Stats.counter ~component:"parser" "modules"
    ~desc:"texts parsed by parse_module, failed parses included"

(** Parse a sequence of top-level ops. If the input is a single
    [builtin.module], return it; otherwise wrap the ops in a fresh module. *)
let parse_module src : (Ircore.op, string) result =
  Stats.incr stat_modules;
  let lx = Lexer.create src in
  try
    let scope = new_scope None in
    let rec go acc =
      if at lx EOF then List.rev acc else go (parse_op lx scope :: acc)
    in
    let ops = go [] in
    check_resolved scope;
    match ops with
    | [ op ] when op.Ircore.op_name = "builtin.module" -> Ok op
    | ops ->
      let block = Ircore.create_block () in
      List.iter (Ircore.insert_at_end block) ops;
      let region = Ircore.region_with_block block in
      Ok
        (Ircore.make ~operands:[||] ~result_types:[||] ~attrs:[]
           ~regions:[ region ] ~successors:[||] ~loc:Loc.unknown
           "builtin.module")
  with
  | Parse_error msg -> Error msg
  | Lexer.Error (msg, off) ->
    let line, col = Lexer.line_col lx off in
    Error (Fmt.str "%d:%d: %s" line col msg)

(** Parse a single operation. *)
let parse_op_string src : (Ircore.op, string) result =
  let lx = Lexer.create src in
  try
    let scope = new_scope None in
    let op = parse_op lx scope in
    if not (at lx EOF) then Error "trailing input after operation"
    else Ok op
  with
  | Parse_error msg -> Error msg
  | Lexer.Error (msg, off) ->
    let line, col = Lexer.line_col lx off in
    Error (Fmt.str "%d:%d: %s" line col msg)

let parse_type_string src : (Typ.t, string) result =
  let lx = Lexer.create src in
  try Ok (parse_type lx) with
  | Parse_error msg -> Error msg
  | Lexer.Error (msg, off) ->
    let line, col = Lexer.line_col lx off in
    Error (Fmt.str "%d:%d: %s" line col msg)

let parse_attr_string src : (Attr.t, string) result =
  let lx = Lexer.create src in
  try Ok (parse_attr lx) with
  | Parse_error msg -> Error msg
  | Lexer.Error (msg, off) ->
    let line, col = Lexer.line_col lx off in
    Error (Fmt.str "%d:%d: %s" line col msg)
