(** Recursive-descent parser for the generic MLIR textual format produced by
    {!Printer}. Supports forward references to values (multi-block CFGs) via
    placeholder values that are patched once the definition is seen, and
    forward references to blocks via on-demand block creation. *)

open Lexer

exception Parse_error of string

let fail lx msg =
  let line, col = Lexer.line_col lx (Lexer.token_start lx) in
  raise (Parse_error (Fmt.str "%d:%d: %s" line col msg))

let expect lx tok =
  let got = peek lx in
  if got = tok then advance lx
  else fail lx (Fmt.str "expected %a, got %a" pp_token tok pp_token got)

let expect_ident lx =
  match peek lx with
  | IDENT s ->
    advance lx;
    s
  | t -> fail lx (Fmt.str "expected identifier, got %a" pp_token t)

let expect_int lx =
  match peek lx with
  | INT n ->
    advance lx;
    n
  | MINUS ->
    advance lx;
    (match peek lx with
    | INT n ->
      advance lx;
      -n
    | t -> fail lx (Fmt.str "expected integer, got %a" pp_token t))
  | t -> fail lx (Fmt.str "expected integer, got %a" pp_token t)

(* ---------------------------------------------------------------- *)
(* Scopes                                                            *)
(* ---------------------------------------------------------------- *)

let pending_typ = Typ.Opaque ("__pending__", "")

type scope = {
  defs : (string, Ircore.value array) Hashtbl.t;
  pendings : (string, Ircore.value) Hashtbl.t;
      (** key is "name" or "name#i"; value is the placeholder *)
  blocks : (string, Ircore.block) Hashtbl.t;
  parent : scope option;
}

let new_scope parent =
  {
    defs = Hashtbl.create 16;
    pendings = Hashtbl.create 4;
    blocks = Hashtbl.create 4;
    parent;
  }

let rec lookup_def scope name =
  match Hashtbl.find_opt scope.defs name with
  | Some vs -> Some vs
  | None -> ( match scope.parent with None -> None | Some p -> lookup_def p name)

let make_pending scope key =
  match Hashtbl.find_opt scope.pendings key with
  | Some v -> v
  | None ->
    let op = Ircore.create ~result_types:[ pending_typ ] "__pending__" in
    let v = Ircore.result op in
    Hashtbl.replace scope.pendings key v;
    v

(** Reference to [%name] or [%name#i]. *)
let lookup_value scope name index =
  match lookup_def scope name with
  | Some vs ->
    if index >= Array.length vs then
      raise
        (Parse_error
           (Fmt.str "value group %%%s has %d results, requested #%d" name
              (Array.length vs) index))
    else vs.(index)
  | None ->
    let key = if index = 0 then name else Fmt.str "%s#%d" name index in
    make_pending scope key

let resolve_pending scope key real =
  match Hashtbl.find_opt scope.pendings key with
  | None -> ()
  | Some placeholder ->
    placeholder.Ircore.v_typ <- Ircore.value_typ real;
    Ircore.replace_all_uses_with placeholder ~with_:real;
    (match Ircore.defining_op placeholder with
    | Some op -> Ircore.erase_unchecked op
    | None -> ());
    Hashtbl.remove scope.pendings key

let define_values scope name (vs : Ircore.value array) =
  if Hashtbl.mem scope.defs name then
    raise (Parse_error (Fmt.str "redefinition of value %%%s" name));
  Hashtbl.replace scope.defs name vs;
  Array.iteri
    (fun i v ->
      resolve_pending scope (if i = 0 then name else Fmt.str "%s#%d" name i) v;
      if i = 0 then resolve_pending scope (Fmt.str "%s#0" name) v)
    vs

let get_block scope name =
  match Hashtbl.find_opt scope.blocks name with
  | Some b -> b
  | None ->
    let b = Ircore.create_block () in
    Hashtbl.replace scope.blocks name b;
    b

(* ---------------------------------------------------------------- *)
(* Types                                                             *)
(* ---------------------------------------------------------------- *)

let rec parse_type lx : Typ.t =
  match peek lx with
  | LPAREN -> parse_function_type lx
  | IDENT "index" ->
    advance lx;
    Typ.Index
  | IDENT "f16" ->
    advance lx;
    Typ.f16
  | IDENT "bf16" ->
    advance lx;
    Typ.bf16
  | IDENT "f32" ->
    advance lx;
    Typ.f32
  | IDENT "f64" ->
    advance lx;
    Typ.f64
  | IDENT s
    when String.length s > 1
         && s.[0] = 'i'
         && String.for_all (fun c -> c >= '0' && c <= '9')
              (String.sub s 1 (String.length s - 1)) ->
    advance lx;
    Typ.Integer (int_of_string (String.sub s 1 (String.length s - 1)))
  | IDENT "vector" ->
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
  | IDENT "tensor" ->
    advance lx;
    expect lx LT;
    let dims = raw_dimension_list lx in
    let elt = parse_type lx in
    expect lx GT;
    (match dims with
    | `Ranked dims -> Typ.Ranked_tensor (dims, elt)
    | `Unranked -> Typ.Unranked_tensor elt)
  | IDENT "memref" ->
    advance lx;
    expect lx LT;
    let dims = raw_dimension_list lx in
    let elt = parse_type lx in
    let layout =
      if peek lx = COMMA then begin
        advance lx;
        parse_layout lx
      end
      else Typ.Identity
    in
    expect lx GT;
    (match dims with
    | `Ranked dims -> Typ.Memref (dims, elt, layout)
    | `Unranked -> Typ.Unranked_memref elt)
  | IDENT "tuple" ->
    advance lx;
    expect lx LT;
    let rec go acc =
      let t = parse_type lx in
      if peek lx = COMMA then begin
        advance lx;
        go (t :: acc)
      end
      else List.rev (t :: acc)
    in
    let ts = if peek lx = GT then [] else go [] in
    expect lx GT;
    Typ.Tuple ts
  | BANG ->
    advance lx;
    let name = expect_ident lx in
    let dialect, body =
      match String.index_opt name '.' with
      | None -> (name, "")
      | Some i ->
        (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
    in
    (* optional <...> raw body, balanced *)
    if peek lx = LT then begin
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
  | t -> fail lx (Fmt.str "expected type, got %a" pp_token t)

and parse_function_type lx =
  expect lx LPAREN;
  let ins = parse_type_list_until_rparen lx in
  expect lx ARROW;
  let outs =
    if peek lx = LPAREN then begin
      advance lx;
      parse_type_list_until_rparen lx
    end
    else [ parse_type lx ]
  in
  Typ.Func (ins, outs)

and parse_type_list_until_rparen lx =
  if peek lx = RPAREN then begin
    advance lx;
    []
  end
  else begin
    let rec go acc =
      let t = parse_type lx in
      if peek lx = COMMA then begin
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
  match peek lx with
  | IDENT "strided" ->
    advance lx;
    expect lx LT;
    expect lx LBRACKET;
    let parse_sdim () =
      match peek lx with
      | QUESTION ->
        advance lx;
        Typ.Dynamic
      | _ -> Typ.Static (expect_int lx)
    in
    let rec go acc =
      if peek lx = RBRACKET then begin
        advance lx;
        List.rev acc
      end
      else begin
        let d = parse_sdim () in
        if peek lx = COMMA then advance lx;
        go (d :: acc)
      end
    in
    let strides = go [] in
    let offset =
      if peek lx = COMMA then begin
        advance lx;
        (match peek lx with
        | IDENT "offset" ->
          advance lx;
          expect lx COLON
        | _ -> fail lx "expected offset");
        parse_sdim ()
      end
      else Typ.Static 0
    in
    expect lx GT;
    Typ.Strided { offset; strides }
  | IDENT "affine_map" ->
    advance lx;
    expect lx LT;
    let m = parse_affine_map lx in
    expect lx GT;
    Typ.Affine_layout m
  | t -> fail lx (Fmt.str "expected layout, got %a" pp_token t)

(* ---------------------------------------------------------------- *)
(* Affine maps                                                       *)
(* ---------------------------------------------------------------- *)

and parse_affine_map lx : Affine.map =
  expect lx LPAREN;
  let parse_name_list close =
    let rec go acc =
      if peek lx = close then begin
        advance lx;
        List.rev acc
      end
      else begin
        let n = expect_ident lx in
        if peek lx = COMMA then advance lx;
        go (n :: acc)
      end
    in
    go []
  in
  let dims = parse_name_list RPAREN in
  let syms =
    if peek lx = LBRACKET then begin
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
    if peek lx = RPAREN then begin
      advance lx;
      List.rev acc
    end
    else begin
      let e = parse_affine_expr lx env in
      if peek lx = COMMA then advance lx;
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
      match peek lx with
      | STAR ->
        advance lx;
        go (Affine.Mul (lhs, factor ()))
      | IDENT "mod" ->
        advance lx;
        go (Affine.Mod (lhs, factor ()))
      | IDENT "floordiv" ->
        advance lx;
        go (Affine.Floordiv (lhs, factor ()))
      | IDENT "ceildiv" ->
        advance lx;
        go (Affine.Ceildiv (lhs, factor ()))
      | _ -> lhs
    in
    go lhs
  and factor () =
    match peek lx with
    | INT n ->
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
    | IDENT name ->
      advance lx;
      env name
    | t -> fail lx (Fmt.str "expected affine expression, got %a" pp_token t)
  in
  Affine.simplify (expr ())

(* ---------------------------------------------------------------- *)
(* Attributes                                                        *)
(* ---------------------------------------------------------------- *)

let rec parse_attr lx : Attr.t =
  match peek lx with
  | INT n ->
    advance lx;
    parse_int_suffix lx n
  | FLOATLIT f ->
    advance lx;
    parse_float_suffix lx f
  | MINUS ->
    advance lx;
    (match peek lx with
    | INT n ->
      advance lx;
      parse_int_suffix lx (-n)
    | FLOATLIT f ->
      advance lx;
      parse_float_suffix lx (-.f)
    | t -> fail lx (Fmt.str "expected number after '-', got %a" pp_token t))
  | STRING s ->
    advance lx;
    Attr.String s
  | IDENT "true" ->
    advance lx;
    Attr.Bool true
  | IDENT "false" ->
    advance lx;
    Attr.Bool false
  | IDENT "unit" ->
    advance lx;
    Attr.Unit
  | IDENT "dense" ->
    advance lx;
    expect lx LT;
    let neg_int () =
      match peek lx with
      | MINUS ->
        advance lx;
        (match next lx with
        | INT n -> `I (-n)
        | FLOATLIT f -> `F (-.f)
        | t -> raise (Parse_error (Fmt.str "bad dense element %a" pp_token t)))
      | INT n ->
        advance lx;
        `I n
      | FLOATLIT f ->
        advance lx;
        `F f
      | t -> fail lx (Fmt.str "bad dense element %a" pp_token t)
    in
    let elems =
      if peek lx = LBRACKET then begin
        advance lx;
        let rec go acc =
          if peek lx = RBRACKET then begin
            advance lx;
            List.rev acc
          end
          else begin
            let e = neg_int () in
            if peek lx = COMMA then advance lx;
            go (e :: acc)
          end
        in
        go []
      end
      else [ neg_int () ]
    in
    expect lx GT;
    expect lx COLON;
    let t = parse_type lx in
    if List.exists (function `F _ -> true | `I _ -> false) elems then
      Attr.Dense_float
        (List.map (function `F f -> f | `I n -> float_of_int n) elems, t)
    else Attr.Dense_int (List.map (function `I n -> n | `F _ -> 0) elems, t)
  | IDENT "array" ->
    advance lx;
    expect lx LT;
    let _elt = expect_ident lx in
    let xs =
      if peek lx = COLON then begin
        advance lx;
        let rec go acc =
          if peek lx = GT then List.rev acc
          else begin
            let n = expect_int lx in
            if peek lx = COMMA then advance lx;
            go (n :: acc)
          end
        in
        go []
      end
      else []
    in
    expect lx GT;
    Attr.Int_array xs
  | IDENT "affine_map" ->
    advance lx;
    expect lx LT;
    let m = parse_affine_map lx in
    expect lx GT;
    Attr.Affine_map m
  | AT_IDENT root ->
    advance lx;
    let rec go acc =
      if peek lx = DCOLON then begin
        advance lx;
        match next lx with
        | AT_IDENT n -> go (n :: acc)
        | t -> fail lx (Fmt.str "expected @symbol after ::, got %a" pp_token t)
      end
      else List.rev acc
    in
    Attr.Symbol_ref (root, go [])
  | LBRACKET ->
    advance lx;
    let rec go acc =
      if peek lx = RBRACKET then begin
        advance lx;
        List.rev acc
      end
      else begin
        let a = parse_attr lx in
        if peek lx = COMMA then advance lx;
        go (a :: acc)
      end
    in
    Attr.Array (go [])
  | LBRACE -> Attr.Dict (parse_attr_dict lx)
  | _ -> Attr.Type (parse_type lx)

and parse_int_suffix lx n =
  if peek lx = COLON then begin
    advance lx;
    let t = parse_type lx in
    Attr.Int (n, t)
  end
  else Attr.Int (n, Typ.i64)

and parse_float_suffix lx f =
  if peek lx = COLON then begin
    advance lx;
    let t = parse_type lx in
    Attr.Float (f, t)
  end
  else Attr.Float (f, Typ.f64)

and parse_attr_dict lx : Attr.dict =
  expect lx LBRACE;
  let rec go acc =
    if peek lx = RBRACE then begin
      advance lx;
      List.rev acc
    end
    else begin
      let key =
        match next lx with
        | IDENT s -> s
        | STRING s -> s
        | t -> fail lx (Fmt.str "expected attribute name, got %a" pp_token t)
      in
      let v =
        if peek lx = EQUAL then begin
          advance lx;
          parse_attr lx
        end
        else Attr.Unit
      in
      if peek lx = COMMA then advance lx;
      go ((key, v) :: acc)
    end
  in
  go []

(* ---------------------------------------------------------------- *)
(* Operations, blocks, regions                                       *)
(* ---------------------------------------------------------------- *)

type result_spec = { rs_name : string; rs_count : int }

(** [loc(...)] suffix: files, names (optionally nested), fusions. *)
let rec parse_loc lx : Loc.t =
  (match next lx with
  | IDENT "loc" -> ()
  | t -> fail lx (Fmt.str "expected loc, got %a" pp_token t));
  expect lx LPAREN;
  let l = parse_loc_body lx in
  expect lx RPAREN;
  l

and parse_loc_body lx : Loc.t =
  match peek lx with
  | IDENT "unknown" ->
    advance lx;
    Loc.Unknown
  | IDENT "fused" ->
    advance lx;
    expect lx LBRACKET;
    let rec go acc =
      if peek lx = RBRACKET then begin
        advance lx;
        List.rev acc
      end
      else begin
        let l = parse_loc lx in
        if peek lx = COMMA then advance lx;
        go (l :: acc)
      end
    in
    Loc.Fused (go [])
  | STRING s -> (
    advance lx;
    match peek lx with
    | COLON ->
      advance lx;
      let line = expect_int lx in
      expect lx COLON;
      let col = expect_int lx in
      Loc.File { file = s; line; col }
    | IDENT "at" ->
      advance lx;
      Loc.Name (s, parse_loc lx)
    | _ -> Loc.Name (s, Loc.Unknown))
  | t -> fail lx (Fmt.str "expected location, got %a" pp_token t)

let parse_operand_ref lx scope =
  match next lx with
  | PCT_IDENT name ->
    (* the lexer folds "#": %x#1 lexes as PCT_IDENT "x" HASH? No: '#' is not
       an id char start... '#' is not in is_id_char, so %x#1 -> PCT_IDENT "x",
       HASH, INT 1. *)
    if peek lx = HASH then begin
      advance lx;
      let i = expect_int lx in
      lookup_value scope name i
    end
    else lookup_value scope name 0
  | t -> fail lx (Fmt.str "expected %%operand, got %a" pp_token t)

let rec parse_op lx scope : Ircore.op =
  (* optional results *)
  let result_specs =
    if (match peek lx with PCT_IDENT _ -> true | _ -> false) then begin
      let rec go acc =
        match next lx with
        | PCT_IDENT name ->
          let count =
            if peek lx = COLON then begin
              advance lx;
              expect_int lx
            end
            else 1
          in
          let acc = { rs_name = name; rs_count = count } :: acc in
          if peek lx = COMMA then go acc
          else begin
            expect lx EQUAL;
            List.rev acc
          end
        | t -> fail lx (Fmt.str "expected %%result, got %a" pp_token t)
      in
      go []
    end
    else []
  in
  let op_name =
    match next lx with
    | STRING s -> s
    | t -> fail lx (Fmt.str "expected op name string, got %a" pp_token t)
  in
  expect lx LPAREN;
  let operands =
    let rec go acc =
      if peek lx = RPAREN then begin
        advance lx;
        List.rev acc
      end
      else begin
        let v = parse_operand_ref lx scope in
        if peek lx = COMMA then advance lx;
        go (v :: acc)
      end
    in
    go []
  in
  (* successors *)
  let successors =
    if peek lx = LBRACKET then begin
      advance lx;
      let rec go acc =
        if peek lx = RBRACKET then begin
          advance lx;
          List.rev acc
        end
        else begin
          match next lx with
          | CARET_IDENT name ->
            let b = get_block scope name in
            if peek lx = COMMA then advance lx;
            go (b :: acc)
          | t -> fail lx (Fmt.str "expected ^block, got %a" pp_token t)
        end
      in
      go []
    end
    else []
  in
  (* regions *)
  let regions =
    if peek lx = LPAREN then begin
      advance lx;
      let rec go acc =
        let r = parse_region lx scope in
        if peek lx = COMMA then begin
          advance lx;
          go (r :: acc)
        end
        else begin
          expect lx RPAREN;
          List.rev (r :: acc)
        end
      in
      go []
    end
    else []
  in
  (* attributes *)
  let attrs = if peek lx = LBRACE then parse_attr_dict lx else [] in
  (* type signature *)
  expect lx COLON;
  let operand_types, result_types =
    match parse_function_type lx with
    | Typ.Func (ins, outs) -> (ins, outs)
    | _ -> fail lx "expected function type signature"
  in
  if List.length operand_types <> List.length operands then
    fail lx
      (Fmt.str "op %s: %d operands but %d operand types" op_name
         (List.length operands) (List.length operand_types));
  List.iteri
    (fun i v ->
      let t = List.nth operand_types i in
      if Ircore.value_typ v = pending_typ then v.Ircore.v_typ <- t
      else if not (Typ.equal (Ircore.value_typ v) t) then
        fail lx
          (Fmt.str "op %s: operand %d has type %a but signature says %a" op_name
             i Typ.pp (Ircore.value_typ v) Typ.pp t))
    operands;
  (* optional trailing location *)
  let loc =
    match peek lx with
    | IDENT "loc" -> parse_loc lx
    | _ -> Loc.unknown
  in
  let op =
    Ircore.create ~operands ~result_types ~attrs ~regions ~successors ~loc
      op_name
  in
  (* define results *)
  let results = op.Ircore.results in
  let total = List.fold_left (fun a s -> a + s.rs_count) 0 result_specs in
  if result_specs <> [] && total <> Array.length results then
    fail lx
      (Fmt.str "op %s: %d results declared but signature has %d" op_name total
         (Array.length results));
  let idx = ref 0 in
  List.iter
    (fun spec ->
      let vs = Array.sub results !idx spec.rs_count in
      idx := !idx + spec.rs_count;
      define_values scope spec.rs_name vs)
    result_specs;
  op

and parse_region lx outer_scope : Ircore.region =
  expect lx LBRACE;
  let scope = new_scope (Some outer_scope) in
  let region = Ircore.create_region () in
  (* anonymous entry block: ops before any ^label *)
  let parse_block_body block =
    let rec go () =
      match peek lx with
      | RBRACE | CARET_IDENT _ -> ()
      | _ ->
        let op = parse_op lx scope in
        Ircore.insert_at_end block op;
        go ()
    in
    go ()
  in
  (match peek lx with
  | RBRACE -> ()
  | CARET_IDENT _ -> ()
  | _ ->
    let entry = Ircore.create_block () in
    Ircore.append_block region entry;
    parse_block_body entry);
  (* labeled blocks *)
  let rec labeled () =
    match peek lx with
    | CARET_IDENT name ->
      advance lx;
      let block = get_block scope name in
      if Ircore.block_parent block <> None then
        fail lx (Fmt.str "redefinition of block ^%s" name);
      (* block arguments *)
      if peek lx = LPAREN then begin
        advance lx;
        let rec args () =
          if peek lx = RPAREN then advance lx
          else begin
            match next lx with
            | PCT_IDENT an ->
              expect lx COLON;
              let t = parse_type lx in
              let v = Ircore.add_block_arg block t in
              define_values scope an [| v |];
              if peek lx = COMMA then advance lx;
              args ()
            | t -> fail lx (Fmt.str "expected %%arg, got %a" pp_token t)
          end
        in
        args ()
      end;
      expect lx COLON;
      Ircore.append_block region block;
      parse_block_body block;
      labeled ()
    | RBRACE -> advance lx
    | t -> fail lx (Fmt.str "expected block or '}', got %a" pp_token t)
  in
  labeled ();
  (* all pendings of this scope must be resolved *)
  Hashtbl.iter
    (fun key _ ->
      raise (Parse_error (Fmt.str "use of undefined value %%%s" key)))
    scope.pendings;
  (* unplaced forward-referenced blocks are an error *)
  Hashtbl.iter
    (fun name b ->
      if Ircore.block_parent b = None then
        raise (Parse_error (Fmt.str "use of undefined block ^%s" name)))
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
      if peek lx = EOF then List.rev acc else go (parse_op lx scope :: acc)
    in
    let ops = go [] in
    Hashtbl.iter
      (fun key _ ->
        raise (Parse_error (Fmt.str "use of undefined value %%%s" key)))
      scope.pendings;
    match ops with
    | [ op ] when op.Ircore.op_name = "builtin.module" -> Ok op
    | ops ->
      let block = Ircore.create_block () in
      List.iter (Ircore.insert_at_end block) ops;
      let region = Ircore.region_with_block block in
      Ok (Ircore.create ~regions:[ region ] "builtin.module")
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
    if peek lx <> EOF then Error "trailing input after operation"
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
