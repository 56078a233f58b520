(** IR verification: structural SSA invariants (dominance, terminators,
    successor wiring, use-def consistency) plus per-op verifiers registered
    in the {!Context}. *)

open Ircore

let diag op fmt =
  Fmt.kstr
    (fun m -> Diag.error ~loc:op.op_loc "'%s': %s" op.op_name m)
    fmt

(* [symbols] resolves names in the nearest enclosing symbol table, when
   one is being verified *)
let verify_op_structure ctx ~symbols op errors =
  (* registration *)
  (match Context.lookup ctx op.op_name with
  | Some def -> (
    (match def.Context.d_verify op with
    | Ok () -> ()
    | Error msg -> errors := diag op "%s" msg :: !errors);
    match
      (symbols, Util.Univ.find Context.symbol_user_key def.Context.d_interfaces)
    with
    | Some table, Some user -> (
      match user.Context.verify_symbol_uses ~lookup:(Hashtbl.find_opt table) op with
      | Ok () -> ()
      | Error msg -> errors := diag op "%s" msg :: !errors)
    | _ -> ())
  | None ->
    if not (Context.allows_unregistered ctx) then
      errors :=
        diag op "unregistered operation in a context that requires registration"
        :: !errors);
  (* trait checks *)
  if Context.op_has_trait ctx op Context.Same_operands_and_result_type then begin
    let tys =
      List.map value_typ (operands op) @ List.map value_typ (results op)
    in
    match tys with
    | [] -> ()
    | t :: rest ->
      if not (List.for_all (Typ.equal t) rest) then
        errors :=
          diag op "requires the same type for all operands and results"
          :: !errors
  end;
  if Context.op_has_trait ctx op Context.Terminator then begin
    match op.op_parent with
    | Some b when (match block_last_op b with Some l -> l == op | None -> false)
      ->
      ()
    | _ -> errors := diag op "terminator must be the last op in its block" :: !errors
  end;
  if Array.length op.successors > 0
     && not (Context.op_has_trait ctx op Context.Terminator)
     && Context.is_registered ctx op.op_name
  then errors := diag op "only terminators may have successors" :: !errors

let verify_block_terminator ctx ~parent b errors =
  let graph_region = Context.op_has_trait ctx parent Context.No_terminator in
  if not graph_region then
    match block_last_op b with
    | None -> errors := diag parent "block has no terminator" :: !errors
    | Some last ->
      if
        Context.is_registered ctx last.op_name
        && not (Context.op_has_trait ctx last Context.Terminator)
      then
        errors :=
          diag last "block must end with a terminator operation" :: !errors

(** Verify symbol uniqueness within symbol-table ops. Returns the table
    of a symbol-table op (name to first definition), built once for the
    symbol users nested in it. *)
let verify_symbols ctx op errors =
  if not (Context.op_has_trait ctx op Context.Symbol_table) then None
  else begin
    let seen = Hashtbl.create 8 in
    List.iter
      (fun r ->
        List.iter
          (fun b ->
            List.iter
              (fun nested ->
                match attr nested "sym_name" with
                | Some (Attr.String name) ->
                  if Hashtbl.mem seen name then
                    errors :=
                      diag nested "redefinition of symbol @%s" name :: !errors
                  else Hashtbl.replace seen name nested
                | _ -> ())
              (block_ops b))
          (region_blocks r))
      op.regions;
    Some seen
  end

(* A region enclosing the op being visited. Its dominance info is computed
   at most once, and only for a use in a block other than the def's. The
   dominance diagnostics for values it defines collect in [rs_errors],
   newest first. *)
type region_scope = {
  rs_region : region;
  rs_doms : Dominance.t Lazy.t;
  mutable rs_errors : Diag.t list;
}

(* One step of the path down to the visited op: the op of [s_scope]'s
   region that is or encloses it, and that op's block. *)
type step = { s_scope : region_scope; s_block : block; s_op : op }

(* The diagnostics in report order. A region's dominance diagnostics go
   after its terminator checks and before anything nested in it. *)
type chunk = Diags of Diag.t list | Dominance_of of region_scope

(* Check each operand of [user] once: its slot's use node must hold the
   value and be linked into the value's use list, and its definition must
   dominate the user hoisted to the defining region. [path] lists the
   enclosing regions innermost first; a value defined in none of them is
   not checked here. *)
let verify_operands path user use_def =
  Array.iteri
    (fun i v ->
      let u = user.op_uses.(i) in
      if not (u.u_value == v && use_is_linked u) then
        use_def :=
          diag user "operand #%d missing from the use list of its value" i
          :: !use_def;
      let def_block, def_op =
        match v.v_def with
        | Block_arg (b, _) -> (Some b, None)
        | Op_result (d, _) -> (d.op_parent, Some d)
      in
      match def_block with
      | None -> ()
      | Some def_block -> (
        match def_block.b_parent with
        | None -> ()
        | Some r -> (
          match List.find_opt (fun s -> s.s_scope.rs_region == r) path with
          | None -> ()
          | Some s ->
            if
              not
                (Dominance.dominates s.s_scope.rs_doms ~def_block ~def_op
                   ~user_block:s.s_block s.s_op)
            then
              s.s_scope.rs_errors <-
                diag user "operand #%d does not dominate this use" i
                :: s.s_scope.rs_errors)))
    user.operands

(** Verify [top] and everything nested in it in one walk. Use-def
    diagnostics come first, then the rest in walk order. *)
let verify ctx top : (unit, Diag.t list) result =
  let use_def = ref [] and errors = ref [] and chunks = ref [] in
  let rec visit ~symbols path op =
    verify_operands path op use_def;
    verify_op_structure ctx ~symbols op errors;
    let symbols =
      match verify_symbols ctx op errors with
      | Some _ as table -> table
      | None -> symbols
    in
    let scopes =
      List.map
        (fun r ->
          List.iter
            (fun b -> verify_block_terminator ctx ~parent:op b errors)
            (region_blocks r);
          let scope =
            { rs_region = r; rs_doms = lazy (Dominance.compute r);
              rs_errors = [] }
          in
          chunks := Dominance_of scope :: Diags !errors :: !chunks;
          errors := [];
          scope)
        op.regions
    in
    List.iter
      (fun scope ->
        List.iter
          (fun b ->
            List.iter
              (fun o ->
                visit ~symbols
                  ({ s_scope = scope; s_block = b; s_op = o } :: path)
                  o)
              (block_ops b))
          (region_blocks scope.rs_region))
      scopes
  in
  visit ~symbols:None [] top;
  let reported =
    List.concat_map
      (function
        | Diags ds -> List.rev ds
        | Dominance_of scope -> List.rev scope.rs_errors)
      (List.rev (Diags !errors :: !chunks))
  in
  match List.rev_append !use_def reported with
  | [] -> Ok ()
  | errs -> Error errs

let verify_or_fail ctx top =
  match verify ctx top with
  | Ok () -> ()
  | Error errs ->
    let msg =
      Fmt.str "@[<v>verification failed:@,%a@]"
        (Fmt.list ~sep:Fmt.cut Diag.pp)
        errs
    in
    failwith msg

(* ------------------------------------------------------------------ *)
(* Reusable per-op verification helpers for dialect definitions        *)
(* ------------------------------------------------------------------ *)

let expect_operands n op =
  if num_operands op = n then Ok ()
  else Error (Fmt.str "expected %d operands, got %d" n (num_operands op))

let expect_min_operands n op =
  if num_operands op >= n then Ok ()
  else Error (Fmt.str "expected at least %d operands, got %d" n (num_operands op))

let expect_results n op =
  if num_results op = n then Ok ()
  else Error (Fmt.str "expected %d results, got %d" n (num_results op))

let expect_regions n op =
  if List.length op.regions = n then Ok ()
  else
    Error (Fmt.str "expected %d regions, got %d" n (List.length op.regions))

let expect_attr name op =
  match attr op name with
  | Some _ -> Ok ()
  | None -> Error (Fmt.str "missing required attribute '%s'" name)

let ( let* ) = Result.bind

let all checks op =
  List.fold_left
    (fun acc check -> match acc with Error _ -> acc | Ok () -> check op)
    (Ok ()) checks
