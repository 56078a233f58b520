(** IR verification: structural SSA invariants (dominance, terminators,
    successor wiring, use-def consistency) plus per-op verifiers registered
    in the {!Context}. *)

open Ircore

let diag op fmt =
  Fmt.kstr
    (fun m -> Diag.error ~loc:op.op_loc "'%s': %s" op.op_name m)
    fmt

(* A region on the path down to the visited op. [f_op] is the op of the
   region that is or encloses the visited op; the walk updates it as it
   moves along the region. The region's dominance info is computed at
   most once, and only for a use in a block other than the def's. The
   dominance diagnostics for values the region defines collect in
   [f_errors], newest first. *)
type frame = {
  f_region : region;
  mutable f_doms : Dominance.t option;
  mutable f_errors : Diag.t list;
  mutable f_op : op;
}

(* The diagnostics in report order. A region's dominance diagnostics go
   after its terminator checks and before anything nested in it. *)
type chunk = Diags of Diag.t list | Dominance_of of frame

(* One verification walk. Use-def diagnostics are reported first; the
   others in walk order: the chunks closed so far, newest first, then
   [errors], newest first. *)
type state = {
  ctx : Context.t;
  mutable use_def : Diag.t list;
  mutable errors : Diag.t list;
  mutable chunks : chunk list;
}

let error st d = st.errors <- d :: st.errors

(* Does the op registered as [def], if it is registered, carry [trait]? *)
let has def trait =
  match def with Some d -> Context.def_has d trait | None -> false

(* Do the values of [vs] from index [i] on all have type [t]? *)
let rec all_typed t (vs : value array) i =
  i >= Array.length vs || (Typ.equal t vs.(i).v_typ && all_typed t vs (i + 1))

(* The structure checks of [op], registered as [def] when that is [Some].
   [symbols] resolves names in the nearest enclosing symbol table, when
   one is being verified. *)
let verify_op_structure st def ~symbols op =
  (* registration *)
  (match def with
  | Some def -> (
    (match def.Context.d_verify op with
    | Ok () -> ()
    | Error msg -> error st (diag op "%s" msg));
    match symbols with
    | None -> ()
    | Some table -> (
      match Context.def_interface def Context.symbol_user_key with
      | None -> ()
      | Some user -> (
        match
          user.Context.verify_symbol_uses ~lookup:(Hashtbl.find_opt table) op
        with
        | Ok () -> ()
        | Error msg -> error st (diag op "%s" msg))))
  | None ->
    if not (Context.allows_unregistered st.ctx) then
      error st
        (diag op "unregistered operation in a context that requires registration"));
  (* trait checks *)
  if has def Context.Same_operands_and_result_type then begin
    let n = Array.length op.operands in
    if n + Array.length op.results > 0 then begin
      let t = if n > 0 then op.operands.(0).v_typ else op.results.(0).v_typ in
      if not (all_typed t op.operands 0 && all_typed t op.results 0) then
        error st (diag op "requires the same type for all operands and results")
    end
  end;
  let terminator = has def Context.Terminator in
  if terminator then begin
    match op.op_parent with
    | Some b when (match block_last_op b with Some l -> l == op | None -> false)
      ->
      ()
    | _ -> error st (diag op "terminator must be the last op in its block")
  end;
  if Array.length op.successors > 0 && (not terminator) && Option.is_some def
  then error st (diag op "only terminators may have successors")

(* The terminator checks of the blocks from [b] on, in a region of
   [parent]. *)
let rec verify_terminators st ~graph_region ~parent = function
  | None -> ()
  | Some b ->
    (if not graph_region then
       match block_last_op b with
       | None -> error st (diag parent "block has no terminator")
       | Some last -> (
         match Context.lookup st.ctx last.op_name with
         | Some d when not (Context.def_has d Context.Terminator) ->
           error st (diag last "block must end with a terminator operation")
         | _ -> ()));
    verify_terminators st ~graph_region ~parent b.b_next

(** Verify symbol uniqueness within a symbol-table op. Returns the table
    of a symbol-table op (name to first definition), built once for the
    symbol users nested in it. *)
let verify_symbols st op =
  let seen = Hashtbl.create 8 in
  iter_children
    (fun nested ->
      match attr nested "sym_name" with
      | Some (Attr.String name) ->
        if Hashtbl.mem seen name then
          error st (diag nested "redefinition of symbol @%s" name)
        else Hashtbl.replace seen name nested
      | _ -> ())
    op;
  seen

let dominance f =
  match f.f_doms with
  | Some doms -> doms
  | None ->
    let doms = Dominance.compute f.f_region in
    f.f_doms <- Some doms;
    doms

(* what [frame_of] finds for a region that encloses no op of the path: its
   op is in no block *)
let no_frame =
  { f_region =
      { r_id = -1; r_first = None; r_last = None; r_parent = None;
        r_self = None };
    f_doms = None; f_errors = []; f_op = nil_op }

(* The frame of [r] on [path] (innermost first). *)
let rec frame_of r = function
  | [] -> no_frame
  | f :: rest -> if f.f_region == r then f else frame_of r rest

(* Check operand [i] of [user], defined by [def] (an op of [def_block]) or
   an argument of [def_block] when [def] is [nil_op], against the frame
   of the region of [def_block]. *)
let check_dominance path user i ~def_block def =
  match def_block.b_parent with
  | None -> ()
  | Some r -> (
    let f = frame_of r path in
    let anc = f.f_op in
    match anc.op_parent with
    | None -> ()
    | Some user_block ->
      let dominates =
        if user_block == def_block then
          def == nil_op || ((not (def == anc)) && is_before_in_block def anc)
        else Dominance.block_dominates (dominance f) def_block user_block
      in
      if not dominates then
        f.f_errors <-
          diag user "operand #%d does not dominate this use" i :: f.f_errors)

(* Check each operand of [user] once: its slot's use node must hold the
   value and be linked into the value's use list, and its definition must
   dominate the user hoisted to the defining region. [path] lists the
   frames of the enclosing regions innermost first; a value defined in
   none of them is not checked here. *)
let verify_operands st path user =
  for i = 0 to Array.length user.operands - 1 do
    let v = user.operands.(i) in
    let u = user.op_uses.(i) in
    if not (u.u_value == v && use_is_linked u) then
      st.use_def <-
        diag user "operand #%d missing from the use list of its value" i
        :: st.use_def;
    match v.v_def with
    | Block_arg (def_block, _) -> check_dominance path user i ~def_block nil_op
    | Op_result (d, _) -> (
      match d.op_parent with
      | None -> ()
      | Some def_block -> check_dominance path user i ~def_block d)
  done

let rec visit st ~symbols path op =
  verify_operands st path op;
  let def = Context.lookup st.ctx op.op_name in
  verify_op_structure st def ~symbols op;
  match op.regions with
  | [] -> ()
  | regions ->
    let symbols =
      if has def Context.Symbol_table then Some (verify_symbols st op)
      else symbols
    in
    let frames =
      open_frames st ~graph_region:(has def Context.No_terminator) op regions
    in
    visit_frames st ~symbols path frames

(* Check the terminators of each region of [op] and open its frame, in
   region order; an empty region needs none. *)
and open_frames st ~graph_region op = function
  | [] -> []
  | r :: rest -> (
    verify_terminators st ~graph_region ~parent:op r.r_first;
    match r.r_first with
    | None -> open_frames st ~graph_region op rest
    | Some _ ->
      let f = { f_region = r; f_doms = None; f_errors = []; f_op = nil_op } in
      (match st.errors with
      | [] -> st.chunks <- Dominance_of f :: st.chunks
      | errs ->
        st.chunks <- Dominance_of f :: Diags errs :: st.chunks;
        st.errors <- []);
      f :: open_frames st ~graph_region op rest)

and visit_frames st ~symbols path = function
  | [] -> ()
  | f :: rest ->
    visit_blocks st ~symbols (f :: path) f f.f_region.r_first;
    visit_frames st ~symbols path rest

and visit_blocks st ~symbols path f = function
  | None -> ()
  | Some b ->
    visit_ops st ~symbols path f b.b_first;
    visit_blocks st ~symbols path f b.b_next

and visit_ops st ~symbols path f = function
  | None -> ()
  | Some op ->
    f.f_op <- op;
    visit st ~symbols path op;
    visit_ops st ~symbols path f op.op_next

(** Verify [top] and everything nested in it in one walk. Use-def
    diagnostics come first, then the rest in walk order. *)
let verify ctx top : (unit, Diag.t list) result =
  let st = { ctx; use_def = []; errors = []; chunks = [] } in
  visit st ~symbols:None [] top;
  let reported =
    List.concat_map
      (function
        | Diags ds -> List.rev ds
        | Dominance_of f -> List.rev f.f_errors)
      (List.rev (Diags st.errors :: st.chunks))
  in
  match List.rev_append st.use_def reported with
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

(** The first failing check of [checks] on [op], in order. *)
let rec all checks op =
  match checks with
  | [] -> Ok ()
  | check :: rest -> (
    match check op with Ok () -> all rest op | Error _ as e -> e)
