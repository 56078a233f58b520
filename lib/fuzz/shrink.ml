(** Greedy structural test-case minimization.

    Given a failing module and the oracle that rejected it, repeatedly try
    mutations that make the module smaller — dropping unused ops, replacing
    an op's results with fresh constants (which detaches whole regions in
    one step when the op is an [scf.for]/[scf.if]), and deleting uncalled
    helper functions — keeping a mutation only if the same oracle still
    fails on the mutated clone. Terminates when a full sweep makes no
    progress. *)

open Ir

(* ops that must not be dropped: structure and terminators *)
let is_protected op =
  match op.Ircore.op_name with
  | "builtin.module" | "func.func" | "func.return" | "scf.yield"
  | "scf.condition" | "cf.br" | "cf.cond_br" | "llvm.br" | "llvm.cond_br"
  | "llvm.return" ->
    true
  | _ -> false

(** All ops of the module in a stable pre-order; mutation candidates are
    addressed by their index in this enumeration so the same candidate can
    be located again in a fresh clone. *)
let enumerate m =
  let acc = ref [] in
  Ircore.walk (fun op -> acc := op :: !acc) m;
  Array.of_list (List.rev !acc)

let op_count m = Array.length (enumerate m)

let zero_constant_for rw t =
  match t with
  | t when Typ.is_integer t ->
    if Typ.equal t Typ.i1 then Some (Dialects.Arith.constant rw (Attr.Bool false) t)
    else Some (Dialects.Dutil.const_int rw ~typ:t 0)
  | Typ.Float _ -> Some (Dialects.Dutil.const_float rw ~typ:t 0.0)
  | Typ.Index -> Some (Dialects.Arith.const_index rw 0)
  | _ -> None

(** Try to remove the op at pre-order index [idx] of a clone of [m]:
    results without uses are simply dropped; used scalar results are
    replaced by zero constants. Returns the mutated clone, or [None] when
    the candidate is protected or has non-scalar live results. *)
let try_remove m idx =
  let c = Ircore.clone_op m in
  let ops = enumerate c in
  if idx >= Array.length ops then None
  else begin
    let op = ops.(idx) in
    if is_protected op || Ircore.op_parent op = None then None
    else begin
      let live =
        List.filter (fun r -> Ircore.has_uses r) (Ircore.results op)
      in
      let scalar t =
        Typ.is_integer t || Typ.is_index t
        || match t with Typ.Float _ -> true | _ -> false
      in
      let replaceable =
        List.for_all (fun r -> scalar (Ircore.value_typ r)) live
      in
      if not replaceable then None
      else begin
        let rw = Rewriter.create ~ip:(Builder.Before op) () in
        List.iter
          (fun r ->
            match zero_constant_for rw (Ircore.value_typ r) with
            | Some z -> Ircore.replace_all_uses_with r ~with_:z
            | None -> ())
          live;
        match Ircore.erase op with
        | () -> Some c
        | exception Ircore.Has_live_uses _ -> None
      end
    end
  end

(** Delete the function at index [idx] when nothing references its symbol. *)
let try_drop_function m idx =
  let c = Ircore.clone_op m in
  let ops = enumerate c in
  if idx >= Array.length ops then None
  else begin
    let op = ops.(idx) in
    if op.Ircore.op_name <> "func.func" then None
    else
      match Symbol.symbol_name op with
      | Some name when name <> Gen.entry_name ->
        let called = ref false in
        Ircore.walk
          (fun o ->
            match Ircore.attr o "callee" with
            | Some (Attr.Symbol_ref (s, _)) when s = name -> called := true
            | _ -> ())
          c;
        if !called then None
        else begin
          match Ircore.erase op with
          | () -> Some c
          | exception Ircore.Has_live_uses _ -> None
        end
      | _ -> None
  end

(** Minimize [m] with respect to [still_fails]. [max_steps] bounds the
    total number of candidate evaluations (each evaluation re-runs the
    failing oracle, which may execute the module). *)
let shrink ?(max_steps = 2000) ~still_fails m =
  let steps = ref 0 in
  let current = ref (Ircore.clone_op m) in
  let budget_left () = !steps < max_steps in
  let try_accept candidate =
    incr steps;
    match candidate with
    | Some c when op_count c < op_count !current && still_fails c ->
      current := c;
      true
    | _ -> false
  in
  let progress = ref true in
  while !progress && budget_left () do
    progress := false;
    (* sweep from the back so data-flow consumers go before producers *)
    let n = op_count !current in
    let idx = ref (n - 1) in
    while !idx >= 0 && budget_left () do
      if try_accept (try_drop_function !current !idx) then progress := true
      else if try_accept (try_remove !current !idx) then progress := true;
      decr idx
    done
  done;
  !current
