(** The func dialect: functions, calls and returns. *)

open Ir

let func_op = "func.func"
let return_op = "func.return"
let call_op = "func.call"

let function_type op =
  match Ircore.attr op "function_type" with
  | Some (Attr.Type (Typ.Func (ins, outs))) -> Some (ins, outs)
  | _ -> None

let entry_block op =
  match op.Ircore.regions with
  | [ r ] -> Ircore.region_first_block r
  | _ -> None

let name op = Option.value ~default:"" (Symbol.symbol_name op)

(* first position where [actual] disagrees with [declared], lengths equal *)
let first_mismatch declared actual =
  let rec go i = function
    | d :: ds, a :: rest ->
      if Typ.equal d a then go (i + 1) (ds, rest) else Some (i, d, a)
    | _ -> None
  in
  go 0 (declared, actual)

(* the entry block binds exactly the declared inputs; a body-less
   declaration has nothing to check *)
let verify_signature op =
  match (function_type op, entry_block op) with
  | Some (ins, _), Some entry -> (
    let args = List.map Ircore.value_typ (Ircore.block_args entry) in
    if List.length args <> List.length ins then
      Error
        (Fmt.str
           "entry block must have %d arguments to match function signature"
           (List.length ins))
    else
      match first_mismatch ins args with
      | None -> Ok ()
      | Some (i, d, a) ->
        Error
          (Fmt.str
             "type of entry block argument #%d(%s) must match the type of \
              the corresponding argument in function signature(%s)"
             i (Typ.to_string a) (Typ.to_string d)))
  | _ -> Ok ()

(* a return directly inside a function yields exactly its declared
   results *)
let verify_return op =
  match Ircore.parent_op op with
  | Some f when f.Ircore.op_name = func_op -> (
    match function_type f with
    | None -> Ok ()
    | Some (_, outs) -> (
      let tys = List.map Ircore.value_typ (Ircore.operands op) in
      if List.length tys <> List.length outs then
        Error
          (Fmt.str "has %d operands, but enclosing function (@%s) returns %d"
             (List.length tys) (name f) (List.length outs))
      else
        match first_mismatch outs tys with
        | None -> Ok ()
        | Some (i, d, a) ->
          Error
            (Fmt.str
               "type of return operand %d (%s) doesn't match function \
                result type (%s) in function @%s"
               i (Typ.to_string a) (Typ.to_string d) (name f))))
  | _ -> Ok ()

(* a call to a resolved function passes exactly its declared inputs and
   binds exactly its declared results; an unresolved callee (an
   interpreter extern such as [libxsmm_gemm]) is not checked *)
let verify_call_symbol_uses ~lookup op =
  let signature =
    match Ircore.attr op "callee" with
    | Some (Attr.Symbol_ref (s, [])) -> (
      match lookup s with
      | Some f when f.Ircore.op_name = func_op -> function_type f
      | _ -> None)
    | _ -> None
  in
  match signature with
  | None -> Ok ()
  | Some (ins, outs) -> (
    let args = List.map Ircore.value_typ (Ircore.operands op) in
    let res = List.map Ircore.value_typ (Ircore.results op) in
    if List.length args <> List.length ins then
      Error "incorrect number of operands for callee"
    else
      match first_mismatch ins args with
      | Some (i, d, a) ->
        Error
          (Fmt.str
             "operand type mismatch: expected operand type %s, but provided \
              %s for operand number %d"
             (Typ.to_string d) (Typ.to_string a) i)
      | None -> (
        if List.length res <> List.length outs then
          Error "incorrect number of results for callee"
        else
          match first_mismatch outs res with
          | Some (i, _, _) -> Error (Fmt.str "result type mismatch at index %d" i)
          | None -> Ok ()))

let register ctx =
  Context.register_op ctx func_op ~summary:"function definition"
    ~traits:[ Context.Isolated_from_above; Context.Symbol ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 0;
           Verifier.expect_regions 1;
           Verifier.expect_attr "sym_name";
           Verifier.expect_attr "function_type";
           verify_signature;
         ]);
  Context.register_op ctx return_op ~summary:"function return"
    ~traits:[ Context.Terminator; Context.Return_like ]
    ~verify:verify_return;
  Context.register_op ctx call_op ~summary:"direct call"
    ~verify:(Verifier.expect_attr "callee")
    ~effects:(fun _ -> [ Context.Read; Context.Write ])
    ~interfaces:
      (Util.Univ.add Context.symbol_user_key
         { Context.verify_symbol_uses = verify_call_symbol_uses }
         Util.Univ.empty)

(** Create a function with entry-block arguments matching [arg_types].
    Returns the op and its entry block. *)
let create ~name ~arg_types ~result_types () =
  let entry = Ircore.create_block ~args:arg_types () in
  let region = Ircore.region_with_block entry in
  let op =
    Ircore.make ~operands:[||] ~result_types:[||] ~regions:[ region ]
      ~successors:[||] ~loc:Loc.unknown
      ~attrs:
        [
          ("sym_name", Attr.String name);
          ("function_type", Attr.Type (Typ.Func (arg_types, result_types)));
        ]
      func_op
  in
  (op, entry)

let return rw ?(operands = []) () =
  Rewriter.build0 rw ~operands:(Array.of_list operands) return_op

let call rw ~callee ~operands ~result_types =
  Rewriter.build rw ~operands:(Array.of_list operands)
    ~result_types:(Array.of_list result_types)
    ~attrs:[ ("callee", Attr.Symbol_ref (callee, [])) ]
    call_op
