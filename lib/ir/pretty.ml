(** Pretty printing: MLIR-style *custom assembly* for the common dialects
    ([func.func @f(...) { ... }], [scf.for %i = %lb to %ub step %s],
    [%0 = arith.addi %a, %b : i32], [memref.load %m[%i] : memref<...>], ...),
    falling back to the generic form of {!Printer} for everything else.

    Output-only: the parser consumes the generic form; use {!Printer} when a
    round-trip is needed. *)

open Ircore

let sugar_binary_prefixes = [ "arith."; "index."; "llvm."; "shlo." ]

let is_sugared_elementwise op =
  Array.length op.results = 1
  && op.regions = []
  && Array.length op.successors = 0
  && List.exists
       (fun p ->
         String.length op.op_name > String.length p
         && String.sub op.op_name 0 (String.length p) = p)
       sugar_binary_prefixes

let rec pp_op naming ~indent fmt op =
  let pad = String.make indent ' ' in
  let name v = Printer.value_ref naming v in
  let ops_csv vs = String.concat ", " (List.map name vs) in
  let types_csv vs =
    String.concat ", " (List.map (fun v -> Typ.to_string (value_typ v)) vs)
  in
  match op.op_name with
  | "builtin.module" ->
    Fmt.pf fmt "%smodule {@." pad;
    iter_children
      (fun o ->
        pp_op naming ~indent:(indent + 2) fmt o;
        Fmt.pf fmt "@.")
      op;
    Fmt.pf fmt "%s}" pad
  | "func.func" | "llvm.func" -> (
    let fname =
      match attr op "sym_name" with Some (Attr.String s) -> s | _ -> "?"
    in
    let results =
      match attr op "function_type" with
      | Some (Attr.Type (Typ.Func (_, outs))) -> outs
      | _ -> []
    in
    match op.regions with
    | [ r ] -> (
      match region_first_block r with
      | Some entry ->
        let args = block_args entry in
        Fmt.pf fmt "%s%s @%s(%s)" pad
          (if op.op_name = "func.func" then "func.func" else "llvm.func")
          fname
          (String.concat ", "
             (List.map
                (fun a ->
                  Fmt.str "%s: %s" (Printer.value_name naming a)
                    (Typ.to_string (value_typ a)))
                args));
        if results <> [] then
          Fmt.pf fmt " -> %s"
            (String.concat ", " (List.map Typ.to_string results));
        Fmt.pf fmt " {@.";
        pp_region_blocks naming ~indent fmt r;
        Fmt.pf fmt "%s}" pad
      | None -> Printer.pp_op_with naming ~indent fmt op)
    | _ -> Printer.pp_op_with naming ~indent fmt op)
  | "func.return" ->
    if Array.length op.operands = 0 then Fmt.pf fmt "%sreturn" pad
    else
      Fmt.pf fmt "%sreturn %s : %s" pad
        (ops_csv (operands op))
        (types_csv (operands op))
  | "scf.for" -> (
    match op.regions with
    | [ r ] when Option.is_some (region_first_block r) ->
      let body = Option.get (region_first_block r) in
      let iv = block_arg body 0 in
      let iters = List.tl (block_args body) in
      let inits = List.filteri (fun i _ -> i >= 3) (operands op) in
      (match Array.length op.results with
      | 0 -> ()
      | _ -> Fmt.pf fmt "" );
      Fmt.pf fmt "%s" pad;
      if Array.length op.results > 0 then
        Fmt.pf fmt "%s = "
          (String.concat ", " (List.map name (results op)));
      Fmt.pf fmt "scf.for %s = %s to %s step %s"
        (Printer.value_name naming iv)
        (name (operand ~index:0 op))
        (name (operand ~index:1 op))
        (name (operand ~index:2 op));
      if iters <> [] then
        Fmt.pf fmt " iter_args(%s)"
          (String.concat ", "
             (List.map2
                (fun a v -> Fmt.str "%s = %s" (Printer.value_name naming a) (name v))
                iters inits));
      Fmt.pf fmt " {@.";
      pp_region_blocks naming ~indent fmt r;
      Fmt.pf fmt "%s}" pad
    | _ -> Printer.pp_op_with naming ~indent fmt op)
  | "scf.if" -> (
    match op.regions with
    | [ t; e ] ->
      Fmt.pf fmt "%s" pad;
      if Array.length op.results > 0 then
        Fmt.pf fmt "%s = " (String.concat ", " (List.map name (results op)));
      Fmt.pf fmt "scf.if %s {@." (name (operand ~index:0 op));
      pp_region_blocks naming ~indent fmt t;
      let else_empty =
        match region_first_block e with
        | Some b -> block_ops b = [] || block_num_ops b <= 1
        | None -> true
      in
      if else_empty && Array.length op.results = 0 then Fmt.pf fmt "%s}" pad
      else begin
        Fmt.pf fmt "%s} else {@." pad;
        pp_region_blocks naming ~indent fmt e;
        Fmt.pf fmt "%s}" pad
      end;
      if Array.length op.results > 0 then
        Fmt.pf fmt " : %s" (types_csv (results op))
    | _ -> Printer.pp_op_with naming ~indent fmt op)
  | "scf.yield" ->
    if Array.length op.operands = 0 then Fmt.pf fmt "%sscf.yield" pad
    else
      Fmt.pf fmt "%sscf.yield %s : %s" pad
        (ops_csv (operands op))
        (types_csv (operands op))
  | "arith.constant" | "index.constant" | "llvm.mlir.constant" ->
    Fmt.pf fmt "%s%s = %s %s" pad
      (name (result op))
      op.op_name
      (match attr op "value" with
      | Some a -> Attr.to_string a
      | None -> "<?>")
  | "arith.cmpi" ->
    Fmt.pf fmt "%s%s = arith.cmpi %s, %s, %s : %s" pad
      (name (result op))
      (match attr op "predicate" with Some (Attr.String s) -> s | _ -> "?")
      (name (operand ~index:0 op))
      (name (operand ~index:1 op))
      (Typ.to_string (value_typ (operand ~index:0 op)))
  | "memref.load" ->
    Fmt.pf fmt "%s%s = memref.load %s[%s] : %s" pad
      (name (result op))
      (name (operand ~index:0 op))
      (ops_csv (List.tl (operands op)))
      (Typ.to_string (value_typ (operand ~index:0 op)))
  | "memref.store" ->
    Fmt.pf fmt "%smemref.store %s, %s[%s] : %s" pad
      (name (operand ~index:0 op))
      (name (operand ~index:1 op))
      (ops_csv (List.filteri (fun i _ -> i >= 2) (operands op)))
      (Typ.to_string (value_typ (operand ~index:1 op)))
  | "memref.subview" -> (
    (* memref.subview %m[offsets] [sizes] [strides] : src -> dst *)
    let int_array a =
      match attr op a with Some (Attr.Int_array xs) -> Some xs | _ -> None
    in
    match
      (int_array "static_offsets", int_array "static_sizes",
       int_array "static_strides")
    with
    | Some offs, Some sizes, Some strides ->
      let dynamic = ref (List.tl (operands op)) in
      let mixed xs =
        String.concat ", "
          (List.map
             (fun x ->
               if x = min_int then (
                 match !dynamic with
                 | v :: rest ->
                   dynamic := rest;
                   name v
                 | [] -> "?")
               else string_of_int x)
             xs)
      in
      let offs_s = mixed offs in
      let sizes_s = mixed sizes in
      let strides_s = mixed strides in
      Fmt.pf fmt "%s%s = memref.subview %s[%s] [%s] [%s] : %s to %s" pad
        (name (result op))
        (name (operand ~index:0 op))
        offs_s sizes_s strides_s
        (Typ.to_string (value_typ (operand ~index:0 op)))
        (Typ.to_string (value_typ (result op)))
    | _ -> Printer.pp_op_with naming ~indent fmt op)
  | "func.call" ->
    Fmt.pf fmt "%s" pad;
    if Array.length op.results > 0 then
      Fmt.pf fmt "%s = " (String.concat ", " (List.map name (results op)));
    Fmt.pf fmt "call @%s(%s) : (%s) -> (%s)"
      (match attr op "callee" with
      | Some (Attr.Symbol_ref (s, _)) -> s
      | _ -> "?")
      (ops_csv (operands op))
      (types_csv (operands op))
      (types_csv (results op))
  | "cf.br" ->
    Fmt.pf fmt "%scf.br %s(%s)" pad
      (Printer.block_name naming op.successors.(0))
      (ops_csv (operands op))
  | _ when is_sugared_elementwise op ->
    Fmt.pf fmt "%s%s = %s %s : %s" pad
      (name (result op))
      op.op_name
      (ops_csv (operands op))
      (Typ.to_string (value_typ (result op)))
  | _ -> Printer.pp_op_with naming ~indent fmt op

and pp_region_blocks naming ~indent fmt r =
  let blocks = region_blocks r in
  List.iter (fun b -> ignore (Printer.block_name naming b)) blocks;
  let multi = List.length blocks > 1 in
  List.iter
    (fun b ->
      if multi then begin
        Fmt.pf fmt "%s%s" (String.make indent ' ') (Printer.block_name naming b);
        if Array.length b.b_args > 0 then begin
          Fmt.pf fmt "(%s)"
            (String.concat ", "
               (List.map
                  (fun a ->
                    Fmt.str "%s: %s" (Printer.value_name naming a)
                      (Typ.to_string (value_typ a)))
                  (block_args b)))
        end;
        Fmt.pf fmt ":@."
      end;
      List.iter
        (fun o ->
          (* elide empty scf.yield terminators, as MLIR's printer does *)
          if not (o.op_name = "scf.yield" && Array.length o.operands = 0) then begin
            pp_op naming ~indent:(indent + 2) fmt o;
            Fmt.pf fmt "@."
          end)
        (block_ops b))
    blocks

let pp fmt op = pp_op (Printer.fresh_naming ()) ~indent:0 fmt op
let to_string op = Fmt.str "%a" pp op
