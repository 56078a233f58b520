(** The arith dialect: integer/float arithmetic, comparisons and casts, with
    constant folders and canonicalization patterns. *)

open Ir

let constant_op = "arith.constant"

(* comparison predicates, stored as a string attribute *)
type ipred = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

let ipred_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Ugt -> "ugt"
  | Uge -> "uge"

let ipred_of_string = function
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "slt" -> Some Slt
  | "sle" -> Some Sle
  | "sgt" -> Some Sgt
  | "sge" -> Some Sge
  | "ult" -> Some Ult
  | "ule" -> Some Ule
  | "ugt" -> Some Ugt
  | "uge" -> Some Uge
  | _ -> None

(* Unsigned comparison reinterprets OCaml's native int: negative values are
   "huge". If the signs agree, signed order coincides with unsigned order;
   otherwise the negative operand is the larger one. *)
let ult a b = if a < 0 = (b < 0) then a < b else b < 0

let eval_ipred p a b =
  match p with
  | Eq -> a = b
  | Ne -> a <> b
  | Slt -> a < b
  | Sle -> a <= b
  | Sgt -> a > b
  | Sge -> a >= b
  | Ult -> ult a b
  | Ule -> not (ult b a)
  | Ugt -> ult b a
  | Uge -> not (ult a b)

let register ctx =
  Context.register_op ctx constant_op ~summary:"integer or float constant"
    ~traits:[ Context.Pure; Context.Constant_like ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 0;
           Verifier.expect_results 1;
           Verifier.expect_attr "value";
         ]);
  let div_guard f a b = if b = 0 then raise Division_by_zero else f a b in
  Dutil.register_binary ctx "arith.addi" ~fold_int:( + )
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.subi" ~fold_int:( - );
  Dutil.register_binary ctx "arith.muli" ~fold_int:( * )
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.divsi" ~fold_int:(div_guard ( / ));
  Dutil.register_binary ctx "arith.divui" ~fold_int:(div_guard ( / ));
  Dutil.register_binary ctx "arith.remsi" ~fold_int:(div_guard Int.rem);
  Dutil.register_binary ctx "arith.remui" ~fold_int:(div_guard Int.rem);
  Dutil.register_binary ctx "arith.andi" ~fold_int:( land )
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.ori" ~fold_int:( lor )
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.xori" ~fold_int:( lxor )
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.maxsi" ~fold_int:max
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.minsi" ~fold_int:min
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.shli" ~fold_int:(fun a b -> a lsl b);
  Dutil.register_binary ctx "arith.shrsi" ~fold_int:(fun a b -> a asr b);
  Dutil.register_binary ctx "arith.addf" ~fold_float:( +. )
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.subf" ~fold_float:( -. );
  Dutil.register_binary ctx "arith.mulf" ~fold_float:( *. )
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.divf" ~fold_float:( /. );
  Dutil.register_binary ctx "arith.maximumf" ~fold_float:Float.max
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "arith.minimumf" ~fold_float:Float.min
    ~traits:[ Context.Commutative ];
  (* comparisons *)
  let cmpi_fold (op : Ircore.op) attrs =
    match (Dutil.str_attr_of op "predicate", attrs) with
    | Some p, [ Some (Attr.Int (a, _)); Some (Attr.Int (b, _)) ] ->
      Option.map
        (fun pred -> [ Attr.Bool (eval_ipred pred a b) ])
        (ipred_of_string p)
    | _ -> None
  in
  Context.register_op ctx "arith.cmpi" ~summary:"integer comparison"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 2;
           Verifier.expect_results 1;
           Verifier.expect_attr "predicate";
         ])
    ~interfaces:
      (Util.Univ.add Context.folder_key { Context.fold = cmpi_fold }
         Util.Univ.empty);
  Context.register_op ctx "arith.cmpf" ~summary:"float comparison"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 2;
           Verifier.expect_results 1;
           Verifier.expect_attr "predicate";
         ]);
  (* casts *)
  let cast_verify =
    Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]
  in
  List.iter
    (fun name ->
      Context.register_op ctx name ~traits:[ Context.Pure ] ~verify:cast_verify)
    [
      "arith.index_cast";
      "arith.extf";
      "arith.truncf";
      "arith.extsi";
      "arith.extui";
      "arith.trunci";
      "arith.sitofp";
      "arith.fptosi";
      "arith.bitcast";
    ];
  Context.register_op ctx "arith.select" ~summary:"ternary select"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 3; Verifier.expect_results 1 ])

(* ------------------------------------------------------------------ *)
(* Builders and accessors                                              *)
(* ------------------------------------------------------------------ *)

let constant rw (v : Attr.t) (t : Typ.t) =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| t |]
    ~attrs:[ ("value", v) ] constant_op

let const_index rw v = Dutil.const_int rw ~typ:Typ.index v

let binop rw name a b =
  Rewriter.build1 rw ~operands:[| a; b |]
    ~result_types:[| Ircore.value_typ a |]
    ("arith." ^ name)

let addi rw a b = binop rw "addi" a b
let subi rw a b = binop rw "subi" a b
let muli rw a b = binop rw "muli" a b
let divsi rw a b = binop rw "divsi" a b
let remsi rw a b = binop rw "remsi" a b
let addf rw a b = binop rw "addf" a b
let mulf rw a b = binop rw "mulf" a b

let cmpi rw pred a b =
  Rewriter.build1 rw ~operands:[| a; b |] ~result_types:[| Typ.i1 |]
    ~attrs:[ ("predicate", Attr.String (ipred_to_string pred)) ]
    "arith.cmpi"

let select rw c a b =
  Rewriter.build1 rw ~operands:[| c; a; b |]
    ~result_types:[| Ircore.value_typ a |]
    "arith.select"

let index_cast rw v t =
  Rewriter.build1 rw ~operands:[| v |] ~result_types:[| t |] "arith.index_cast"

let constant_value op =
  if op.Ircore.op_name = constant_op then Ircore.attr op "value" else None

(** If [v] is defined by an [arith.constant] with an integer value. *)
let constant_int_of_value v =
  match Ircore.defining_op v with
  | Some op -> ( match constant_value op with
    | Some (Attr.Int (n, _)) -> Some n
    | _ -> None)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Canonicalization patterns                                           *)
(* ------------------------------------------------------------------ *)

(* Is [v] an [arith.constant] of integer value [n]? Matched in place, with
   no option built: the patterns below ask twice per attempt. *)
let is_const_int v n =
  match v.Ircore.v_def with
  | Op_result (op, _) when String.equal op.op_name constant_op -> (
    match List.assoc "value" op.attrs with
    | Attr.Int (m, _) -> Int.equal m n
    | _ | (exception Not_found) -> false)
  | _ -> false

let () =
  (* x + 0 -> x ; 0 + x -> x *)
  Pattern.register_make ~name:"arith.addi_zero" ~root:"arith.addi"
    (fun rw op ->
      let a = Ircore.operand ~index:0 op and b = Ircore.operand ~index:1 op in
      if is_const_int b 0 then (
        Rewriter.replace_op rw op ~with_:[ a ];
        true)
      else if is_const_int a 0 then (
        Rewriter.replace_op rw op ~with_:[ b ];
        true)
      else false);
  (* x * 1 -> x ; x * 0 -> 0 *)
  Pattern.register_make ~name:"arith.muli_identity" ~root:"arith.muli"
    (fun rw op ->
      let a = Ircore.operand ~index:0 op and b = Ircore.operand ~index:1 op in
      if is_const_int b 1 then (
        Rewriter.replace_op rw op ~with_:[ a ];
        true)
      else if is_const_int a 1 then (
        Rewriter.replace_op rw op ~with_:[ b ];
        true)
      else if is_const_int a 0 then (
        Rewriter.replace_op rw op ~with_:[ a ];
        true)
      else if is_const_int b 0 then (
        Rewriter.replace_op rw op ~with_:[ b ];
        true)
      else false);
  (* x - 0 -> x; x - x -> 0 *)
  Pattern.register_make ~name:"arith.subi_zero" ~root:"arith.subi"
    (fun rw op ->
      let a = Ircore.operand ~index:0 op and b = Ircore.operand ~index:1 op in
      if is_const_int b 0 then (
        Rewriter.replace_op rw op ~with_:[ a ];
        true)
      else if a == b then begin
        Rewriter.set_ip rw (Builder.Before op);
        let zero = constant rw (Attr.Int (0, Ircore.value_typ a)) (Ircore.value_typ a) in
        Rewriter.replace_op rw op ~with_:[ zero ];
        true
      end
      else false);
  (* x +. 0.0 -> x (exact for the workloads we model) *)
  let is_const_float v f =
    match Ircore.defining_op v with
    | Some op -> (
      match constant_value op with
      | Some (Attr.Float (x, _)) -> x = f
      | _ -> false)
    | None -> false
  in
  Pattern.register_make ~name:"arith.addf_zero" ~root:"arith.addf"
    (fun rw op ->
      let a = Ircore.operand ~index:0 op and b = Ircore.operand ~index:1 op in
      if is_const_float b 0.0 then (
        Rewriter.replace_op rw op ~with_:[ a ];
        true)
      else if is_const_float a 0.0 then (
        Rewriter.replace_op rw op ~with_:[ b ];
        true)
      else false);
  Pattern.register_make ~name:"arith.mulf_one" ~root:"arith.mulf"
    (fun rw op ->
      let a = Ircore.operand ~index:0 op and b = Ircore.operand ~index:1 op in
      if is_const_float b 1.0 then (
        Rewriter.replace_op rw op ~with_:[ a ];
        true)
      else if is_const_float a 1.0 then (
        Rewriter.replace_op rw op ~with_:[ b ];
        true)
      else false);
  (* select true a b -> a etc. *)
  Pattern.register_make ~name:"arith.select_const" ~root:"arith.select"
    (fun rw op ->
      let c = Ircore.operand ~index:0 op in
      match Ircore.defining_op c with
      | Some d when d.Ircore.op_name = constant_op -> (
        match Ircore.attr d "value" with
        | Some (Attr.Bool true) | Some (Attr.Int (1, _)) ->
          Rewriter.replace_op rw op ~with_:[ Ircore.operand ~index:1 op ];
          true
        | Some (Attr.Bool false) | Some (Attr.Int (0, _)) ->
          Rewriter.replace_op rw op ~with_:[ Ircore.operand ~index:2 op ];
          true
        | _ -> false)
      | _ -> false)

(** The canonicalization pattern set of this dialect. *)
let canonicalization_patterns () =
  [
    Pattern.lookup_exn "arith.addi_zero";
    Pattern.lookup_exn "arith.muli_identity";
    Pattern.lookup_exn "arith.subi_zero";
    Pattern.lookup_exn "arith.addf_zero";
    Pattern.lookup_exn "arith.mulf_one";
    Pattern.lookup_exn "arith.select_const";
  ]
