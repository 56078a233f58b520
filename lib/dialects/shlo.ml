(** A StableHLO-like dialect used by the Enzyme-style peephole optimization
    workflow of Case Study 3: tensor arithmetic, shape manipulation and
    reductions at the ML-graph level of abstraction. *)

open Ir

let constant_op = "shlo.constant"
let add_op = "shlo.add"
let subtract_op = "shlo.subtract"
let multiply_op = "shlo.multiply"
let divide_op = "shlo.divide"
let negate_op = "shlo.negate"
let exp_op = "shlo.exponential"
let dot_general_op = "shlo.dot_general"
let transpose_op = "shlo.transpose"
let reshape_op = "shlo.reshape"
let reduce_op = "shlo.reduce"
let broadcast_op = "shlo.broadcast_in_dim"
let pad_op = "shlo.pad"
let concatenate_op = "shlo.concatenate"
let slice_op = "shlo.slice"
let convert_op = "shlo.convert"
let tanh_op = "shlo.tanh"
let rsqrt_op = "shlo.rsqrt"
let select_op = "shlo.select"

let binary_ops = [ add_op; subtract_op; multiply_op; divide_op; "shlo.maximum"; "shlo.minimum"; "shlo.power" ]
let unary_ops = [ negate_op; exp_op; tanh_op; rsqrt_op; convert_op; "shlo.logistic"; "shlo.sqrt" ]

let register ctx =
  Context.register_op ctx constant_op
    ~traits:[ Context.Pure; Context.Constant_like ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 0; Verifier.expect_results 1 ]);
  List.iter
    (fun name ->
      Context.register_op ctx name ~traits:[ Context.Pure ]
        ~verify:
          (Verifier.all [ Verifier.expect_operands 2; Verifier.expect_results 1 ]))
    binary_ops;
  List.iter
    (fun name ->
      Context.register_op ctx name ~traits:[ Context.Pure ]
        ~verify:
          (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]))
    unary_ops;
  Context.register_op ctx dot_general_op ~summary:"generalized matmul"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 2; Verifier.expect_results 1 ]);
  Context.register_op ctx transpose_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 1;
           Verifier.expect_results 1;
           Verifier.expect_attr "permutation";
         ]);
  Context.register_op ctx reshape_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx reduce_op ~summary:"reduction over dimensions"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 2;
           (* operand, init *)
           Verifier.expect_results 1;
           Verifier.expect_attr "dimensions";
           Verifier.expect_attr "kind";
         ]);
  Context.register_op ctx broadcast_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx pad_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 2;
           Verifier.expect_results 1;
           Verifier.expect_attr "edge_padding_low";
           Verifier.expect_attr "edge_padding_high";
         ]);
  Context.register_op ctx concatenate_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx slice_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx select_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 3; Verifier.expect_results 1 ])

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let binary rw name a b =
  Rewriter.build1 rw ~operands:[| a; b |]
    ~result_types:[| Ircore.value_typ a |]
    name

let add rw a b = binary rw add_op a b
let multiply rw a b = binary rw multiply_op a b

let unary rw name a =
  Rewriter.build1 rw ~operands:[| a |] ~result_types:[| Ircore.value_typ a |]
    name

let constant rw ~typ value =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| typ |]
    ~attrs:[ ("value", value) ] constant_op

(** [dot_general a b]: contract the last dim of [a] with the first (or
    second-to-last for batched) dim of [b]; shapes tracked statically. *)
let dot_general rw a b ~result_typ =
  Rewriter.build1 rw ~operands:[| a; b |] ~result_types:[| result_typ |]
    dot_general_op

let transpose rw a ~permutation ~result_typ =
  Rewriter.build1 rw ~operands:[| a |] ~result_types:[| result_typ |]
    ~attrs:[ ("permutation", Attr.Int_array permutation) ]
    transpose_op

let reshape rw a ~result_typ =
  Rewriter.build1 rw ~operands:[| a |] ~result_types:[| result_typ |] reshape_op

let reduce rw a ~init ~dimensions ~kind ~result_typ =
  Rewriter.build1 rw ~operands:[| a; init |] ~result_types:[| result_typ |]
    ~attrs:
      [ ("dimensions", Attr.Int_array dimensions); ("kind", Attr.String kind) ]
    reduce_op

let pad rw a ~pad_value ~low ~high ~result_typ =
  Rewriter.build1 rw ~operands:[| a; pad_value |] ~result_types:[| result_typ |]
    ~attrs:
      [
        ("edge_padding_low", Attr.Int_array low);
        ("edge_padding_high", Attr.Int_array high);
      ]
    pad_op

let permutation_of op =
  match Ircore.attr op "permutation" with
  | Some (Attr.Int_array xs) -> Some xs
  | _ -> None

let is_zero_constant op =
  op.Ircore.op_name = constant_op
  &&
  match Ircore.attr op "value" with
  | Some (Attr.Float (0.0, _)) | Some (Attr.Int (0, _)) -> true
  | Some (Attr.Dense_float (xs, _)) -> List.for_all (fun x -> x = 0.0) xs
  | Some (Attr.Dense_int (xs, _)) -> List.for_all (fun x -> x = 0) xs
  | _ -> false
