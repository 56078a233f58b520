(** The TOSA dialect (Tensor Operator Set Architecture): the operation set
    that imported TensorFlow/TFLite models use in Case Study 1. *)

open Ir

let elementwise_binary =
  [
    "tosa.add"; "tosa.sub"; "tosa.mul"; "tosa.maximum"; "tosa.minimum";
    "tosa.pow"; "tosa.logical_and"; "tosa.logical_or";
  ]

let elementwise_unary =
  [
    "tosa.abs"; "tosa.ceil"; "tosa.clamp"; "tosa.exp"; "tosa.floor";
    "tosa.log"; "tosa.negate"; "tosa.reciprocal"; "tosa.rsqrt";
    "tosa.sigmoid"; "tosa.tanh"; "tosa.cast"; "tosa.rescale"; "tosa.erf";
  ]

let reductions =
  [ "tosa.reduce_sum"; "tosa.reduce_max"; "tosa.reduce_min"; "tosa.reduce_prod" ]

let structured =
  [
    "tosa.conv2d"; "tosa.depthwise_conv2d"; "tosa.fully_connected";
    "tosa.matmul"; "tosa.avg_pool2d"; "tosa.max_pool2d";
  ]

let shape_ops =
  [
    "tosa.reshape"; "tosa.transpose"; "tosa.concat"; "tosa.pad"; "tosa.slice";
    "tosa.tile"; "tosa.gather";
  ]

let const_op = "tosa.const"

let register ctx =
  Context.register_op ctx const_op ~traits:[ Context.Pure; Context.Constant_like ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 0; Verifier.expect_results 1 ]);
  List.iter
    (fun name ->
      Context.register_op ctx name ~traits:[ Context.Pure ]
        ~verify:
          (Verifier.all [ Verifier.expect_operands 2; Verifier.expect_results 1 ]))
    elementwise_binary;
  List.iter
    (fun name ->
      Context.register_op ctx name ~traits:[ Context.Pure ]
        ~verify:
          (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]))
    (elementwise_unary @ reductions);
  List.iter
    (fun name ->
      Context.register_op ctx name ~traits:[ Context.Pure ]
        ~verify:
          (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_results 1 ]))
    (structured @ shape_ops)

let binary rw name a b ~result_typ =
  Rewriter.build1 rw ~operands:[| a; b |] ~result_types:[| result_typ |] name

let unary rw name a ~result_typ =
  Rewriter.build1 rw ~operands:[| a |] ~result_types:[| result_typ |] name

let const rw ~typ value =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| typ |]
    ~attrs:[ ("value", value) ] const_op
