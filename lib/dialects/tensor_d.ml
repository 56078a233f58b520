(** The tensor dialect: value-semantics tensor creation and shape ops
    (targets of the TOSA shape-op lowering). *)

open Ir

let ops =
  [
    "tensor.empty"; "tensor.reshape"; "tensor.concat"; "tensor.pad";
    "tensor.slice"; "tensor.gather"; "tensor.tile"; "tensor.extract";
    "tensor.insert"; "tensor.cast"; "tensor.dim"; "tensor.extract_slice";
    "tensor.insert_slice";
  ]

(** Build [tensor.empty] of type [t]. *)
let empty rw t =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| t |] "tensor.empty"

let register ctx =
  List.iter
    (fun name ->
      Context.register_op ctx name ~traits:[ Context.Pure ]
        ~verify:(fun op ->
          if name = "tensor.empty" then Verifier.expect_results 1 op
          else Ok ()))
    ops
