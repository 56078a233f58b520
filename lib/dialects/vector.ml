(** The vector dialect: contiguous vector loads/stores plus splat/reduction,
    enough to express loop vectorization on memrefs. Elementwise arithmetic
    on vectors reuses arith ops at vector types. *)

open Ir

let load_op = "vector.load"
let store_op = "vector.store"
let splat_op = "vector.splat"
let reduction_op = "vector.reduction"
let broadcast_op = "vector.broadcast"
let fma_op = "vector.fma"

let register ctx =
  Context.register_op ctx load_op ~summary:"contiguous vector load"
    ~effects:(fun _ -> [ Context.Read ])
    ~verify:
      (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx store_op ~summary:"contiguous vector store"
    ~effects:(fun _ -> [ Context.Write ])
    ~verify:(Verifier.expect_min_operands 2);
  Context.register_op ctx splat_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx broadcast_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx reduction_op ~summary:"horizontal reduction"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 1;
           Verifier.expect_results 1;
           Verifier.expect_attr "kind";
         ]);
  Context.register_op ctx fma_op ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 3; Verifier.expect_results 1 ])

let load rw ~vector_typ m indices =
  Rewriter.build1 rw ~operands:(Array.of_list (m :: indices))
    ~result_types:[| vector_typ |] load_op

let store rw v m indices =
  Rewriter.build0 rw ~operands:(Array.of_list (v :: m :: indices)) store_op

let splat rw v ~vector_typ =
  Rewriter.build1 rw ~operands:[| v |] ~result_types:[| vector_typ |] splat_op

let reduction rw ~kind v =
  let elt =
    match Ircore.value_typ v with
    | Typ.Vector (_, t) -> t
    | t -> t
  in
  Rewriter.build1 rw ~operands:[| v |] ~result_types:[| elt |]
    ~attrs:[ ("kind", Attr.String kind) ]
    reduction_op
