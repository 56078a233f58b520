(** The index dialect: index-typed arithmetic (thin sibling of arith,
    present because realistic MLIR inputs mix both). *)

open Ir

let register ctx =
  Context.register_op ctx "index.constant"
    ~traits:[ Context.Pure; Context.Constant_like ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 0;
           Verifier.expect_results 1;
           Verifier.expect_attr "value";
         ]);
  Dutil.register_binary ctx "index.add" ~fold_int:( + )
    ~traits:[ Context.Commutative ];
  Dutil.register_binary ctx "index.sub" ~fold_int:( - );
  Dutil.register_binary ctx "index.mul" ~fold_int:( * )
    ~traits:[ Context.Commutative ];
  Context.register_op ctx "index.cmp" ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_operands 2;
           Verifier.expect_results 1;
           Verifier.expect_attr "predicate";
         ]);
  Context.register_op ctx "index.casts" ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ])

let constant rw v =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| Typ.index |]
    ~attrs:[ ("value", Attr.Int (v, Typ.index)) ]
    "index.constant"
