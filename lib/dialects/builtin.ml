(** The builtin dialect: [builtin.module] and
    [builtin.unrealized_conversion_cast] (the temporary "cast" op inserted by
    partial conversions and cleaned up by [reconcile-unrealized-casts]). *)

open Ir

let module_op = "builtin.module"
let cast_op = "builtin.unrealized_conversion_cast"

let register ctx =
  Context.register_op ctx module_op
    ~summary:"top-level container with a symbol table"
    ~traits:
      [
        Context.Symbol_table; Context.Isolated_from_above; Context.No_terminator;
      ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 0; Verifier.expect_regions 1 ]);
  Context.register_op ctx cast_op
    ~summary:"temporary type cast bridging partially converted IR"
    ~traits:[ Context.Pure ]
    ~verify:(Verifier.expect_results 1)

(** Create an empty module. *)
let create_module () =
  Ircore.make ~operands:[||] ~result_types:[||] ~attrs:[]
    ~regions:[ Ircore.single_block_region () ] ~successors:[||]
    ~loc:Loc.unknown module_op

let body_block m =
  match m.Ircore.regions with
  | [ r ] -> (
    match Ircore.region_first_block r with
    | Some b -> b
    | None -> invalid_arg "module region has no block")
  | _ -> invalid_arg "not a module"

let cast rw v t =
  Rewriter.build1 rw ~operands:[| v |] ~result_types:[| t |] cast_op
