(** The linalg dialect: structured operations on tensors and memrefs. The
    target of the TOSA lowering pipeline and the source for loop lowering. *)

open Ir

let matmul_op = "linalg.matmul"
let batch_matmul_op = "linalg.batch_matmul"
let fill_op = "linalg.fill"
let generic_op = "linalg.generic"
let conv_2d_op = "linalg.conv_2d_nhwc_hwcf"
let pooling_op = "linalg.pooling_nhwc_max"
let transpose_op = "linalg.transpose"
let reduce_op = "linalg.reduce"
let copy_op = "linalg.copy"

(* Structured ops have "ins" and "outs" operands, split by the
   operand_segment_sizes attribute: [num_inputs; num_outputs]. *)
let segments op =
  match Ircore.attr op "operand_segment_sizes" with
  | Some (Attr.Int_array [ i; o ]) -> (i, o)
  | _ -> (Ircore.num_operands op - 1, 1)

let inputs op =
  let i, _ = segments op in
  List.filteri (fun idx _ -> idx < i) (Ircore.operands op)

let outputs op =
  let i, _ = segments op in
  List.filteri (fun idx _ -> idx >= i) (Ircore.operands op)

let structured_effects (op : Ircore.op) =
  (* on tensors the ops are pure; on memrefs they read inputs, write outputs *)
  let on_memref =
    List.exists
      (fun v ->
        match Ircore.value_typ v with Typ.Memref _ -> true | _ -> false)
      (Ircore.operands op)
  in
  if on_memref then [ Context.Read; Context.Write ] else []

let register ctx =
  let reg ?(verify = Verifier.expect_min_operands 1) name =
    Context.register_op ctx name ~effects:structured_effects ~verify
  in
  reg matmul_op;
  reg batch_matmul_op;
  reg fill_op;
  reg conv_2d_op;
  reg pooling_op;
  reg transpose_op;
  reg copy_op;
  Context.register_op ctx generic_op ~effects:structured_effects
    ~verify:
      (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_regions 1 ]);
  Context.register_op ctx reduce_op ~effects:structured_effects
    ~verify:(Verifier.expect_regions 1);
  Context.register_op ctx "linalg.yield"
    ~traits:[ Context.Terminator; Context.Return_like ];
  Context.register_op ctx "linalg.index" ~traits:[ Context.Pure ]
    ~verify:(Verifier.expect_results 1)

let structured rw name ~ins ~outs ~result_types =
  Rewriter.build rw
    ~operands:(Array.of_list (ins @ outs))
    ~result_types:(Array.of_list result_types)
    ~attrs:
      [
        ( "operand_segment_sizes",
          Attr.Int_array [ List.length ins; List.length outs ] );
      ]
    name

(** [linalg.matmul ins(%a, %b) outs(%c)] on memrefs (no results) or tensors
    (one result). *)
let matmul rw ~a ~b ~c =
  let result_types =
    match Ircore.value_typ c with Typ.Ranked_tensor _ -> [ Ircore.value_typ c ] | _ -> []
  in
  structured rw matmul_op ~ins:[ a; b ] ~outs:[ c ] ~result_types

let fill rw ~value ~dest =
  let result_types =
    match Ircore.value_typ dest with
    | Typ.Ranked_tensor _ -> [ Ircore.value_typ dest ]
    | _ -> []
  in
  structured rw fill_op ~ins:[ value ] ~outs:[ dest ] ~result_types

(** Build a [linalg.generic]: [body rw block_args -> yielded]. The region's
    block has one argument per input and output element. *)
let generic rw ~ins ~outs ~result_types ?(attrs = []) body =
  let elt v = Dutil.scalar_of (Ircore.value_typ v) in
  let block =
    Ircore.create_block ~args:(List.map elt ins @ List.map elt outs) ()
  in
  let region = Ircore.region_with_block block in
  let op =
    Rewriter.build rw
      ~operands:(Array.of_list (ins @ outs))
      ~result_types:(Array.of_list result_types) ~regions:[ region ]
      ~attrs:
        (attrs
        @ [
            ( "operand_segment_sizes",
              Attr.Int_array [ List.length ins; List.length outs ] );
          ])
      generic_op
  in
  let brw = Dutil.rw_at_end block in
  let yielded = body brw (Ircore.block_args block) in
  Rewriter.build0 brw ~operands:(Array.of_list yielded) "linalg.yield";
  op
