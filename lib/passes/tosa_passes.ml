(** The TOSA → Linalg lowering pipeline of Case Study 1 (Table 1):
    the pass sequence used by the MLIR TensorFlow ecosystem to bring
    imported models down to structured linalg operations. *)

open Ir
open Dialects

(* ------------------------------------------------------------------ *)
(* tosa-optional-decompositions                                        *)
(* ------------------------------------------------------------------ *)

(** Decompose composite TOSA ops: fully_connected -> matmul + add;
    depthwise_conv2d stays (handled by named lowering). *)
let decompositions : Pass.table =
  [
    ( "tosa.fully_connected",
      fun rw op ->
        Rewriter.set_ip rw (Builder.Before op);
        match Ircore.operands op with
        | [ input; weights; bias ] ->
          let out_t = Ircore.value_typ (Ircore.result op) in
          let mm =
            Tosa.binary rw "tosa.matmul" input weights ~result_typ:out_t
          in
          let add = Tosa.binary rw "tosa.add" mm bias ~result_typ:out_t in
          Rewriter.replace_op rw op ~with_:[ add ]
        | [ input; weights ] ->
          let out_t = Ircore.value_typ (Ircore.result op) in
          let mm =
            Tosa.binary rw "tosa.matmul" input weights ~result_typ:out_t
          in
          Rewriter.replace_op rw op ~with_:[ mm ]
        | _ -> () );
  ]

(* ------------------------------------------------------------------ *)
(* tosa-infer-shapes                                                   *)
(* ------------------------------------------------------------------ *)

(** Propagate static shapes: unranked results of elementwise ops take their
    operand's type. *)
let run_infer_shapes _ctx top =
  Ircore.walk
    (fun op ->
      if Ircore.op_dialect op = "tosa" && Ircore.num_results op = 1 then
        let r = Ircore.result op in
        match Ircore.value_typ r with
        | Typ.Unranked_tensor _ -> (
          match Ircore.operands op with
          | v :: _ -> (
            match Ircore.value_typ v with
            | Typ.Ranked_tensor _ as t -> r.Ircore.v_typ <- t
            | _ -> ())
          | [] -> ())
        | _ -> ())
    top;
  Ok ()

(* ------------------------------------------------------------------ *)
(* tosa-to-linalg-named                                                *)
(* ------------------------------------------------------------------ *)

(* each structured TOSA op becomes its named linalg op on a zero-filled
   out tensor *)
let to_named linalg_name rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let out_t = Ircore.value_typ (Ircore.result op) in
  let zero = Dutil.const_float rw 0.0 in
  let empty = Tensor_d.empty rw out_t in
  let filled = Ircore.result (Linalg.fill rw ~value:zero ~dest:empty) in
  let new_op =
    Linalg.structured rw linalg_name ~ins:(Ircore.operands op)
      ~outs:[ filled ] ~result_types:[ out_t ]
  in
  Rewriter.replace_op rw op ~with_:(Ircore.results new_op)

let named_lowering : Pass.table =
  List.map
    (fun (tosa_name, linalg_name) -> (tosa_name, to_named linalg_name))
    [
      ("tosa.matmul", Linalg.batch_matmul_op);
      ("tosa.conv2d", Linalg.conv_2d_op);
      ("tosa.depthwise_conv2d", Linalg.conv_2d_op);
      ("tosa.max_pool2d", Linalg.pooling_op);
      ("tosa.avg_pool2d", Linalg.pooling_op);
      ("tosa.transpose", Linalg.transpose_op);
    ]

(* ------------------------------------------------------------------ *)
(* tosa-to-linalg (elementwise and reductions -> linalg.generic)       *)
(* ------------------------------------------------------------------ *)

(* the scalar payload op of each elementwise TOSA op; reciprocal and clamp
   pair the value with a payload-local constant: 1.0 / x, and max(x, 0.0)
   (the relu-shaped clamp of these graphs) *)
let elementwise_payloads =
  [
    ("tosa.add", "arith.addf"); ("tosa.sub", "arith.subf");
    ("tosa.mul", "arith.mulf"); ("tosa.maximum", "arith.maximumf");
    ("tosa.minimum", "arith.minimumf"); ("tosa.pow", "math.pow");
    ("tosa.abs", "math.absf"); ("tosa.ceil", "math.ceil");
    ("tosa.clamp", "arith.maximumf"); ("tosa.exp", "math.exp");
    ("tosa.floor", "math.floor"); ("tosa.log", "math.log");
    ("tosa.negate", "arith.negf"); ("tosa.reciprocal", "arith.divf");
    ("tosa.rsqrt", "math.rsqrt"); ("tosa.sigmoid", "math.sigmoid");
    ("tosa.tanh", "math.tanh"); ("tosa.cast", "arith.truncf");
    ("tosa.rescale", "arith.truncf"); ("tosa.erf", "math.erf");
  ]

let to_generic payload_name rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let out_t = Ircore.value_typ (Ircore.result op) in
  let empty = Tensor_d.empty rw out_t in
  let ins = Ircore.operands op in
  let generic =
    Linalg.generic rw ~ins ~outs:[ empty ] ~result_types:[ out_t ]
      (fun brw args ->
        let scalar_args = List.filteri (fun i _ -> i < List.length ins) args in
        let binary a b =
          Rewriter.build1 brw ~operands:[| a; b |]
            ~result_types:[| Ircore.value_typ a |]
            payload_name
        in
        let payload =
          match (op.Ircore.op_name, scalar_args) with
          | "tosa.reciprocal", [ a ] ->
            let one = Dutil.const_float brw ~typ:(Ircore.value_typ a) 1.0 in
            binary one a
          | "tosa.clamp", [ a ] ->
            let zero = Dutil.const_float brw ~typ:(Ircore.value_typ a) 0.0 in
            binary a zero
          | _, [ a ] ->
            Rewriter.build1 brw ~operands:[| a |]
              ~result_types:[| Ircore.value_typ a |]
              payload_name
          | _, [ a; b ] -> binary a b
          | _ -> failwith "unexpected payload arity"
        in
        [ payload ])
  in
  Rewriter.replace_op rw op ~with_:(Ircore.results generic)

let to_reduce rw op =
  Rewriter.set_ip rw (Builder.Before op);
  let out_t = Ircore.value_typ (Ircore.result op) in
  let empty = Tensor_d.empty rw out_t in
  let red =
    Rewriter.build rw
      ~operands:(Array.append op.Ircore.operands [| empty |])
      ~result_types:[| out_t |]
      ~regions:[ Ircore.single_block_region () ]
      Linalg.reduce_op
  in
  (* payload: combiner *)
  (match red.Ircore.regions with
  | [ r ] -> (
    match Ircore.region_first_block r with
    | Some b ->
      let a1 = Ircore.add_block_arg b Typ.f32 in
      let a2 = Ircore.add_block_arg b Typ.f32 in
      let brw = Dutil.rw_at_end b in
      let combined = Arith.addf brw a1 a2 in
      Rewriter.build0 brw ~operands:[| combined |] "linalg.yield"
    | None -> ())
  | _ -> ());
  Rewriter.replace_op rw op ~with_:(Ircore.results red)

let elementwise_lowering : Pass.table =
  List.map (fun (name, payload) -> (name, to_generic payload))
    elementwise_payloads
  @ List.map (fun name -> (name, to_reduce)) Tosa.reductions

(* ------------------------------------------------------------------ *)
(* tosa-to-arith / tosa-to-tensor                                      *)
(* ------------------------------------------------------------------ *)

let const_lowering : Pass.table =
  [
    ( Tosa.const_op,
      fun rw op ->
        Rewriter.set_ip rw (Builder.Before op);
        let v =
          match Ircore.attr op "value" with
          | Some a -> a
          | None -> Attr.Float (0.0, Typ.f32)
        in
        let c = Arith.constant rw v (Ircore.value_typ (Ircore.result op)) in
        Rewriter.replace_op rw op ~with_:[ c ] );
  ]

(* each shape op becomes the same-named tensor op, operands, result types
   and attributes unchanged *)
let shape_lowering : Pass.table =
  List.map
    (fun name ->
      ( name,
        fun rw op ->
          let operands = Array.copy op.Ircore.operands in
          let result_types = Array.map Ircore.value_typ op.results in
          ignore
            (Rewriter.replace_op_with rw op ~operands ~result_types
               ("tensor." ^ snd (Util.split_op_name name))) ))
    [
      "tosa.reshape"; "tosa.concat"; "tosa.pad"; "tosa.slice"; "tosa.gather";
      "tosa.tile";
    ]

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let o = Opset.exact
let d = Opset.dialect

(* a conversion pass consuming exactly its table's keys *)
let register_table ~name ~summary ~post table =
  Pass.register
    (Pass.conversion ~name ~function_parallel:true ~summary ~post table)

let register () =
  register_table ~name:"tosa-optional-decompositions"
    ~summary:"decompose composite TOSA ops"
    ~post:[ o "tosa.matmul"; o "tosa.add" ]
    decompositions;
  Pass.register
    (Pass.make ~name:"tosa-infer-shapes" ~function_parallel:true ~summary:"propagate static shapes"
       ~pre:[] ~post:[] run_infer_shapes);
  register_table ~name:"tosa-to-linalg-named"
    ~summary:"lower structured TOSA ops to named linalg ops"
    ~post:
      [
        o Linalg.batch_matmul_op; o Linalg.conv_2d_op; o Linalg.pooling_op;
        o Linalg.transpose_op; o Linalg.fill_op; o "tensor.empty";
        o "arith.constant";
      ]
    named_lowering;
  (* precise consumed set (not the {tosa.*} wildcard): the pass handles only
     the elementwise and reduction ops, so declaring more would make the
     dynamic condition checker reject the accurate implementation *)
  register_table ~name:"tosa-to-linalg"
    ~summary:"lower elementwise TOSA ops to linalg.generic"
    ~post:
      [
        o Linalg.generic_op; o Linalg.reduce_op; o "tensor.empty";
        d "math"; o "arith.addf"; o "arith.subf"; o "arith.mulf";
        o "arith.divf"; o "arith.maximumf"; o "arith.minimumf";
        o "arith.negf"; o "arith.truncf"; o "linalg.yield";
      ]
    elementwise_lowering;
  register_table ~name:"tosa-to-arith" ~summary:"lower tosa.const to arith"
    ~post:[ o "arith.constant" ]
    const_lowering;
  register_table ~name:"tosa-to-tensor"
    ~summary:"lower TOSA shape ops to the tensor dialect"
    ~post:[ d "tensor" ]
    shape_lowering
