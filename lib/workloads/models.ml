(** Synthetic TOSA model graphs for Case Study 1 (Table 1).

    The paper imports five ML models from TensorFlow into the TOSA dialect;
    we generate graphs with the *same op counts* and a realistic op mix:
    convolutional backbones (Squeezenet) are built from conv/clamp/pool/
    concat "fire"-style blocks, transformer models (GPT-2, MobileBERT, BERT,
    Whisper) from attention + feed-forward blocks (matmuls, softmax chains,
    layer norms). Compile-time behaviour of the pass pipeline depends on the
    number and kind of ops, which these generators reproduce exactly. *)

open Ir
open Dialects

type style = Conv | Transformer

type spec = {
  sp_name : string;
  sp_ops : int;  (** op count inside the function body (excluding return) *)
  sp_style : style;
}

(** The five models of Table 1, with the paper's op counts. *)
let paper_models =
  [
    { sp_name = "squeezenet"; sp_ops = 126; sp_style = Conv };
    { sp_name = "gpt2"; sp_ops = 2861; sp_style = Transformer };
    { sp_name = "mobilebert"; sp_ops = 4134; sp_style = Transformer };
    { sp_name = "whisper-decoder"; sp_ops = 847; sp_style = Transformer };
    { sp_name = "bert-base-uncased"; sp_ops = 1182; sp_style = Transformer };
  ]

let t2 = Typ.tensor (Typ.static_dims [ 64; 64 ]) Typ.f32
let t4 = Typ.tensor (Typ.static_dims [ 1; 16; 16; 32 ]) Typ.f32

let weight rw typ =
  Tosa.const rw ~typ (Attr.Dense_float ([ 0.5 ], typ))

(* each builder returns (output value, ops emitted) *)

let conv_block rw x =
  let w = weight rw t4 in
  let c = Tosa.binary rw "tosa.conv2d" x w ~result_typ:t4 in
  let b = weight rw t4 in
  let a = Tosa.binary rw "tosa.add" c b ~result_typ:t4 in
  let r = Tosa.unary rw "tosa.clamp" a ~result_typ:t4 in
  (r, 5)

let fire_block rw x =
  (* squeeze conv + relu, two expand convs + relus, concat *)
  let s, n1 = conv_block rw x in
  let e1, n2 = conv_block rw s in
  let e2, n3 = conv_block rw s in
  let cat = Tosa.binary rw "tosa.concat" e1 e2 ~result_typ:t4 in
  let pool = Tosa.unary rw "tosa.max_pool2d" cat ~result_typ:t4 in
  (pool, n1 + n2 + n3 + 2)

let softmax rw x =
  let mx = Tosa.unary rw "tosa.reduce_max" x ~result_typ:t2 in
  let sh = Tosa.binary rw "tosa.sub" x mx ~result_typ:t2 in
  let ex = Tosa.unary rw "tosa.exp" sh ~result_typ:t2 in
  let sm = Tosa.unary rw "tosa.reduce_sum" ex ~result_typ:t2 in
  let rc = Tosa.unary rw "tosa.reciprocal" sm ~result_typ:t2 in
  let out = Tosa.binary rw "tosa.mul" ex rc ~result_typ:t2 in
  (out, 6)

let layer_norm rw x =
  let mean = Tosa.unary rw "tosa.reduce_sum" x ~result_typ:t2 in
  let cent = Tosa.binary rw "tosa.sub" x mean ~result_typ:t2 in
  let sq = Tosa.binary rw "tosa.mul" cent cent ~result_typ:t2 in
  let var = Tosa.unary rw "tosa.reduce_sum" sq ~result_typ:t2 in
  let rs = Tosa.unary rw "tosa.rsqrt" var ~result_typ:t2 in
  let out = Tosa.binary rw "tosa.mul" cent rs ~result_typ:t2 in
  (out, 6)

let attention_block rw x =
  let proj x =
    let w = weight rw t2 in
    (Tosa.binary rw "tosa.fully_connected" x w ~result_typ:t2, 2)
  in
  let q, n1 = proj x in
  let k, n2 = proj x in
  let v, n3 = proj x in
  let kt = Tosa.unary rw "tosa.transpose" k ~result_typ:t2 in
  let scores = Tosa.binary rw "tosa.matmul" q kt ~result_typ:t2 in
  let probs, n4 = softmax rw scores in
  let ctx_v = Tosa.binary rw "tosa.matmul" probs v ~result_typ:t2 in
  let out, n5 = proj ctx_v in
  let res = Tosa.binary rw "tosa.add" out x ~result_typ:t2 in
  let normed, n6 = layer_norm rw res in
  (normed, n1 + n2 + n3 + n4 + n5 + n6 + 4)

let ffn_block rw x =
  let w1 = weight rw t2 in
  let h1 = Tosa.binary rw "tosa.fully_connected" x w1 ~result_typ:t2 in
  let g = Tosa.unary rw "tosa.erf" h1 ~result_typ:t2 in
  let act = Tosa.binary rw "tosa.mul" h1 g ~result_typ:t2 in
  let w2 = weight rw t2 in
  let h2 = Tosa.binary rw "tosa.fully_connected" act w2 ~result_typ:t2 in
  let res = Tosa.binary rw "tosa.add" h2 x ~result_typ:t2 in
  let normed, n = layer_norm rw res in
  (normed, n + 7)

(* one function with exactly [budget] body ops (excluding the return) *)
let emit_func md ~style ~name ~budget =
  let arg_t = match style with Conv -> t4 | Transformer -> t2 in
  let fop, entry =
    Func.create ~name ~arg_types:[ arg_t ] ~result_types:[ arg_t ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) fop;
  let rw = Dutil.rw_at_end entry in
  let x = ref (Ircore.block_arg entry 0) in
  let emitted = ref 0 in
  let block_cost, block_fn =
    match style with
    | Conv -> (19, fun rw x -> fire_block rw x)
    | Transformer ->
      ( 44,
        fun rw x ->
          let a, n1 = attention_block rw x in
          let f, n2 = ffn_block rw a in
          (f, n1 + n2) )
  in
  while budget - !emitted > block_cost + 1 do
    let y, n = block_fn rw !x in
    x := y;
    emitted := !emitted + n
  done;
  (* pad to the exact count with a rescale/add chain *)
  while budget - !emitted >= 2 do
    let c = weight rw arg_t in
    let y = Tosa.binary rw "tosa.add" !x c ~result_typ:arg_t in
    x := y;
    emitted := !emitted + 2
  done;
  if budget - !emitted = 1 then begin
    let y = Tosa.unary rw "tosa.rescale" !x ~result_typ:arg_t in
    x := y;
    incr emitted
  end;
  Func.return rw ~operands:[ !x ] ()

(** Build a model with exactly [spec.sp_ops] ops split across [funcs]
    function bodies (default 1: one function named [sp_name], the Table-1
    shape). With [funcs > 1] — the multicore pass-manager benchmarks, which
    need several isolated-from-above roots to fan over — functions are
    named [sp_name_0 … sp_name_{n-1}] and the op budget is distributed as
    evenly as possible while keeping the total exact. Blocks are emitted
    while they fit; the remainder is padded with elementwise ops (the tail
    of real graphs: dequantize/rescale chains). *)
let build ?(funcs = 1) spec =
  if funcs < 1 then invalid_arg "Models.build: funcs must be >= 1";
  let md = Builtin.create_module () in
  let per = spec.sp_ops / funcs and rem = spec.sp_ops mod funcs in
  for i = 0 to funcs - 1 do
    let name =
      if funcs = 1 then spec.sp_name else Fmt.str "%s_%d" spec.sp_name i
    in
    emit_func md ~style:spec.sp_style ~name
      ~budget:(per + if i < rem then 1 else 0)
  done;
  md

(** Number of ops in the module's function bodies (excluding module, funcs
    and returns) — the quantity reported in Table 1. *)
let count_ops md =
  let n = ref 0 in
  Ircore.walk
    (fun op ->
      match op.Ircore.op_name with
      | "builtin.module" | "func.func" | "func.return" -> ()
      | _ -> incr n)
    md;
  !n

(** The Case-Study-1 lowering pipeline (Section 4.1). *)
let tosa_pipeline_str =
  "tosa-optional-decompositions,tosa-infer-shapes,tosa-to-linalg-named,tosa-to-linalg,tosa-to-arith,tosa-to-tensor,canonicalize,cse"
