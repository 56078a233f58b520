(** The StableHLO-like LLM block of Case Study 3: a transformer layer whose
    graph contains the motifs targeted by the Enzyme-style peephole pattern
    set — zero-padding followed by additions, transposes feeding matrix
    multiplications, and reshape/transpose chains feeding full reductions. *)

open Ir
open Dialects

let seq = 128
let dmodel = 256

let tv rows cols = Typ.tensor (Typ.static_dims [ rows; cols ]) Typ.f32
let tx = tv seq dmodel

let zero rw typ = Shlo.constant rw ~typ (Attr.Float (0.0, Typ.f32))
let weight rw typ = Shlo.constant rw ~typ (Attr.Dense_float ([ 0.25 ], typ))

(** One attention + FFN block with the pattern-relevant motifs. *)
let block rw x =
  (* motif 1: pad with zeros then add (target of add_of_zero_pad) *)
  let zpad = zero rw Typ.f32 in
  let padded =
    Shlo.pad rw x ~pad_value:zpad ~low:[ 0; 0 ] ~high:[ 0; 0 ] ~result_typ:tx
  in
  let x = Shlo.add rw padded x in
  (* motif 2: transposed weight into matmul (target of matmul_of_transpose) *)
  let wq = weight rw (tv dmodel dmodel) in
  let wq_t =
    Shlo.transpose rw wq ~permutation:[ 1; 0 ] ~result_typ:(tv dmodel dmodel)
  in
  let q = Shlo.dot_general rw x wq_t ~result_typ:tx in
  let wk = weight rw (tv dmodel dmodel) in
  let k = Shlo.dot_general rw x wk ~result_typ:tx in
  let kt = Shlo.transpose rw k ~permutation:[ 1; 0 ] ~result_typ:(tv dmodel seq) in
  let scores = Shlo.dot_general rw q kt ~result_typ:(tv seq seq) in
  (* motif 3: negate of transpose (target of negate_of_transpose) *)
  let neg_mask =
    Shlo.unary rw Shlo.negate_op
      (Shlo.transpose rw scores ~permutation:[ 1; 0 ] ~result_typ:(tv seq seq))
  in
  let masked = Shlo.add rw scores neg_mask in
  (* softmax-ish *)
  let ex = Shlo.unary rw Shlo.exp_op masked in
  let z = zero rw Typ.f32 in
  let denom =
    Shlo.reduce rw ex ~init:z ~dimensions:[ 1 ] ~kind:"add"
      ~result_typ:(tv seq 1)
  in
  let db =
    Rewriter.build1 rw ~operands:[| denom |] ~result_types:[| tv seq seq |]
      Shlo.broadcast_op
  in
  let probs = Shlo.binary rw Shlo.divide_op ex db in
  let wv = weight rw (tv dmodel dmodel) in
  let v = Shlo.dot_general rw x wv ~result_typ:tx in
  let ctx_v = Shlo.dot_general rw probs v ~result_typ:tx in
  (* FFN activation chain — the elementwise producer cluster *)
  let w1 = weight rw (tv dmodel dmodel) in
  let h = Shlo.dot_general rw ctx_v w1 ~result_typ:tx in
  let act = Shlo.unary rw Shlo.tanh_op h in
  let gated = Shlo.multiply rw act x in
  let summed = Shlo.add rw gated x in
  (* motif 4: reshape + transpose feeding a FULL reduction at the end of the
     elementwise chain — folding them away (work reduction!) lets the fusion
     heuristic absorb the reduction into the oversized elementwise cluster *)
  let resh = Shlo.reshape rw summed ~result_typ:(tv dmodel seq) in
  let trans = Shlo.transpose rw resh ~permutation:[ 1; 0 ] ~result_typ:tx in
  let z2 = zero rw Typ.f32 in
  let stat =
    Shlo.reduce rw trans ~init:z2 ~dimensions:[ 0; 1 ] ~kind:"add"
      ~result_typ:(tv 1 1)
  in
  let statb =
    Rewriter.build1 rw ~operands:[| stat |] ~result_types:[| tx |]
      Shlo.broadcast_op
  in
  let scaled = Shlo.multiply rw summed statb in
  Shlo.add rw scaled x

(** Build an LLM made of [layers] blocks. *)
let build ?(layers = 8) () =
  let md = Builtin.create_module () in
  let fop, entry =
    Func.create ~name:"llm" ~arg_types:[ tx ] ~result_types:[ tx ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) fop;
  let rw = Dutil.rw_at_end entry in
  let x = ref (Ircore.block_arg entry 0) in
  for _ = 1 to layers do
    x := block rw !x
  done;
  Func.return rw ~operands:[ !x ] ();
  md

let func_of md =
  match Symbol.lookup_in ~table:md "llm" with
  | Some f -> f
  | None -> invalid_arg "llm module without @llm"
