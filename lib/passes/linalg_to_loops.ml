(** Lowering of linalg named ops on memrefs to scf loop nests (the
    "convert-linalg-to-loops" pass), used to produce executable loop-level
    IR for the performance case studies. *)

open Ir
open Dialects

(** Static dims of a memref-typed value, or None. *)
let static_memref_dims v =
  match Ircore.value_typ v with
  | Typ.Memref (dims, _, _) ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | Typ.Static n :: rest -> go (n :: acc) rest
      | Typ.Dynamic :: _ -> None
    in
    go [] dims
  | _ -> None

(** Lower [linalg.matmul ins(A, B) outs(C)] (memref semantics) to the
    canonical i/k/j triple loop with j innermost (unit stride). *)
let lower_matmul rw op =
  match (Linalg.inputs op, Linalg.outputs op) with
  | [ a; b ], [ c ] -> (
    match (static_memref_dims a, static_memref_dims b, static_memref_dims c) with
    | Some [ m; k ], Some [ k'; n ], Some [ m'; n' ]
      when k = k' && m = m' && n = n' ->
      Rewriter.set_ip rw (Builder.Before op);
      let zero = Dutil.const_int rw 0 in
      let one = Dutil.const_int rw 1 in
      let cm = Dutil.const_int rw m in
      let cn = Dutil.const_int rw n in
      let ck = Dutil.const_int rw k in
      ignore
        (Scf.build_for rw ~lb:zero ~ub:cm ~step:one (fun rwi i _ ->
             ignore
               (Scf.build_for rwi ~lb:zero ~ub:ck ~step:one (fun rwk kv _ ->
                    ignore
                      (Scf.build_for rwk ~lb:zero ~ub:cn ~step:one
                         (fun rwj j _ ->
                           let av = Memref.load rwj a [ i; kv ] in
                           let bv = Memref.load rwj b [ kv; j ] in
                           let cv = Memref.load rwj c [ i; j ] in
                           let prod = Arith.mulf rwj av bv in
                           let sum = Arith.addf rwj cv prod in
                           Memref.store rwj sum c [ i; j ];
                           []));
                    []));
             []));
      Rewriter.erase_op rw op;
      Ok ()
    | _ -> Error "linalg.matmul: expected static 2-D memref operands")
  | _ -> Error "linalg.matmul: expected two inputs and one output"

(** Lower [linalg.fill ins(v) outs(M)] to a loop nest of stores. *)
let lower_fill rw op =
  match (Linalg.inputs op, Linalg.outputs op) with
  | [ v ], [ m ] -> (
    match static_memref_dims m with
    | Some dims ->
      Rewriter.set_ip rw (Builder.Before op);
      let zero = Dutil.const_int rw 0 in
      let one = Dutil.const_int rw 1 in
      let rec build ivs rwc = function
        | [] ->
          Memref.store rwc v m (List.rev ivs);
          []
        | d :: rest ->
          let ub = Dutil.const_int rwc d in
          ignore
            (Scf.build_for rwc ~lb:zero ~ub ~step:one (fun rwc' iv _ ->
                 build (iv :: ivs) rwc' rest));
          []
      in
      ignore (build [] rw dims);
      Rewriter.erase_op rw op;
      Ok ()
    | None -> Error "linalg.fill: expected static memref output")
  | _ -> Error "linalg.fill: expected one input and one output"

(** Lower [linalg.copy ins(S) outs(D)]. *)
let lower_copy rw op =
  match (Linalg.inputs op, Linalg.outputs op) with
  | [ s ], [ d ] -> (
    match static_memref_dims d with
    | Some dims ->
      Rewriter.set_ip rw (Builder.Before op);
      let zero = Dutil.const_int rw 0 in
      let one = Dutil.const_int rw 1 in
      let rec build ivs rwc = function
        | [] ->
          let v = Memref.load rwc s (List.rev ivs) in
          Memref.store rwc v d (List.rev ivs);
          []
        | dd :: rest ->
          let ub = Dutil.const_int rwc dd in
          ignore
            (Scf.build_for rwc ~lb:zero ~ub ~step:one (fun rwc' iv _ ->
                 build (iv :: ivs) rwc' rest));
          []
      in
      ignore (build [] rw dims);
      Rewriter.erase_op rw op;
      Ok ()
    | None -> Error "linalg.copy: expected static memref output")
  | _ -> Error "linalg.copy: expected one input and one output"

(* the conversion table; a declined lowering's error goes to
   [first_error] unless an earlier op (in walk order) already failed *)
let table first_error : Pass.table =
  List.map
    (fun (name, lower) ->
      ( name,
        fun rw op ->
          match lower rw op with
          | Ok () -> ()
          | Error e -> if !first_error = None then first_error := Some e ))
    [
      (Linalg.matmul_op, lower_matmul);
      (Linalg.fill_op, lower_fill);
      (Linalg.copy_op, lower_copy);
    ]

(* the first lowering error fails the pass, after every lowerable op has
   been converted *)
let run _ctx top =
  let first_error = ref None in
  let ( let* ) = Result.bind in
  let* () =
    Pass.convert ~pass:"convert-linalg-to-loops" (table first_error) top
  in
  match !first_error with None -> Ok () | Some e -> Diag.fail "%s" e

let register () =
  Pass.register
    (Pass.make ~name:"convert-linalg-to-loops"
       ~summary:"lower linalg named ops on memrefs to scf loops"
       ~pre:(Pass.table_pre (table (ref None)))
       ~post:
         [
           Opset.exact "scf.for"; Opset.exact "scf.yield";
           Opset.exact "memref.load"; Opset.exact "memref.store";
           Opset.exact "arith.mulf"; Opset.exact "arith.addf";
           Opset.exact "arith.constant";
         ]
       run)
