(** The Case-Study-2 payload: a function taking a 2-D memref, creating a 4x4
    rectangular view of part of it, and setting all elements of the view to
    42 — in the static-offset variant that the naive lowering pipeline
    handles, and in the dynamic-offset variant (offset as an extra function
    argument) that exposes the leftover [affine.apply] problem. *)

open Ir
open Dialects

type variant = Static_offset | Dynamic_offset

let build variant =
  let md = Builtin.create_module () in
  let mt =
    (* static shape in the original program; the dynamic-offset variant also
       passes the offset at runtime *)
    match variant with
    | Static_offset -> Typ.memref (Typ.static_dims [ 16; 16 ]) Typ.f32
    | Dynamic_offset -> Typ.memref [ Typ.Dynamic; Typ.Dynamic ] Typ.f32
  in
  let arg_types =
    match variant with
    | Static_offset -> [ mt ]
    | Dynamic_offset -> [ mt; Typ.index ]
  in
  let fop, entry =
    Func.create ~name:"set_view" ~arg_types ~result_types:[] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) fop;
  let rw = Dutil.rw_at_end entry in
  let m = Ircore.block_arg entry 0 in
  let offsets =
    match variant with
    | Static_offset -> [ Memref.Static 2; Memref.Static 2 ]
    | Dynamic_offset ->
      let off = Ircore.block_arg entry 1 in
      [ Memref.Dynamic off; Memref.Dynamic off ]
  in
  let view =
    Memref.subview rw m ~offsets
      ~sizes:[ Memref.Static 4; Memref.Static 4 ]
      ~strides:[ Memref.Static 1; Memref.Static 1 ]
  in
  let c42 = Dutil.const_float rw 42.0 in
  (* scf.forall (%i, %j) in (4, 4) { view[i,j] = 42 } *)
  let body = Ircore.create_block ~args:[ Typ.index; Typ.index ] () in
  let brw = Dutil.rw_at_end body in
  Memref.store brw c42 view
    [ Ircore.block_arg body 0; Ircore.block_arg body 1 ];
  Rewriter.build0 rw ~operands:[||]
    ~regions:[ Ircore.region_with_block body ]
    ~attrs:[ ("static_upper_bound", Attr.Int_array [ 4; 4 ]) ]
    Scf.forall_op;
  Func.return rw ();
  md

(** The minimal lowering pipeline of Case Study 2 (passes ①–⑦). *)
let naive_pipeline =
  [
    "convert-scf-to-cf"; "convert-arith-to-llvm"; "convert-cf-to-llvm";
    "convert-func-to-llvm"; "expand-strided-metadata";
    "finalize-memref-to-llvm"; "reconcile-unrealized-casts";
  ]

(** The robust pipeline: [lower-affine] (and a second arith lowering) after
    expand-strided-metadata. *)
let robust_pipeline =
  [
    "convert-scf-to-cf"; "convert-arith-to-llvm"; "convert-cf-to-llvm";
    "convert-func-to-llvm"; "expand-strided-metadata"; "lower-affine";
    "convert-arith-to-llvm"; "finalize-memref-to-llvm";
    "reconcile-unrealized-casts";
  ]
