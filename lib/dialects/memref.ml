(** The memref dialect: memory allocation, loads/stores and views. *)

open Ir

(* Sentinel mirroring MLIR's ShapedType::kDynamic in static_* attributes. *)
let dynamic_sentinel = min_int

let alloc_op = "memref.alloc"
let alloca_op = "memref.alloca"
let dealloc_op = "memref.dealloc"
let load_op = "memref.load"
let store_op = "memref.store"
let subview_op = "memref.subview"
let dim_op = "memref.dim"
let cast_op = "memref.cast"
let copy_op = "memref.copy"
let extract_strided_metadata_op = "memref.extract_strided_metadata"
let reinterpret_cast_op = "memref.reinterpret_cast"
let extract_aligned_pointer_op = "memref.extract_aligned_pointer_as_index"

let verify_memref_result op =
  match Ircore.results op with
  | [ r ] -> (
    match Ircore.value_typ r with
    | Typ.Memref _ | Typ.Unranked_memref _ -> Ok ()
    | t -> Error (Fmt.str "expected memref result, got %a" Typ.pp t))
  | _ -> Error "expected a single memref result"

let register ctx =
  Context.register_op ctx alloc_op ~summary:"heap allocation"
    ~effects:(fun _ -> [ Context.Alloc ])
    ~verify:verify_memref_result;
  Context.register_op ctx alloca_op ~summary:"stack allocation"
    ~effects:(fun _ -> [ Context.Alloc ])
    ~verify:verify_memref_result;
  Context.register_op ctx dealloc_op ~summary:"deallocation"
    ~effects:(fun _ -> [ Context.Free ])
    ~verify:(Verifier.expect_operands 1);
  Context.register_op ctx load_op ~summary:"indexed load"
    ~effects:(fun _ -> [ Context.Read ])
    ~verify:
      (Verifier.all [ Verifier.expect_min_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx store_op ~summary:"indexed store"
    ~effects:(fun _ -> [ Context.Write ])
    ~verify:(Verifier.expect_min_operands 2);
  Context.register_op ctx subview_op ~summary:"strided view of a memref"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_min_operands 1;
           Verifier.expect_results 1;
           Verifier.expect_attr "static_offsets";
           Verifier.expect_attr "static_sizes";
           Verifier.expect_attr "static_strides";
         ]);
  Context.register_op ctx dim_op ~summary:"dimension query"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 2; Verifier.expect_results 1 ]);
  Context.register_op ctx cast_op ~summary:"memref type cast"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ]);
  Context.register_op ctx copy_op ~summary:"memref copy"
    ~effects:(fun _ -> [ Context.Read; Context.Write ])
    ~verify:(Verifier.expect_operands 2);
  Context.register_op ctx extract_strided_metadata_op
    ~summary:"decompose a memref into base, offset, sizes, strides"
    ~traits:[ Context.Pure ]
    ~verify:(Verifier.expect_operands 1);
  Context.register_op ctx reinterpret_cast_op
    ~summary:"reassemble a memref from base, offset, sizes, strides"
    ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all
         [
           Verifier.expect_min_operands 1;
           Verifier.expect_results 1;
           Verifier.expect_attr "static_offsets";
           Verifier.expect_attr "static_sizes";
           Verifier.expect_attr "static_strides";
         ]);
  Context.register_op ctx extract_aligned_pointer_op
    ~summary:"base pointer of a memref as an index" ~traits:[ Context.Pure ]
    ~verify:
      (Verifier.all [ Verifier.expect_operands 1; Verifier.expect_results 1 ])

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let alloc rw typ =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| typ |] alloc_op

let dealloc rw m = Rewriter.build0 rw ~operands:[| m |] dealloc_op

let load rw m indices =
  let elt =
    match Typ.element_type (Ircore.value_typ m) with
    | Some t -> t
    | None -> invalid_arg "memref.load on non-memref"
  in
  Rewriter.build1 rw ~operands:(Array.of_list (m :: indices))
    ~result_types:[| elt |] load_op

let store rw v m indices =
  Rewriter.build0 rw ~operands:(Array.of_list (v :: m :: indices)) store_op

let dim rw m i =
  Rewriter.build1 rw ~operands:[| m; i |] ~result_types:[| Typ.index |] dim_op

(** Mixed static/dynamic operand lists, as in MLIR: statics go into an
    attribute with a sentinel where a dynamic value is provided. *)
type fold_result = Static of int | Dynamic of Ircore.value

let split_fold_results frs =
  let statics =
    List.map (function Static n -> n | Dynamic _ -> dynamic_sentinel) frs
  in
  let dynamics =
    List.filter_map (function Dynamic v -> Some v | Static _ -> None) frs
  in
  (statics, dynamics)

(** Build [memref.subview] with mixed offsets/sizes/strides and an inferred
    strided result type. *)
let subview rw m ~offsets ~sizes ~strides =
  let so, d_offs = split_fold_results offsets in
  let ss, ds = split_fold_results sizes in
  let st, dt = split_fold_results strides in
  let src_typ = Ircore.value_typ m in
  let elt =
    match Typ.element_type src_typ with
    | Some t -> t
    | None -> invalid_arg "memref.subview on non-memref"
  in
  let result_dims =
    List.map
      (fun s -> if s = dynamic_sentinel then Typ.Dynamic else Typ.Static s)
      ss
  in
  (* result layout: strided with dynamic offset/strides unless fully static *)
  let src_strides, src_offset =
    match src_typ with
    | Typ.Memref (dims, _, Typ.Identity) ->
      (* row-major strides *)
      let ds = List.map (function Typ.Static n -> n | Typ.Dynamic -> -1) dims in
      let rec suffix_products = function
        | [] -> []
        | [ _ ] -> [ 1 ]
        | _ :: rest ->
          let sp = suffix_products rest in
          (match (sp, rest) with
          | s :: _, Typ.Static n :: _ when s >= 0 && n >= 0 -> (s * n) :: sp
          | _ -> -1 :: sp)
      in
      (suffix_products (List.map (fun n -> Typ.Static n) ds), 0)
    | Typ.Memref (_, _, Typ.Strided { offset; strides }) ->
      ( List.map (function Typ.Static n -> n | Typ.Dynamic -> -1) strides,
        match offset with Typ.Static n -> n | Typ.Dynamic -> -1 )
    | _ -> ([], -1)
  in
  let all_static xs = List.for_all (fun x -> x <> dynamic_sentinel) xs in
  let layout =
    if
      all_static so && all_static st && src_offset >= 0
      && List.for_all (fun s -> s >= 0) src_strides
      && List.length src_strides = List.length st
    then
      let offset =
        List.fold_left2 (fun acc o s -> acc + (o * s)) src_offset so src_strides
      in
      let strides = List.map2 (fun rel src -> rel * src) st src_strides in
      Typ.Strided
        { offset = Typ.Static offset;
          strides = List.map (fun s -> Typ.Static s) strides }
    else
      Typ.Strided
        {
          offset = Typ.Dynamic;
          strides = List.map (fun _ -> Typ.Dynamic) st;
        }
  in
  let result_typ = Typ.Memref (result_dims, elt, layout) in
  Rewriter.build1 rw
    ~operands:(Array.of_list ((m :: d_offs) @ ds @ dt))
    ~result_types:[| result_typ |]
    ~attrs:
      [
        ("static_offsets", Attr.Int_array so);
        ("static_sizes", Attr.Int_array ss);
        ("static_strides", Attr.Int_array st);
        ( "operand_segment_sizes",
          Attr.Int_array
            [ 1; List.length d_offs; List.length ds; List.length dt ] );
      ]
    subview_op

let static_offsets op =
  match Ircore.attr op "static_offsets" with
  | Some (Attr.Int_array xs) -> xs
  | _ -> []

let static_sizes op =
  match Ircore.attr op "static_sizes" with
  | Some (Attr.Int_array xs) -> xs
  | _ -> []

let static_strides op =
  match Ircore.attr op "static_strides" with
  | Some (Attr.Int_array xs) -> xs
  | _ -> []

(** A subview is "trivial" when all offsets/sizes/strides are empty — the
    constrained pseudo-op [memref.subview.constr] of the paper's Figure 3. *)
let subview_is_trivial op =
  static_offsets op = [] && static_sizes op = [] && static_strides op = []
