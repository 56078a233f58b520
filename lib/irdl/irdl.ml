(** IRDL-lite: declarative operation definitions with constraints (paper
    Section 3.3, Figures 3 and 4).

    IRDL specifies operations — their attributes, operand/result cardinality
    and type constraints — declaratively, and *generates verifiers* from the
    specification. The Transform dialect leverages two IRDL capabilities:

    - {e constrained pseudo-ops}: a copy of an existing op's definition with
      tightened constraints (Figure 3's highlighted parts: a
      [memref.subview] whose offset/size/stride operand segments have
      cardinality zero), registered under a constraint name such as
      ["memref.subview.constr"] and referenced from pre-/post-conditions
      ({!Ir.Opset.Constrained}) — no new op is actually introduced;
    - {e generated dynamic verifiers}: used to check declared pre/post
      conditions while transforming a concrete program. *)

open Ir

(* ------------------------------------------------------------------ *)
(* Constraint language                                                 *)
(* ------------------------------------------------------------------ *)

type type_constraint =
  | Any_type
  | Exactly of Typ.t
  | Integer_type
  | Float_type
  | Index_type
  | Memref_type
  | Tensor_type
  | Vector_type
  | Any_of of type_constraint list

let rec satisfies_type (t : Typ.t) = function
  | Any_type -> true
  | Exactly t' -> Typ.equal t t'
  | Integer_type -> Typ.is_integer t
  | Float_type -> Typ.is_float t
  | Index_type -> Typ.is_index t
  | Memref_type -> (
    match t with Typ.Memref _ | Typ.Unranked_memref _ -> true | _ -> false)
  | Tensor_type -> (
    match t with
    | Typ.Ranked_tensor _ | Typ.Unranked_tensor _ -> true
    | _ -> false)
  | Vector_type -> ( match t with Typ.Vector _ -> true | _ -> false)
  | Any_of cs -> List.exists (satisfies_type t) cs

let rec pp_type_constraint fmt = function
  | Any_type -> Fmt.string fmt "!any"
  | Exactly t -> Typ.pp fmt t
  | Integer_type -> Fmt.string fmt "!integer"
  | Float_type -> Fmt.string fmt "!float"
  | Index_type -> Fmt.string fmt "!index"
  | Memref_type -> Fmt.string fmt "!memrefType"
  | Tensor_type -> Fmt.string fmt "!tensorType"
  | Vector_type -> Fmt.string fmt "!vectorType"
  | Any_of cs ->
    Fmt.pf fmt "!anyOf<%a>" (Util.pp_list pp_type_constraint) cs

(** Cardinality of a variadic segment (Figure 3: [Variadic<!index, 0>] marks
    a segment constrained to cardinality zero). *)
type cardinality =
  | Single
  | Optional
  | Variadic  (** any count *)
  | Variadic_exactly of int

let satisfies_cardinality n = function
  | Single -> n = 1
  | Optional -> n <= 1
  | Variadic -> true
  | Variadic_exactly k -> n = k

let pp_cardinality pp_elt fmt (c, elt) =
  match c with
  | Single -> pp_elt fmt elt
  | Optional -> Fmt.pf fmt "Optional<%a>" pp_elt elt
  | Variadic -> Fmt.pf fmt "Variadic<%a>" pp_elt elt
  | Variadic_exactly k -> Fmt.pf fmt "Variadic<%a, %d>" pp_elt elt k

type attr_constraint =
  | Any_attr
  | Int_attr
  | Bool_attr
  | String_attr
  | Int_array_attr
  | Symbol_attr
  | Type_attr_c
  | Affine_map_attr

let satisfies_attr (a : Attr.t) = function
  | Any_attr -> true
  | Int_attr -> ( match a with Attr.Int _ -> true | _ -> false)
  | Bool_attr -> ( match a with Attr.Bool _ -> true | _ -> false)
  | String_attr -> ( match a with Attr.String _ -> true | _ -> false)
  | Int_array_attr -> ( match a with Attr.Int_array _ -> true | _ -> false)
  | Symbol_attr -> ( match a with Attr.Symbol_ref _ -> true | _ -> false)
  | Type_attr_c -> ( match a with Attr.Type _ -> true | _ -> false)
  | Affine_map_attr -> ( match a with Attr.Affine_map _ -> true | _ -> false)

let pp_attr_constraint fmt = function
  | Any_attr -> Fmt.string fmt "!anyAttr"
  | Int_attr -> Fmt.string fmt "!indexAttr"
  | Bool_attr -> Fmt.string fmt "!boolAttr"
  | String_attr -> Fmt.string fmt "!stringAttr"
  | Int_array_attr -> Fmt.string fmt "Variadic<!indexAttr>"
  | Symbol_attr -> Fmt.string fmt "!symbolAttr"
  | Type_attr_c -> Fmt.string fmt "!typeAttr"
  | Affine_map_attr -> Fmt.string fmt "!affineMapAttr"

(* ------------------------------------------------------------------ *)
(* Operation definitions                                               *)
(* ------------------------------------------------------------------ *)

type operand_def = {
  od_name : string;
  od_type : type_constraint;
  od_card : cardinality;
}

type result_def = {
  rd_name : string;
  rd_type : type_constraint;
  rd_card : cardinality;
}

type attr_def = {
  ad_name : string;
  ad_constraint : attr_constraint;
  ad_required : bool;
}

type op_def = {
  d_op : string;  (** fully-qualified payload op name, e.g. [memref.subview] *)
  d_constraint_name : string option;
      (** when [Some c], this is a *constrained copy* registered as
          [<op>.<c>] — the pseudo-op of Figure 3; the base op keeps its own
          definition *)
  d_attributes : attr_def list;
  d_operands : operand_def list;
  d_results : result_def list;
  d_cpp_constraint : string option;
      (** modeled native check, as in Figure 3's [CPPConstraint] *)
}

(* ------------------------------------------------------------------ *)
(* Native checks                                                       *)
(* ------------------------------------------------------------------ *)

(** Figure 3's [CPPConstraint "..."] escape hatch: named checks implemented
    natively and referenced from declarative definitions. *)
let native_checks : (string, Ircore.op -> bool) Hashtbl.t = Hashtbl.create 8

let register_native name check = Hashtbl.replace native_checks name check

let run_native name op =
  match Hashtbl.find_opt native_checks name with
  | Some check -> check op
  | None -> true (* unknown native checks are assumed to hold *)

let () =
  register_native "checkMemrefConstraints()" (fun _ -> true);
  (* the trivial-subview refinement: the *static* offset/size/stride arrays
     must also be empty, not just the dynamic operand segments *)
  register_native "checkTrivialSubview()" (fun op ->
      let empty name =
        match Ircore.attr op name with
        | Some (Attr.Int_array []) | None -> true
        | _ -> false
      in
      empty "static_offsets" && empty "static_sizes" && empty "static_strides")

(* segment sizes: ops with multiple variadic segments carry the MLIR-style
   operand_segment_sizes attribute; IRDL verification uses it to slice *)
let operand_segments (op : Ircore.op) (defs : operand_def list) =
  match Ircore.attr op "operand_segment_sizes" with
  | Some (Attr.Int_array sizes) when List.length sizes = List.length defs ->
    Some sizes
  | _ ->
    (* without segments: only valid if at most one segment is variadic *)
    let variadics =
      List.filter
        (fun d -> match d.od_card with Single | Optional -> false | _ -> true)
        defs
    in
    let fixed = List.length defs - List.length variadics in
    let n = Ircore.num_operands op in
    if variadics = [] then
      if n = List.length defs then Some (List.map (fun _ -> 1) defs) else None
    else if List.length variadics = 1 && n >= fixed then
      Some
        (List.map
           (fun d ->
             match d.od_card with
             | Single -> 1
             | Optional -> if n > fixed then 1 else 0
             | _ -> n - fixed)
           defs)
    else None

(** Generated verifier for [def] (paper: "IRDL's capability to automatically
    generate constraint verifiers"). *)
let verify (def : op_def) (op : Ircore.op) : (unit, string) result =
  let ( let* ) = Result.bind in
  let* () =
    if op.Ircore.op_name = def.d_op then Ok ()
    else Error (Fmt.str "expected op %s, got %s" def.d_op op.Ircore.op_name)
  in
  (* attributes *)
  let* () =
    List.fold_left
      (fun acc ad ->
        let* () = acc in
        match Ircore.attr op ad.ad_name with
        | None ->
          if ad.ad_required then
            Error (Fmt.str "missing required attribute %s" ad.ad_name)
          else Ok ()
        | Some a ->
          if satisfies_attr a ad.ad_constraint then Ok ()
          else
            Error
              (Fmt.str "attribute %s violates its constraint %a" ad.ad_name
                 pp_attr_constraint ad.ad_constraint))
      (Ok ()) def.d_attributes
  in
  (* operands: slice into segments, check cardinality + types *)
  let* segments =
    match operand_segments op def.d_operands with
    | Some s -> Ok s
    | None ->
      Error
        (Fmt.str "cannot match %d operands against the declared segments"
           (Ircore.num_operands op))
  in
  let operands = Array.of_list (Ircore.operands op) in
  let* _ =
    List.fold_left2
      (fun acc d n ->
        let* start = acc in
        let* () =
          if satisfies_cardinality n d.od_card then Ok ()
          else
            Error
              (Fmt.str "operand segment %s has cardinality %d, violating %s"
                 d.od_name n
                 (Fmt.str "%a" (pp_cardinality pp_type_constraint)
                    (d.od_card, d.od_type)))
        in
        let* () =
          let ok = ref (Ok ()) in
          for i = start to start + n - 1 do
            if
              Result.is_ok !ok
              && not (satisfies_type (Ircore.value_typ operands.(i)) d.od_type)
            then
              ok :=
                Error
                  (Fmt.str "operand %s#%d violates type constraint %a"
                     d.od_name (i - start) pp_type_constraint d.od_type)
          done;
          !ok
        in
        Ok (start + n))
      (Ok 0) def.d_operands segments
  in
  (* results *)
  let results = Ircore.results op in
  let* () =
    let single_defs = List.for_all (fun r -> r.rd_card = Single) def.d_results in
    if single_defs && List.length results <> List.length def.d_results then
      Error
        (Fmt.str "expected %d results, got %d"
           (List.length def.d_results)
           (List.length results))
    else Ok ()
  in
  let* () =
    if List.for_all (fun r -> r.rd_card = Single) def.d_results then
      List.fold_left2
        (fun acc rd r ->
          let* () = acc in
          if satisfies_type (Ircore.value_typ r) rd.rd_type then Ok ()
          else
            Error
              (Fmt.str "result %s violates type constraint %a" rd.rd_name
                 pp_type_constraint rd.rd_type))
        (Ok ()) def.d_results results
    else Ok ()
  in
  match def.d_cpp_constraint with
  | Some name when not (run_native name op) ->
    Error (Fmt.str "native constraint %s failed" name)
  | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(** Definitions are keyed by the Opset spelling: the plain op name for base
    definitions, ["<op>.<constraint>"] for constrained copies. *)
let registry : (string, op_def) Hashtbl.t = Hashtbl.create 32

let key_of def =
  match def.d_constraint_name with
  | None -> def.d_op
  | Some c -> def.d_op ^ "." ^ c

let register def = Hashtbl.replace registry (key_of def) def
let lookup key = Hashtbl.find_opt registry key

(** Does [op] satisfy the op-set element [elem]? Plain and dialect elements
    are name checks; constrained elements run the generated verifier;
    interface elements resolve through the context's op registry. *)
let op_satisfies ?ctx (elem : Opset.elem) (op : Ircore.op) =
  match elem with
  | Opset.Dialect d -> Ircore.op_dialect op = d
  | Opset.Exact n -> op.Ircore.op_name = n
  | Opset.Constrained (n, c) -> (
    op.Ircore.op_name = n
    &&
    match lookup (n ^ "." ^ c) with
    | Some def -> Result.is_ok (verify def op)
    | None -> false)
  | Opset.Interface iface -> (
    match ctx with
    | Some ctx -> Context.implements ctx op.Ircore.op_name iface
    | None -> false)

(** Is [op] covered by the op set, with constrained elements checked
    dynamically? (The refinement of {!Ir.Opset.covers} used by the dynamic
    condition checker.) *)
let opset_covers_op ?ctx (s : Opset.t) (op : Ircore.op) =
  List.exists (fun elem -> op_satisfies ?ctx elem op) s

(* ------------------------------------------------------------------ *)
(* Figure 3 printing                                                   *)
(* ------------------------------------------------------------------ *)

let pp_op_def fmt def =
  let name =
    match def.d_constraint_name with
    | None -> snd (Util.split_op_name def.d_op)
    | Some c -> snd (Util.split_op_name def.d_op) ^ "." ^ c
  in
  Fmt.pf fmt "Operation %s {@." name;
  if def.d_attributes <> [] then begin
    Fmt.pf fmt "  Attributes(@.";
    List.iter
      (fun a ->
        Fmt.pf fmt "    %s: %a,@." a.ad_name pp_attr_constraint a.ad_constraint)
      def.d_attributes;
    Fmt.pf fmt "  )@."
  end;
  if def.d_operands <> [] then begin
    Fmt.pf fmt "  Operands(@.";
    List.iter
      (fun o ->
        Fmt.pf fmt "    %s: %a,@." o.od_name
          (pp_cardinality pp_type_constraint)
          (o.od_card, o.od_type))
      def.d_operands;
    Fmt.pf fmt "  )@."
  end;
  if def.d_results <> [] then begin
    Fmt.pf fmt "  Results(";
    List.iteri
      (fun i r ->
        if i > 0 then Fmt.string fmt ", ";
        Fmt.pf fmt "%s: %a" r.rd_name
          (pp_cardinality pp_type_constraint)
          (r.rd_card, r.rd_type))
      def.d_results;
    Fmt.pf fmt ")@."
  end;
  (match def.d_cpp_constraint with
  | Some c -> Fmt.pf fmt "  CPPConstraint %S@." c
  | None -> ());
  Fmt.pf fmt "}"

(* ------------------------------------------------------------------ *)
(* Built-in definitions: the memref ops of Figure 3 / Table 2          *)
(* ------------------------------------------------------------------ *)

(** The base [memref.subview] definition of Figure 3. *)
let subview_def =
  {
    d_op = "memref.subview";
    d_constraint_name = None;
    d_attributes =
      [
        { ad_name = "static_offsets"; ad_constraint = Int_array_attr; ad_required = true };
        { ad_name = "static_sizes"; ad_constraint = Int_array_attr; ad_required = true };
        { ad_name = "static_strides"; ad_constraint = Int_array_attr; ad_required = true };
      ];
    d_operands =
      [
        { od_name = "input"; od_type = Memref_type; od_card = Single };
        { od_name = "offsets"; od_type = Index_type; od_card = Variadic };
        { od_name = "sizes"; od_type = Index_type; od_card = Variadic };
        { od_name = "strides"; od_type = Index_type; od_card = Variadic };
      ];
    d_results = [ { rd_name = "view"; rd_type = Memref_type; rd_card = Single } ];
    d_cpp_constraint = Some "checkMemrefConstraints()";
  }

(** The constrained pseudo-op of Figure 3 (highlighted parts): the
    offset/size/stride segments are guaranteed to have cardinality zero —
    trivially indexed accesses, the post-condition of
    [expand-strided-metadata] (Figure 4). Additionally the static arrays
    must be empty, which we model through the cpp-style native check. *)
let subview_constr_def =
  {
    subview_def with
    d_constraint_name = Some "constr";
    d_operands =
      [
        { od_name = "input"; od_type = Memref_type; od_card = Single };
        { od_name = "offsets"; od_type = Index_type; od_card = Variadic_exactly 0 };
        { od_name = "sizes"; od_type = Index_type; od_card = Variadic_exactly 0 };
        { od_name = "strides"; od_type = Index_type; od_card = Variadic_exactly 0 };
      ];
    d_cpp_constraint = Some "checkTrivialSubview()";
  }

let reinterpret_cast_def =
  {
    d_op = "memref.reinterpret_cast";
    d_constraint_name = None;
    d_attributes =
      [
        { ad_name = "static_offsets"; ad_constraint = Int_array_attr; ad_required = true };
        { ad_name = "static_sizes"; ad_constraint = Int_array_attr; ad_required = true };
        { ad_name = "static_strides"; ad_constraint = Int_array_attr; ad_required = true };
      ];
    d_operands =
      [
        { od_name = "source"; od_type = Memref_type; od_card = Single };
        { od_name = "dynamic"; od_type = Index_type; od_card = Variadic };
      ];
    d_results =
      [ { rd_name = "result"; rd_type = Memref_type; rd_card = Single } ];
    d_cpp_constraint = None;
  }

let load_def =
  {
    d_op = "memref.load";
    d_constraint_name = None;
    d_attributes = [];
    d_operands =
      [
        { od_name = "memref"; od_type = Memref_type; od_card = Single };
        { od_name = "indices"; od_type = Index_type; od_card = Variadic };
      ];
    d_results = [ { rd_name = "value"; rd_type = Any_type; rd_card = Single } ];
    d_cpp_constraint = None;
  }

let builtin_defs =
  [ subview_def; subview_constr_def; reinterpret_cast_def; load_def ]

(* ---------------- generic constraint combinators ---------------- *)

(** A small propositional-constraint language over an abstract atom type,
    shared by the attribute/type constraints above and by the
    annotation-flow requires clauses in [Transform.Annot]. Evaluation is
    three-valued: an atom can be known to hold, known to be refuted, or
    unknown — so [Not c] holds only when [c] is positively refuted, never
    merely because [c] is not provable. *)
type 'a constr =
  | Ctrue
  | Atom of 'a
  | All of 'a constr list
  | Any of 'a constr list
  | Not of 'a constr

let rec constr_holds ~atom ~atom_refuted = function
  | Ctrue -> true
  | Atom a -> atom a
  | All cs -> List.for_all (constr_holds ~atom ~atom_refuted) cs
  | Any cs -> List.exists (constr_holds ~atom ~atom_refuted) cs
  | Not c -> constr_refuted ~atom ~atom_refuted c

and constr_refuted ~atom ~atom_refuted = function
  | Ctrue -> false
  | Atom a -> atom_refuted a
  | All cs -> List.exists (constr_refuted ~atom ~atom_refuted) cs
  | Any cs -> List.for_all (constr_refuted ~atom ~atom_refuted) cs
  | Not c -> constr_holds ~atom ~atom_refuted c

let rec pp_constr pp_atom fmt = function
  | Ctrue -> Fmt.string fmt "true"
  | Atom a -> pp_atom fmt a
  | All [] -> Fmt.string fmt "true"
  | All cs ->
    Fmt.pf fmt "(%a)" Fmt.(list ~sep:(any " & ") (pp_constr pp_atom)) cs
  | Any [] -> Fmt.string fmt "false"
  | Any cs ->
    Fmt.pf fmt "(%a)" Fmt.(list ~sep:(any " | ") (pp_constr pp_atom)) cs
  | Not c -> Fmt.pf fmt "!%a" (pp_constr pp_atom) c

let registered = ref false

let register_builtin () =
  if not !registered then begin
    registered := true;
    List.iter register builtin_defs
  end

let () = register_builtin ()
