(** The type system: a closed representation of the MLIR builtin types used
    by our dialects, plus an opaque escape hatch for dialect-specific types
    (e.g. [!transform.any_op], [!llvm.ptr]). *)

type float_kind = F16 | BF16 | F32 | F64

(** Dimension of a shaped type: statically known or dynamic ([?]). *)
type dim = Static of int | Dynamic

(** Memref layouts. [Identity] is the default row-major contiguous layout.
    [Strided] mirrors MLIR's [strided<[s0, s1], offset: o>] with possibly
    dynamic entries. [Affine_layout] is the fully general case. *)
type layout =
  | Identity
  | Strided of { offset : dim; strides : dim list }
  | Affine_layout of Affine.map

type t =
  | Integer of int  (** [iN]; [i1] is the boolean type *)
  | Index
  | Float of float_kind
  | Vector of int list * t
  | Ranked_tensor of dim list * t
  | Unranked_tensor of t
  | Memref of dim list * t * layout
  | Unranked_memref of t
  | Func of t list * t list
  | Tuple of t list
  | Opaque of string * string  (** [!dialect.body] *)

let i1 = Integer 1
let i8 = Integer 8
let i32 = Integer 32
let i64 = Integer 64
let index = Index
let f16 = Float F16
let bf16 = Float BF16
let f32 = Float F32
let f64 = Float F64

let memref ?(layout = Identity) dims elt = Memref (dims, elt, layout)
let tensor dims elt = Ranked_tensor (dims, elt)
let static_dims ns = List.map (fun n -> Static n) ns

(* Transform dialect types are represented as opaque types so that the core
   IR does not depend on the transform library. *)
let transform_any_op = Opaque ("transform", "any_op")
let transform_param = Opaque ("transform", "param")
let llvm_ptr = Opaque ("llvm", "ptr")

let is_integer = function Integer _ -> true | _ -> false
let is_float = function Float _ -> true | _ -> false
let is_index = function Index -> true | _ -> false

let element_type = function
  | Vector (_, t)
  | Ranked_tensor (_, t)
  | Unranked_tensor t
  | Memref (_, t, _)
  | Unranked_memref t ->
    Some t
  | _ -> None

let shape = function
  | Ranked_tensor (dims, _) | Memref (dims, _, _) -> Some dims
  | Vector (ns, _) -> Some (List.map (fun n -> Static n) ns)
  | _ -> None

let rank t = Option.map List.length (shape t)

let static_shape t =
  match shape t with
  | None -> None
  | Some dims ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | Static n :: rest -> go (n :: acc) rest
      | Dynamic :: _ -> None
    in
    go [] dims

let num_elements t =
  match static_shape t with
  | Some dims -> Some (List.fold_left ( * ) 1 dims)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_float_kind fmt = function
  | F16 -> Fmt.string fmt "f16"
  | BF16 -> Fmt.string fmt "bf16"
  | F32 -> Fmt.string fmt "f32"
  | F64 -> Fmt.string fmt "f64"

let pp_dim fmt = function
  | Static n -> Fmt.int fmt n
  | Dynamic -> Fmt.string fmt "?"

let pp_shape_prefix fmt dims =
  List.iter (fun d -> Fmt.pf fmt "%ax" pp_dim d) dims

let rec pp fmt = function
  | Integer n -> Fmt.pf fmt "i%d" n
  | Index -> Fmt.string fmt "index"
  | Float k -> pp_float_kind fmt k
  | Vector (ns, t) ->
    Fmt.pf fmt "vector<%a%a>"
      (fun fmt -> List.iter (Fmt.pf fmt "%dx"))
      ns pp t
  | Ranked_tensor (dims, t) ->
    Fmt.pf fmt "tensor<%a%a>" pp_shape_prefix dims pp t
  | Unranked_tensor t -> Fmt.pf fmt "tensor<*x%a>" pp t
  | Memref (dims, t, layout) -> (
    match layout with
    | Identity -> Fmt.pf fmt "memref<%a%a>" pp_shape_prefix dims pp t
    | Strided { offset; strides } ->
      Fmt.pf fmt "memref<%a%a, strided<[%a], offset: %a>>" pp_shape_prefix
        dims pp t (Util.pp_list pp_dim) strides pp_dim offset
    | Affine_layout m ->
      Fmt.pf fmt "memref<%a%a, affine_map<%a>>" pp_shape_prefix dims pp t
        Affine.pp_map m)
  | Unranked_memref t -> Fmt.pf fmt "memref<*x%a>" pp t
  | Func (ins, outs) ->
    Fmt.pf fmt "(%a) -> " (Util.pp_list pp) ins;
    (match outs with
    | [ (Func _ as o) ] -> Fmt.pf fmt "(%a)" pp o
    | [ o ] -> pp fmt o
    | outs -> Fmt.pf fmt "(%a)" (Util.pp_list pp) outs)
  | Tuple ts -> Fmt.pf fmt "tuple<%a>" (Util.pp_list pp) ts
  | Opaque (dialect, body) ->
    if body = "" then Fmt.pf fmt "!%s" dialect
    else Fmt.pf fmt "!%s.%s" dialect body

let to_string t = Fmt.str "%a" pp t

let equal (a : t) (b : t) = a = b
