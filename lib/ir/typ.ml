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

let memref dims elt = Memref (dims, elt, Identity)
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
let is_func = function Func _ -> true | _ -> false

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

let float_kind_name = function
  | F16 -> "f16"
  | BF16 -> "bf16"
  | F32 -> "f32"
  | F64 -> "f64"

let bprint_dim b = function
  | Static n -> Util.add_int b n
  | Dynamic -> Buffer.add_char b '?'

let bprint_shape_prefix b dims =
  List.iter
    (fun d ->
      bprint_dim b d;
      Buffer.add_char b 'x')
    dims

let rec bprint b = function
  | Integer n ->
    Buffer.add_char b 'i';
    Util.add_int b n
  | Index -> Buffer.add_string b "index"
  | Float k -> Buffer.add_string b (float_kind_name k)
  | Vector (ns, t) ->
    Buffer.add_string b "vector<";
    List.iter
      (fun n ->
        Util.add_int b n;
        Buffer.add_char b 'x')
      ns;
    bprint b t;
    Buffer.add_char b '>'
  | Ranked_tensor (dims, t) ->
    Buffer.add_string b "tensor<";
    bprint_shape_prefix b dims;
    bprint b t;
    Buffer.add_char b '>'
  | Unranked_tensor t ->
    Buffer.add_string b "tensor<*x";
    bprint b t;
    Buffer.add_char b '>'
  | Memref (dims, t, layout) ->
    Buffer.add_string b "memref<";
    bprint_shape_prefix b dims;
    bprint b t;
    (match layout with
    | Identity -> ()
    | Strided { offset; strides } ->
      Buffer.add_string b ", strided<[";
      Util.bprint_list bprint_dim b strides;
      Buffer.add_string b "], offset: ";
      bprint_dim b offset;
      Buffer.add_char b '>'
    | Affine_layout m ->
      Buffer.add_string b ", affine_map<";
      Affine.bprint_map b m;
      Buffer.add_char b '>');
    Buffer.add_char b '>'
  | Unranked_memref t ->
    Buffer.add_string b "memref<*x";
    bprint b t;
    Buffer.add_char b '>'
  | Func (ins, outs) -> (
    Buffer.add_char b '(';
    Util.bprint_list bprint b ins;
    Buffer.add_string b ") -> ";
    match outs with
    | [ o ] when not (is_func o) -> bprint b o
    | outs ->
      Buffer.add_char b '(';
      Util.bprint_list bprint b outs;
      Buffer.add_char b ')')
  | Tuple ts ->
    Buffer.add_string b "tuple<";
    Util.bprint_list bprint b ts;
    Buffer.add_char b '>'
  | Opaque (dialect, body) ->
    Buffer.add_char b '!';
    Buffer.add_string b dialect;
    if body <> "" then begin
      Buffer.add_char b '.';
      Buffer.add_string b body
    end

let to_string t = Util.bprint_to_string bprint t
let pp fmt t = Format.pp_print_string fmt (to_string t)

(* the parser shares repeated types, so equal types are often the same
   value *)
let equal (a : t) (b : t) = a == b || a = b
