(** Attributes: compile-time constant data attached to operations. *)

type t =
  | Unit
  | Bool of bool
  | Int of int * Typ.t  (** typed integer; [index] or [iN] *)
  | Float of float * Typ.t
  | String of string
  | Type of Typ.t
  | Array of t list
  | Int_array of int list  (** MLIR's [array<i64: ...>], dense int arrays *)
  | Dense_int of int list * Typ.t  (** [dense<[...]> : tensor<...>] *)
  | Dense_float of float list * Typ.t
  | Dict of (string * t) list
  | Symbol_ref of string * string list  (** [@root::@nested...] *)
  | Affine_map of Affine.map

let unit = Unit
let bool b = Bool b
let int ?(typ = Typ.i64) v = Int (v, typ)
let index v = Int (v, Typ.index)
let float ?(typ = Typ.f64) v = Float (v, typ)
let str s = String s
let typ t = Type t
let symbol s = Symbol_ref (s, [])

(** A finite float in the shortest of [%.15g], [%.16g] and [%.17g] that
    parses back to the same value, with [.0] appended when that text would
    otherwise lex as an integer: a [dense] literal of integer-looking
    elements re-parses as [Dense_int]. *)
let pp_dense_float fmt f =
  if not (Float.is_finite f) then Fmt.float fmt f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p = 17 || Float.equal (float_of_string s) f then s
      else shortest (p + 1)
    in
    let s = shortest 15 in
    let integral =
      String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s
    in
    Fmt.string fmt (if integral then s ^ ".0" else s)

let rec pp fmt = function
  | Unit -> Fmt.string fmt "unit"
  | Bool b -> Fmt.bool fmt b
  | Int (v, Typ.Index) -> Fmt.pf fmt "%d : index" v
  | Int (v, t) -> Fmt.pf fmt "%d : %a" v Typ.pp t
  | Float (v, t) -> Fmt.pf fmt "%h : %a" v Typ.pp t
  | String s -> Fmt.pf fmt "%S" s
  | Type t -> Typ.pp fmt t
  | Array xs -> Fmt.pf fmt "[%a]" (Util.pp_list pp) xs
  | Int_array xs ->
    Fmt.pf fmt "array<i64: %a>" (Util.pp_list Fmt.int) xs
  | Dense_int (xs, t) ->
    Fmt.pf fmt "dense<[%a]> : %a" (Util.pp_list Fmt.int) xs Typ.pp t
  | Dense_float (xs, t) ->
    Fmt.pf fmt "dense<[%a]> : %a" (Util.pp_list pp_dense_float) xs Typ.pp t
  | Dict kvs ->
    Fmt.pf fmt "{%a}"
      (Util.pp_list (fun fmt (k, v) -> Fmt.pf fmt "%s = %a" k pp v))
      kvs
  | Symbol_ref (root, nested) ->
    Fmt.pf fmt "@%s" root;
    List.iter (Fmt.pf fmt "::@%s") nested
  | Affine_map m -> Fmt.pf fmt "affine_map<%a>" Affine.pp_map m

let to_string a = Fmt.str "%a" pp a

(* Floats compare by bit pattern, as upstream MLIR's [FloatAttr] does:
   [0.0] and [-0.0] are different constants, and a NaN equals itself.
   Polymorphic [=] and [Hashtbl.hash] both identify the two zeros. *)
let float_bits_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rec equal (a : t) (b : t) =
  match (a, b) with
  | Float (x, t), Float (y, u) -> float_bits_equal x y && t = u
  | Dense_float (xs, t), Dense_float (ys, u) ->
    List.equal float_bits_equal xs ys && t = u
  | Array xs, Array ys -> List.equal equal xs ys
  | Dict kvs, Dict kvs' ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') kvs kvs'
  | _ -> a = b

(** A hash consistent with {!equal}. *)
let rec hash = function
  | Float (v, t) -> Hashtbl.hash (0, Int64.bits_of_float v, t)
  | Dense_float (xs, t) ->
    Hashtbl.hash (1, List.map Int64.bits_of_float xs, t)
  | Array xs -> Hashtbl.hash (2, List.map hash xs)
  | Dict kvs -> Hashtbl.hash (3, List.map (fun (k, v) -> (k, hash v)) kvs)
  | a -> Hashtbl.hash a

(* Named attribute dictionaries are association lists with stable order. *)
type dict = (string * t) list

let find (name : string) (d : dict) = List.assoc_opt name d

let set (name : string) (v : t) (d : dict) : dict =
  if List.mem_assoc name d then
    List.map (fun (k, old) -> if k = name then (k, v) else (k, old)) d
  else d @ [ (name, v) ]

let remove (name : string) (d : dict) : dict = List.remove_assoc name d
