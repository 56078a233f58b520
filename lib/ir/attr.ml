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
let dense_float_string f =
  if not (Float.is_finite f) then Printf.sprintf "%g" f
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
    if integral then s ^ ".0" else s

let bprint_typed typ b t =
  Buffer.add_string b " : ";
  typ b t

(** [bprint_with typ] writes each type through [typ]: the op printer
    passes its per-print memoizing writer. *)
let rec bprint_with typ b a =
  match a with
  | Unit -> Buffer.add_string b "unit"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int (v, t) ->
    Util.add_int b v;
    bprint_typed typ b t
  | Float (v, t) ->
    Buffer.add_string b (Printf.sprintf "%h" v);
    bprint_typed typ b t
  | String s -> Util.bprint_quoted b s
  | Type t -> typ b t
  | Array xs ->
    Buffer.add_char b '[';
    Util.bprint_list (bprint_with typ) b xs;
    Buffer.add_char b ']'
  | Int_array xs ->
    Buffer.add_string b "array<i64: ";
    Util.bprint_list Util.add_int b xs;
    Buffer.add_char b '>'
  | Dense_int (xs, t) ->
    Buffer.add_string b "dense<[";
    Util.bprint_list Util.add_int b xs;
    Buffer.add_string b "]>";
    bprint_typed typ b t
  | Dense_float (xs, t) ->
    Buffer.add_string b "dense<[";
    Util.bprint_list (fun b f -> Buffer.add_string b (dense_float_string f)) b xs;
    Buffer.add_string b "]>";
    bprint_typed typ b t
  | Dict kvs ->
    Buffer.add_char b '{';
    Util.bprint_list
      (fun b (k, v) ->
        Buffer.add_string b k;
        Buffer.add_string b " = ";
        bprint_with typ b v)
      b kvs;
    Buffer.add_char b '}'
  | Symbol_ref (root, nested) ->
    Buffer.add_char b '@';
    Buffer.add_string b root;
    List.iter
      (fun n ->
        Buffer.add_string b "::@";
        Buffer.add_string b n)
      nested
  | Affine_map m ->
    Buffer.add_string b "affine_map<";
    Affine.bprint_map b m;
    Buffer.add_char b '>'

let bprint b a = bprint_with Typ.bprint b a
let to_string a = Util.bprint_to_string bprint a
let pp fmt a = Format.pp_print_string fmt (to_string a)

(* Floats compare by bit pattern, as upstream MLIR's [FloatAttr] does:
   [0.0] and [-0.0] are different constants, and a NaN equals itself.
   Polymorphic [=] and [Hashtbl.hash] both identify the two zeros. *)
let float_bits_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rec equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | Float (x, t), Float (y, u) -> float_bits_equal x y && Typ.equal t u
  | Dense_float (xs, t), Dense_float (ys, u) ->
    List.equal float_bits_equal xs ys && Typ.equal t u
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
