(** Sets of operation kinds, the algebra behind pre-/post-conditions of
    transforms (paper Section 3.3, Table 2).

    Elements denote op kinds at three precisions: a whole dialect
    ([{scf.*}]), an exact op ([{scf.for}]), or a *constrained* op refined by
    a named IRDL constraint ([{memref.subview.constr}], Figure 3). Subsumption
    follows precision: [scf.*] covers [scf.for]; [memref.subview] covers
    [memref.subview.constr]; a constrained element covers only itself. *)

type elem =
  | Dialect of string  (** [d.*] *)
  | Exact of string  (** a fully-qualified op name [d.op] *)
  | Constrained of string * string  (** op name, IRDL constraint name *)
  | Interface of string
      (** [interface<name>]: every op implementing the interface — the
          paper's "not list specific operation names … but operation
          interfaces instead" *)

type t = elem list  (** union of elements; order-insensitive *)

let empty : t = []

let dialect d = Dialect d
let exact name = Exact name
let constrained name c = Constrained (name, c)

let interface name = Interface name

let pp_elem fmt = function
  | Dialect d -> Fmt.pf fmt "%s.*" d
  | Exact n -> Fmt.string fmt n
  | Constrained (n, c) -> Fmt.pf fmt "%s.%s" n c
  | Interface i -> Fmt.pf fmt "interface<%s>" i

let pp fmt (s : t) = Fmt.pf fmt "{%a}" (Util.pp_list pp_elem) s

let to_string s = Fmt.str "%a" pp s

(** Does [pattern] subsume [elem]? Symbolically: an [Interface] pattern only
    covers the same interface (resolving which concrete ops implement an
    interface needs a {!Context} and happens in [Irdl.opset_covers_op]). *)
let elem_covers ~pattern elem =
  match (pattern, elem) with
  | Dialect d, Dialect d' -> String.equal d d'
  | Dialect d, Exact n | Dialect d, Constrained (n, _) ->
    String.equal d (Util.dialect_of_op_name n)
  | Dialect _, Interface _ -> false
  | Exact n, Exact n' -> String.equal n n'
  | Exact n, Constrained (n', _) -> String.equal n n'
  | Exact _, (Dialect _ | Interface _) -> false
  | Constrained (n, c), Constrained (n', c') ->
    String.equal n n' && String.equal c c'
  | Constrained _, _ -> false
  | Interface i, Interface i' -> String.equal i i'
  | Interface _, _ -> false

(** Does the set [s] cover [elem]? *)
let covers s elem = List.exists (fun pattern -> elem_covers ~pattern elem) s

(** Does [s] mention any element also (partially) matched by [s']? Used to
    detect whether a transform's pre-condition can find anything to work on:
    overlap is symmetric-ish subsumption in either direction. *)
let overlaps s s' =
  List.exists
    (fun a ->
      List.exists
        (fun b -> elem_covers ~pattern:a b || elem_covers ~pattern:b a)
        s')
    s

let union (a : t) (b : t) : t =
  List.fold_left (fun acc e -> if List.mem e acc then acc else e :: acc) a b

(** Remove from [s] every element covered by [removed]. Note: removing
    [memref.subview.constr] does *not* remove a plain [memref.subview] —
    only the constrained subset is consumed. *)
let remove ~removed (s : t) : t =
  List.filter (fun e -> not (covers removed e)) s

(** Elements of [s] not covered by [allowed]. *)
let leftover ~allowed (s : t) : t =
  List.filter (fun e -> not (covers allowed e)) s

(** Does op [op_name] match the set (ignoring constraints — constraint
    checking needs IRDL and happens dynamically)? *)
let matches_op_name s op_name =
  List.exists
    (fun e ->
      match e with
      | Dialect d -> String.equal d (Util.dialect_of_op_name op_name)
      | Exact n | Constrained (n, _) -> String.equal n op_name
      | Interface _ -> false (* needs a context; see Irdl.opset_covers_op *))
    s

(* ---------------------------------------------------------------- *)
(* Parsing: "{scf.*, cf.branch, memref.subview.constr}"              *)
(* ---------------------------------------------------------------- *)

let parse_elem str =
  let str = String.trim str in
  if
    String.length str > 11
    && String.sub str 0 10 = "interface<"
    && str.[String.length str - 1] = '>'
  then Interface (String.sub str 10 (String.length str - 11))
  else if String.length str > 2 && String.sub str (String.length str - 2) 2 = ".*"
  then Dialect (String.sub str 0 (String.length str - 2))
  else if
    String.length str > 7
    && String.sub str (String.length str - 7) 7 = ".constr"
  then Constrained (String.sub str 0 (String.length str - 7), "constr")
  else Exact str

let parse str : t =
  let str = String.trim str in
  let str =
    if String.length str >= 2 && str.[0] = '{' then
      String.sub str 1 (String.length str - 2)
    else str
  in
  if String.trim str = "" then []
  else String.split_on_char ',' str |> List.map parse_elem

(** The op-kind set actually present in a payload subtree. *)
let of_payload root =
  let seen = Hashtbl.create 32 in
  Ircore.walk (fun op -> Hashtbl.replace seen op.Ircore.op_name ()) root;
  Hashtbl.fold (fun name () acc -> Exact name :: acc) seen []
  |> List.sort compare
