(** Affine expressions and maps, the slice of MLIR's affine infrastructure
    needed by the [affine] dialect, memref strided layouts and the
    [expand-strided-metadata] lowering. *)

type expr =
  | Dim of int  (** [d<i>] *)
  | Sym of int  (** [s<i>] *)
  | Const of int
  | Add of expr * expr
  | Mul of expr * expr
  | Mod of expr * expr
  | Floordiv of expr * expr
  | Ceildiv of expr * expr

type map = { num_dims : int; num_syms : int; exprs : expr list }

let dim i = Dim i
let sym i = Sym i
let const c = Const c

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)
(* ------------------------------------------------------------------ *)

let rec simplify e =
  match e with
  | Dim _ | Sym _ | Const _ -> e
  | Add (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (x + y)
    | Const 0, e | e, Const 0 -> e
    (* canonicalize constants to the right: (e + c1) + c2 -> e + (c1+c2) *)
    | Add (e, Const c1), Const c2 -> simplify (Add (e, Const (c1 + c2)))
    | Const c, e -> simplify (Add (e, Const c))
    | a, b -> Add (a, b))
  | Mul (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (x * y)
    | Const 0, _ | _, Const 0 -> Const 0
    | Const 1, e | e, Const 1 -> e
    | Const c, e -> simplify (Mul (e, Const c))
    | a, b -> Mul (a, b))
  | Mod (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      let r = x mod y in
      Const (if r < 0 then r + y else r)
    | _, Const 1 -> Const 0
    | a, b -> Mod (a, b))
  | Floordiv (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      Const (if x >= 0 then x / y else -(((-x) + y - 1) / y))
    | e, Const 1 -> e
    | a, b -> Floordiv (a, b))
  | Ceildiv (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      Const (if x >= 0 then (x + y - 1) / y else -((-x) / y))
    | e, Const 1 -> e
    | a, b -> Ceildiv (a, b))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

exception Eval_error of string

let rec eval ~dims ~syms e =
  let get a i what =
    if i >= 0 && i < Array.length a then a.(i)
    else raise (Eval_error (Fmt.str "%s index %d out of range" what i))
  in
  match e with
  | Dim i -> get dims i "dim"
  | Sym i -> get syms i "symbol"
  | Const c -> c
  | Add (a, b) -> eval ~dims ~syms a + eval ~dims ~syms b
  | Mul (a, b) -> eval ~dims ~syms a * eval ~dims ~syms b
  | Mod (a, b) ->
    let d = eval ~dims ~syms b in
    if d <= 0 then raise (Eval_error "mod by non-positive value");
    let r = eval ~dims ~syms a mod d in
    if r < 0 then r + d else r
  | Floordiv (a, b) ->
    let d = eval ~dims ~syms b in
    if d <= 0 then raise (Eval_error "floordiv by non-positive value");
    let n = eval ~dims ~syms a in
    if n >= 0 then n / d else -(((-n) + d - 1) / d)
  | Ceildiv (a, b) ->
    let d = eval ~dims ~syms b in
    if d <= 0 then raise (Eval_error "ceildiv by non-positive value");
    let n = eval ~dims ~syms a in
    if n >= 0 then (n + d - 1) / d else -((-n) / d)

(* ------------------------------------------------------------------ *)
(* Maps                                                                *)
(* ------------------------------------------------------------------ *)

let make_map ~num_dims ~num_syms exprs =
  { num_dims; num_syms; exprs = List.map simplify exprs }

let identity_map n =
  { num_dims = n; num_syms = 0; exprs = List.init n (fun i -> Dim i) }

let eval_map m ~dims ~syms =
  if Array.length dims <> m.num_dims then
    raise (Eval_error "wrong number of dims");
  if Array.length syms <> m.num_syms then
    raise (Eval_error "wrong number of symbols");
  List.map (eval ~dims ~syms) m.exprs

let is_identity m =
  m.num_syms = 0
  && List.length m.exprs = m.num_dims
  && List.for_all2 (fun e i -> e = Dim i) m.exprs
       (List.init m.num_dims Fun.id)

(** Substitute dims/syms of [m] by expressions; used for composition. *)
let rec substitute ~dim_repl ~sym_repl e =
  match e with
  | Dim i -> dim_repl i
  | Sym i -> sym_repl i
  | Const _ -> e
  | Add (a, b) ->
    Add (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)
  | Mul (a, b) ->
    Mul (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)
  | Mod (a, b) ->
    Mod (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)
  | Floordiv (a, b) ->
    Floordiv
      (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)
  | Ceildiv (a, b) ->
    Ceildiv
      (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)

(** [compose f g] applies [g] first, then [f]: result(x) = f(g(x)).
    [g] must produce exactly [f.num_dims] results. Symbols of both maps are
    concatenated, [f]'s symbols first. *)
let compose f g =
  if List.length g.exprs <> f.num_dims then
    invalid_arg "Affine.compose: arity mismatch";
  let g_exprs = Array.of_list g.exprs in
  let shifted_g_sym i = Sym (i + f.num_syms) in
  let g_shifted =
    Array.map
      (substitute ~dim_repl:(fun i -> Dim i) ~sym_repl:shifted_g_sym)
      g_exprs
  in
  let exprs =
    List.map
      (fun e ->
        simplify
          (substitute ~dim_repl:(fun i -> g_shifted.(i))
             ~sym_repl:(fun i -> Sym i)
             e))
      f.exprs
  in
  { num_dims = g.num_dims; num_syms = f.num_syms + g.num_syms; exprs }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* One writer per kind: every printer below appends to a [Buffer.t]; the
   [pp]/[to_string] forms wrap it. Nothing here goes through [Format], so no
   break hint can put a newline inside a map. *)

let rec bprint_expr b = function
  | Dim i ->
    Buffer.add_char b 'd';
    Util.add_int b i
  | Sym i ->
    Buffer.add_char b 's';
    Util.add_int b i
  | Const c -> Util.add_int b c
  | Add (a, Const c) when c < 0 ->
    bprint_expr b a;
    Buffer.add_string b " - ";
    Util.add_int b (-c)
  | Add (a, e) ->
    bprint_expr b a;
    Buffer.add_string b " + ";
    bprint_expr b e
  | Mul (a, e) -> bprint_binop b a " * " e
  | Mod (a, e) -> bprint_binop b a " mod " e
  | Floordiv (a, e) -> bprint_binop b a " floordiv " e
  | Ceildiv (a, e) -> bprint_binop b a " ceildiv " e

and bprint_binop b x op y =
  bprint_atom b x;
  Buffer.add_string b op;
  bprint_atom b y

and bprint_atom b e =
  match e with
  | Dim _ | Sym _ | Const _ -> bprint_expr b e
  | _ ->
    Buffer.add_char b '(';
    bprint_expr b e;
    Buffer.add_char b ')'

(** [(d0, d1)[s0] -> (d0 + s0, d1)]: the text between [affine_map<] and
    [>]. *)
let bprint_map b m =
  let ids c n =
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_char b c;
      Util.add_int b i
    done
  in
  Buffer.add_char b '(';
  ids 'd' m.num_dims;
  Buffer.add_char b ')';
  if m.num_syms > 0 then begin
    Buffer.add_char b '[';
    ids 's' m.num_syms;
    Buffer.add_char b ']'
  end;
  Buffer.add_string b " -> (";
  Util.bprint_list bprint_expr b m.exprs;
  Buffer.add_char b ')'

let map_to_string m = Util.bprint_to_string bprint_map m
let pp_map fmt m = Format.pp_print_string fmt (map_to_string m)
