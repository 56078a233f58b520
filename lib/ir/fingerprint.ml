(** Structural fingerprints of IR: a fast FNV-style hash over an op's name,
    attributes, types, region structure and internal SSA wiring.

    The fingerprint is {e structural}: two ops that print identically hash
    identically, independent of op/value identities, creation order or
    source locations. Values are numbered locally in traversal order
    (block arguments when their block is entered, results when their op is
    visited, free references on first encounter), so the hash is stable
    across parse → print → parse roundtrips — the property the
    content-addressed schedule cache in {!Transform.Schedule} relies on.
    It is equally usable for CSE-style structural equivalence classes or
    an [otd_server]-style result cache.

    This is a hash, not a proof of equality: distinct structures can in
    principle collide (63-bit space), so callers caching by fingerprint
    trade a vanishingly small collision probability for O(size) keying. *)

(* FNV-1a over the native int width; OCaml ints wrap silently, which is
   exactly what an avalanche-by-multiplication hash wants *)
let fnv_prime = 0x100000001b3
let fnv_offset = 0x3f29ce484222325

type t = int

let to_hex (fp : t) = Fmt.str "%016x" (fp land max_int)

(** Order-dependent combination of two fingerprints. *)
let combine (a : t) (b : t) : t = (a lxor (b + 0x9e3779b9 + (a lsl 6))) * fnv_prime

type ctx = {
  mutable h : int;
  values : int Util.Itbl.t;  (** value id -> local number *)
  blocks : int Util.Itbl.t;  (** block id -> local number *)
  mutable next_value : int;
  mutable next_block : int;
  typ_memo : (Typ.t, int) Hashtbl.t;
  mutable last_typ : Typ.t;
  mutable last_typ_hash : int;
      (** the type mixed last and its hash: parsed modules share equal
          types, so a run of one type skips the structural lookup *)
}

(* a type no IR holds, so the first [==] test fails *)
let no_type = Typ.Opaque ("", "")

let mix c k = c.h <- (c.h lxor k) * fnv_prime

let mix_string c s =
  for i = 0 to String.length s - 1 do
    mix c (Char.code (String.unsafe_get s i))
  done;
  (* length separator: "ab"+"c" must differ from "a"+"bc" *)
  mix c (String.length s lxor 0x5f)

(* numbering is first-encounter order: defs are visited before uses in
   well-formed IR, and even forward/free references number deterministically
   because the traversal order itself is deterministic *)
let value_num c (v : Ircore.value) =
  match Util.Itbl.find c.values v.Ircore.v_id with
  | n -> n
  | exception Not_found ->
    let n = c.next_value in
    c.next_value <- n + 1;
    Util.Itbl.replace c.values v.Ircore.v_id n;
    n

let block_num c (b : Ircore.block) =
  match Util.Itbl.find c.blocks b.Ircore.b_id with
  | n -> n
  | exception Not_found ->
    let n = c.next_block in
    c.next_block <- n + 1;
    Util.Itbl.replace c.blocks b.Ircore.b_id n;
    n

(* types recur rarely and repeat often; hash each distinct type once via its
   canonical rendering and memoize by structure *)
let mix_typ c t =
  if t != c.last_typ then begin
    c.last_typ_hash <-
      (match Hashtbl.find_opt c.typ_memo t with
      | Some k -> k
      | None ->
        let sub = { c with h = fnv_offset; typ_memo = Hashtbl.create 1 } in
        mix_string sub (Typ.to_string t);
        Hashtbl.replace c.typ_memo t sub.h;
        sub.h);
    c.last_typ <- t
  end;
  mix c c.last_typ_hash

(* The traversal below is top-level loops rather than [List.iter] and
   [Array.iter] over closures, so that a fingerprint allocates only its
   numbering tables. *)

let rec mix_ints c = function
  | [] -> ()
  | x :: rest ->
    mix c x;
    mix_ints c rest

let rec mix_floats c = function
  | [] -> ()
  | f :: rest ->
    mix c (Int64.to_int (Int64.bits_of_float f));
    mix_floats c rest

let rec mix_strings c = function
  | [] -> ()
  | s :: rest ->
    mix_string c s;
    mix_strings c rest

let rec mix_attr c (a : Attr.t) =
  match a with
  | Attr.Unit -> mix c 1
  | Attr.Bool b -> mix c (if b then 2 else 3)
  | Attr.Int (v, t) ->
    mix c 4;
    mix c v;
    mix_typ c t
  | Attr.Float (v, t) ->
    mix c 5;
    mix c (Int64.to_int (Int64.bits_of_float v));
    mix_typ c t
  | Attr.String s ->
    mix c 6;
    mix_string c s
  | Attr.Type t ->
    mix c 7;
    mix_typ c t
  | Attr.Array xs ->
    mix c 8;
    mix_attrs c xs;
    mix c (List.length xs)
  | Attr.Int_array xs ->
    mix c 9;
    mix_ints c xs;
    mix c (List.length xs)
  | Attr.Dense_int (xs, t) ->
    mix c 10;
    mix_ints c xs;
    mix c (List.length xs);
    mix_typ c t
  | Attr.Dense_float (xs, t) ->
    mix c 11;
    mix_floats c xs;
    mix c (List.length xs);
    mix_typ c t
  | Attr.Dict kvs ->
    mix c 12;
    mix_named c kvs
  | Attr.Symbol_ref (root, nested) ->
    mix c 13;
    mix_string c root;
    mix_strings c nested
  | Attr.Affine_map m ->
    mix c 14;
    mix_string c (Affine.map_to_string m)

and mix_attrs c = function
  | [] -> ()
  | a :: rest ->
    mix_attr c a;
    mix_attrs c rest

and mix_named c = function
  | [] -> ()
  | (k, v) :: rest ->
    mix_string c k;
    mix_attr c v;
    mix_named c rest

let rec mix_op c (op : Ircore.op) =
  mix c 0x0b;
  mix_string c op.Ircore.op_name;
  let operands = op.Ircore.operands and results = op.Ircore.results in
  for i = 0 to Array.length operands - 1 do
    mix c (value_num c operands.(i))
  done;
  mix c (Array.length operands);
  for i = 0 to Array.length results - 1 do
    let v = results.(i) in
    mix_typ c v.Ircore.v_typ;
    ignore (value_num c v)
  done;
  mix c (Array.length results);
  mix_named c op.Ircore.attrs;
  let successors = op.Ircore.successors in
  for i = 0 to Array.length successors - 1 do
    mix c (block_num c successors.(i))
  done;
  mix_regions c op.Ircore.regions;
  mix c (List.length op.Ircore.regions)

and mix_regions c = function
  | [] -> ()
  | r :: rest ->
    mix c 0x17;
    mix_blocks c r.Ircore.r_first;
    mix_regions c rest

and mix_blocks c = function
  | None -> ()
  | Some b ->
    mix_block c b;
    mix_blocks c b.Ircore.b_next

and mix_block c b =
  mix c 0x1d;
  ignore (block_num c b);
  let args = b.Ircore.b_args in
  for i = 0 to Array.length args - 1 do
    let v = args.(i) in
    mix_typ c v.Ircore.v_typ;
    ignore (value_num c v)
  done;
  mix_ops c b.Ircore.b_first

and mix_ops c = function
  | None -> ()
  | Some op ->
    mix_op c op;
    mix_ops c op.Ircore.op_next

(** Structural fingerprint of [op] and everything nested under it. *)
let op (root : Ircore.op) : t =
  let c =
    {
      h = fnv_offset;
      values = Util.Itbl.create 64;
      blocks = Util.Itbl.create 8;
      next_value = 0;
      next_block = 0;
      typ_memo = Hashtbl.create 16;
      last_typ = no_type;
      last_typ_hash = 0;
    }
  in
  mix_op c root;
  c.h

(** Fingerprint of an attribute alone (e.g. a configuration dictionary). *)
let attr (a : Attr.t) : t =
  let c =
    {
      h = fnv_offset;
      values = Util.Itbl.create 1;
      blocks = Util.Itbl.create 1;
      next_value = 0;
      next_block = 0;
      typ_memo = Hashtbl.create 4;
      last_typ = no_type;
      last_typ_hash = 0;
    }
  in
  mix_attr c a;
  c.h

(** Fingerprint of a bare string (e.g. a pass-pipeline spec or request
    text) in the same FNV-1a space, so it composes with {!combine}. *)
let string (s : string) : t =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  (!h lxor (String.length s lxor 0x5f)) * fnv_prime

let equal (a : t) (b : t) = a = b
