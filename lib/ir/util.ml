(** Small shared utilities for the IR library. *)

(** Monotonically increasing unique identifiers used by values, ops, blocks
    and regions. Never reused; atomic so ids stay unique when worker domains
    build IR concurrently (printed names never depend on raw id values —
    the printer renumbers per print). *)
let fresh_id : unit -> int =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

(** String-keyed hash tables. Keys compare with [String.equal] rather than
    polymorphic equality; they hash with [Hashtbl.hash], as the polymorphic
    table does, so iteration order is the same as with it. *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

(** Int-keyed hash tables for id-keyed side state: identity hashing, no
    generic hash call. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)

(* Text is written by buffer writers: each printable kind has one
   [bprint : Buffer.t -> t -> unit], and its [to_string]/[pp] wrap it. The
   helpers below are shared by those writers. *)

(** The decimal text of [i]; non-negative ints allocate nothing. *)
let rec add_int b i =
  if i >= 0 && i < 10 then Buffer.add_char b (Char.unsafe_chr (48 + i))
  else if i >= 10 then begin
    add_int b (i / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))
  end
  else Buffer.add_string b (string_of_int i)

(** [x, y, z]: each element by [bprint_elt], separated by [", "]. *)
let bprint_list bprint_elt b xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      bprint_elt b x)
    xs

(** ["..."] with OCaml's [%S] escapes, which the lexer reads back. *)
let bprint_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let bprint_to_string bprint x =
  let b = Buffer.create 64 in
  bprint b x;
  Buffer.contents b

let pp_list ?(sep = ", ") pp_elt fmt xs =
  Fmt.(list ~sep:(fun fmt () -> Fmt.string fmt sep) pp_elt) fmt xs

(** [split_op_name "arith.addi"] is [("arith", "addi")]. Names without a dot
    belong to the builtin dialect, mirroring MLIR. *)
let split_op_name name =
  match String.index_opt name '.' with
  | None -> ("builtin", name)
  | Some i ->
    (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))

let dialect_of_op_name name = fst (split_op_name name)

(** Typed universal maps, used for extensible op interfaces. Keys carry an
    injection/projection pair built from a locally generated exception
    constructor, so lookups are type-safe without [Obj.magic]. *)
module Univ = struct
  type 'a key = {
    id : int;
    name : string;
    inj : 'a -> exn;
    proj : exn -> 'a option;
  }

  let create_key (type a) name : a key =
    let module M = struct
      exception E of a
    end in
    {
      id = fresh_id ();
      name;
      inj = (fun x -> M.E x);
      proj = (function M.E x -> Some x | _ -> None);
    }

  let key_name k = k.name

  type binding = B : int * string * exn -> binding
  type t = binding list

  let empty : t = []
  let add key value m = B (key.id, key.name, key.inj value) :: m

  let find key m =
    let rec go = function
      | [] -> None
      | B (id, _, e) :: rest ->
        if id = key.id then key.proj e else go rest
    in
    go m

  let mem key m = Option.is_some (find key m)

  (** Names of all bound keys (used to answer "does this op implement an
      interface with this name" without the typed key). *)
  let binding_names m = List.map (fun (B (_, name, _)) -> name) m
end
