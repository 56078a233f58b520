(** Source locations attached to operations, mirroring MLIR's [Location]. *)

type t =
  | Unknown
  | File of { file : string; line : int; col : int }
  | Name of string * t  (** a named location wrapping a child location *)
  | Fused of t list

let unknown = Unknown
let file ?(line = 0) ?(col = 0) file = File { file; line; col }
let name n = Name (n, Unknown)

(** [loc(...)], as the parser reads it back. *)
let rec bprint b l =
  Buffer.add_string b "loc(";
  (match l with
  | Unknown -> Buffer.add_string b "unknown"
  | File { file; line; col } ->
    Util.bprint_quoted b file;
    Buffer.add_char b ':';
    Util.add_int b line;
    Buffer.add_char b ':';
    Util.add_int b col
  | Name (n, Unknown) -> Util.bprint_quoted b n
  | Name (n, child) ->
    Util.bprint_quoted b n;
    Buffer.add_string b " at ";
    bprint b child
  | Fused locs ->
    Buffer.add_string b "fused[";
    Util.bprint_list bprint b locs;
    Buffer.add_char b ']');
  Buffer.add_char b ')'

let to_string l = Util.bprint_to_string bprint l
let pp fmt l = Format.pp_print_string fmt (to_string l)
