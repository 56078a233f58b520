(** The context: a registry of dialects and operation definitions.

    Mirrors MLIR's [MLIRContext] + ODS: each registered operation carries its
    structural invariants (verifier), traits, canonicalization patterns and a
    typed universal map of interface implementations, so that generic code
    (verifier, greedy rewriter, transform interpreter) can query behaviour
    without depending on concrete dialects. *)

type trait =
  | Terminator
  | Isolated_from_above
  | Commutative
  | Pure  (** no memory effects; speculatable *)
  | Constant_like
  | Symbol_table  (** op's region defines a symbol scope (e.g. module) *)
  | Symbol  (** op defines a symbol via its [sym_name] attribute *)
  | Same_operands_and_result_type
  | No_terminator  (** graph-like region; blocks need no terminator *)
  | Return_like

type effect_kind = Read | Write | Alloc | Free

(* one bit per trait *)
let trait_bit = function
  | Terminator -> 0x1
  | Isolated_from_above -> 0x2
  | Commutative -> 0x4
  | Pure -> 0x8
  | Constant_like -> 0x10
  | Symbol_table -> 0x20
  | Symbol -> 0x40
  | Same_operands_and_result_type -> 0x80
  | No_terminator -> 0x100
  | Return_like -> 0x200

type op_def = {
  d_name : string;
  d_dialect : string;
  d_summary : string;
  d_traits : int;  (** the {!trait_bit}s of the op's traits *)
  d_verify : Ircore.op -> (unit, string) result;
  d_effects : Ircore.op -> effect_kind list;
  d_interfaces : Util.Univ.t;
  d_canonicalizers : string list;
      (** names of canonicalization patterns (resolved via {!Patterns}) *)
}

type dialect = { dl_name : string; mutable dl_op_names : string list }

type t = {
  ops : op_def Util.Stbl.t;
  dialects : (string, dialect) Hashtbl.t;
  mutable allow_unregistered : bool;
  diags : Diag.engine;  (** per-context diagnostic handler stack *)
}

let create ?(allow_unregistered = false) () =
  {
    ops = Util.Stbl.create 256;
    dialects = Hashtbl.create 16;
    allow_unregistered;
    diags = Diag.engine ();
  }

let allow_unregistered ctx b = ctx.allow_unregistered <- b
let allows_unregistered ctx = ctx.allow_unregistered

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let diag_engine ctx = ctx.diags

(** Emit a diagnostic to the context's innermost handler (stderr when no
    handler is installed). *)
let emit_diag ctx d = Diag.emit ctx.diags d

(** Run [f] with [h] installed as the context's innermost handler. *)
let with_diag_handler ctx h f = Diag.with_handler ctx.diags h f

(** Run [f] capturing every diagnostic emitted against this context. *)
let capture_diags ctx f = Diag.capture ctx.diags f

let get_or_create_dialect ctx name =
  match Hashtbl.find_opt ctx.dialects name with
  | Some d -> d
  | None ->
    let d = { dl_name = name; dl_op_names = [] } in
    Hashtbl.replace ctx.dialects name d;
    d

let default_verify (_ : Ircore.op) = Ok ()
let no_effects (_ : Ircore.op) = []

let register_op ctx ?(summary = "") ?(traits = []) ?(verify = default_verify)
    ?(effects = no_effects) ?(interfaces = Util.Univ.empty)
    ?(canonicalizers = []) name =
  let dialect = Util.dialect_of_op_name name in
  let def =
    {
      d_name = name;
      d_dialect = dialect;
      d_summary = summary;
      d_traits = List.fold_left (fun bits t -> bits lor trait_bit t) 0 traits;
      d_verify = verify;
      d_effects = effects;
      d_interfaces = interfaces;
      d_canonicalizers = canonicalizers;
    }
  in
  Util.Stbl.replace ctx.ops name def;
  let d = get_or_create_dialect ctx dialect in
  if not (List.mem name d.dl_op_names) then
    d.dl_op_names <- name :: d.dl_op_names

(** The registration of an op name. Generic code looks it up once per op
    it visits and answers every trait and interface question from it. *)
let lookup ctx name = Util.Stbl.find_opt ctx.ops name

let dialect_ops ctx dialect =
  match Hashtbl.find_opt ctx.dialects dialect with
  | None -> []
  | Some d -> List.sort compare d.dl_op_names

let registered_dialects ctx =
  Hashtbl.fold (fun k _ acc -> k :: acc) ctx.dialects [] |> List.sort compare

(** Does the op registered as [d] carry [trait]? *)
let def_has d trait = d.d_traits land trait_bit trait <> 0

let not_erasable =
  trait_bit Symbol lor trait_bit Symbol_table lor trait_bit Terminator

(** Conservatively: an op is pure (side-effect free and erasable when
    unused) when it carries the [Pure] trait, or has no declared effects,
    no regions, and is neither a symbol, a symbol table nor a terminator. *)
let def_is_pure d (op : Ircore.op) =
  def_has d Pure
  || (match d.d_effects op with [] -> true | _ :: _ -> false)
     && (match op.regions with [] -> true | _ :: _ -> false)
     && d.d_traits land not_erasable = 0

let has_trait ctx op_name trait =
  match lookup ctx op_name with None -> false | Some d -> def_has d trait

let op_has_trait ctx (op : Ircore.op) trait = has_trait ctx op.op_name trait

let is_pure ctx (op : Ircore.op) =
  match lookup ctx op.op_name with None -> false | Some d -> def_is_pure d op

let effects ctx (op : Ircore.op) =
  match lookup ctx op.op_name with None -> [ Read; Write ] | Some d -> d.d_effects op

(** The implementation of interface [key] by the op registered as [d]. *)
let def_interface (type a) d (key : a Util.Univ.key) : a option =
  Util.Univ.find key d.d_interfaces

let interface ctx op_name key =
  match lookup ctx op_name with None -> None | Some d -> def_interface d key

(** Does [op_name] implement an interface registered under [iface_name]?
    Name-based lookup for condition sets ([interface<loop_like>]). *)
let implements ctx op_name iface_name =
  match lookup ctx op_name with
  | None -> false
  | Some d -> List.mem iface_name (Util.Univ.binding_names d.d_interfaces)

(* ------------------------------------------------------------------ *)
(* Common interfaces                                                   *)
(* ------------------------------------------------------------------ *)

(** Loop-like interface: uniform access to loop structure for transforms. *)
type loop_like = {
  ll_lower_bound : Ircore.op -> Ircore.value option;
  ll_upper_bound : Ircore.op -> Ircore.value option;
  ll_step : Ircore.op -> Ircore.value option;
  ll_induction_var : Ircore.op -> Ircore.value option;
  ll_body : Ircore.op -> Ircore.block option;
}

let loop_like_key : loop_like Util.Univ.key = Util.Univ.create_key "loop_like"

(** Branch interface: which operands are forwarded to which successor. *)
type branch_like = {
  br_successor_operands : Ircore.op -> int -> Ircore.value list;
}

let branch_like_key : branch_like Util.Univ.key = Util.Univ.create_key "branch_like"

(** Symbol-user interface: an op that references symbols checks those
    references when its nearest enclosing symbol table is verified.
    [lookup] resolves a name among that table's symbols. *)
type symbol_user = {
  verify_symbol_uses :
    lookup:(string -> Ircore.op option) -> Ircore.op -> (unit, string) result;
}

let symbol_user_key : symbol_user Util.Univ.key =
  Util.Univ.create_key "symbol_user"

(** Constant folding hook: given constant operand attrs, produce result attrs. *)
type folder = { fold : Ircore.op -> Attr.t option list -> Attr.t list option }

let folder_key : folder Util.Univ.key = Util.Univ.create_key "folder"
