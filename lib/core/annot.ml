(** Payload-property annotations for transform handles.

    A handle annotation is a set of declared properties of the payload ops
    a handle points to — "tiled", "tiled_by 32", "vectorized",
    "pass.canonicalize" — established by [ensures] clauses of registered
    transforms and demanded by their [requires] clauses. The same
    declarations drive two checkers:

    - dynamically, {!Dispatch} checks [requires] against the accumulated
      property set of each consumed operand before dispatch and records
      [ensures] after a successful application;
    - statically, {!Flowcheck} propagates abstract property sets along the
      handle SSA values of a script, without touching any payload.

    The static abstraction is a dual must/may interval per SSA value:
    [must] is the set of properties guaranteed present on every dynamic
    path reaching the program point, [may] is the set possibly present on
    some path. Positive atoms are checked against [must]; negated atoms
    need absence from [may]. The join used at [alternatives] merges and
    [foreach] fixpoints is (must-intersection, may-union), which keeps
    both directions sound. *)

type prop = {
  p_name : string;
  p_arg : int option;  (** e.g. the tile size in "tiled_by 32" *)
}

let flag name = { p_name = name; p_arg = None }
let keyed name arg = { p_name = name; p_arg = Some arg }

let pp_prop fmt p =
  match p.p_arg with
  | None -> Fmt.string fmt p.p_name
  | Some n -> Fmt.pf fmt "%s<%d>" p.p_name n

module Props = Set.Make (struct
  type t = prop

  let compare = compare
end)

let pp_props fmt ps =
  if Props.is_empty ps then Fmt.string fmt "{}"
  else
    Fmt.pf fmt "{%a}" Fmt.(list ~sep:comma pp_prop) (Props.elements ps)

(* ---------------- requirement atoms ---------------- *)

(** Atoms of a [requires] clause. [Has name] ignores the argument ("some
    tiling happened"); the keyed forms constrain it. *)
type atom =
  | Has of string
  | Has_exactly of string * int
  | Has_at_least of string * int

let pp_atom fmt = function
  | Has n -> Fmt.string fmt n
  | Has_exactly (n, k) -> Fmt.pf fmt "%s<%d>" n k
  | Has_at_least (n, k) -> Fmt.pf fmt "%s<>=%d>" n k

type req = atom Irdl.constr

let pp_req = Irdl.pp_constr pp_atom

let atom_holds props = function
  | Has n -> Props.exists (fun p -> p.p_name = n) props
  | Has_exactly (n, k) ->
    Props.exists (fun p -> p.p_name = n && p.p_arg = Some k) props
  | Has_at_least (n, k) ->
    Props.exists
      (fun p ->
        p.p_name = n && match p.p_arg with Some a -> a >= k | None -> false)
      props

(** Exact (dynamic) satisfaction: one concrete property set, so an atom is
    refuted iff it does not hold. *)
let satisfies_exact props req =
  Irdl.constr_holds
    ~atom:(atom_holds props)
    ~atom_refuted:(fun a -> not (atom_holds props a))
    req

(* ---------------- static abstraction ---------------- *)

type info = { must : Props.t; may : Props.t }

let empty_info = { must = Props.empty; may = Props.empty }

(** Abstraction of an exactly-known property set. *)
let exact props = { must = props; may = props }

let join a b =
  { must = Props.inter a.must b.must; may = Props.union a.may b.may }

let info_equal a b = Props.equal a.must b.must && Props.equal a.may b.may

let pp_info fmt i =
  if Props.equal i.must i.may then pp_props fmt i.must
  else Fmt.pf fmt "must=%a may=%a" pp_props i.must pp_props i.may

(** Stable text form, used to key include summaries by argument state. *)
let info_signature i =
  let part ps =
    String.concat ","
      (List.map (fun p -> Fmt.str "%a" pp_prop p) (Props.elements ps))
  in
  Fmt.str "[%s|%s]" (part i.must) (part i.may)

(** Three-valued satisfaction over an abstract interval: positive atoms
    must be guaranteed ([must]); a negated atom needs the property to be
    absent from every path ([may]). *)
let satisfies info req =
  Irdl.constr_holds
    ~atom:(atom_holds info.must)
    ~atom_refuted:(fun a -> not (atom_holds info.may a))
    req

(* ---------------- ensures targets ---------------- *)

(** Where an [ensures] clause lands. Results are fresh SSA values, so
    their property set is replaced; operand targets refine an existing
    handle in place (set union) — e.g. [transform.annotate] adds an
    [annot.<name>] property to its operand without producing a result. *)
type ensure_target = On_result of int | On_operand of int

(* ---------------- diagnostics ---------------- *)

(** Message prefix shared by the dynamic requires-checker and the static
    flow-checker, so the differential fuzz oracle can recognize
    annotation-requirement failures among other definite errors. *)
let requirement_tag = "annotation requirement"

let is_requirement_diag d =
  let msg = Ir.Diag.message d in
  let tag_len = String.length requirement_tag in
  String.length msg >= tag_len && String.sub msg 0 tag_len = requirement_tag
