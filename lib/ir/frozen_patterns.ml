(** Frozen, root-indexed pattern sets — MLIR's [FrozenRewritePatternSet].

    The greedy driver matches patterns against every op it visits; with a
    plain list each visit costs O(|patterns|) applicability checks (a string
    compare per op×pattern pair). Freezing partitions the set once at
    construction into a [(root op name -> benefit-sorted pattern list)]
    table plus a benefit-sorted any-root list, so per-op matching only
    touches the candidate patterns for that op's name. Duplicate pattern
    names are dropped (first occurrence wins), mirroring the dedup every
    caller previously did by hand. *)

type t = {
  by_root : Pattern.t list Util.Stbl.t;
      (** benefit-sorted (descending), root-restricted patterns *)
  any_root : Pattern.t list;  (** benefit-sorted patterns with no root filter *)
  size : int;  (** total number of distinct patterns frozen *)
}

let by_benefit = List.stable_sort (fun a b -> compare b.Pattern.benefit a.Pattern.benefit)

(** Freeze [patterns] into an immutable, indexed set. *)
let freeze patterns =
  let seen = Hashtbl.create 16 in
  let patterns =
    List.filter
      (fun p ->
        if Hashtbl.mem seen p.Pattern.name then false
        else begin
          Hashtbl.replace seen p.Pattern.name ();
          true
        end)
      patterns
  in
  let by_root = Util.Stbl.create 16 in
  let any_root = ref [] in
  List.iter
    (fun p ->
      match p.Pattern.root with
      | None -> any_root := p :: !any_root
      | Some r ->
        let existing = Option.value ~default:[] (Util.Stbl.find_opt by_root r) in
        Util.Stbl.replace by_root r (p :: existing))
    patterns;
  Util.Stbl.filter_map_inplace
    (fun _ ps -> Some (by_benefit (List.rev ps)))
    by_root;
  { by_root; any_root = by_benefit (List.rev !any_root); size = List.length patterns }

let empty = freeze []
let is_empty t = t.size = 0

(** All patterns in the set (no meaningful order). *)
let to_list t =
  Util.Stbl.fold (fun _ ps acc -> ps @ acc) t.by_root t.any_root

(** Candidate patterns for [op], most beneficial first: the patterns rooted
    at [op]'s name merged with the any-root patterns. Every returned pattern
    is applicable to [op] by construction — the driver needs no further
    root check. *)
let for_op t (op : Ircore.op) =
  let rooted =
    match Util.Stbl.find t.by_root op.Ircore.op_name with
    | ps -> ps
    | exception Not_found -> []
  in
  match (rooted, t.any_root) with
  | ps, [] -> ps
  | [], ps -> ps
  | _ ->
    (* merge two benefit-sorted lists, rooted patterns first on ties *)
    let rec merge a b =
      match (a, b) with
      | [], rest | rest, [] -> rest
      | x :: xs, y :: ys ->
        if x.Pattern.benefit >= y.Pattern.benefit then x :: merge xs b
        else y :: merge a ys
    in
    merge rooted t.any_root
