(** Dominance information for multi-block regions (Cooper–Harvey–Kennedy
    iterative algorithm) and SSA dominance queries used by the verifier. *)

open Ircore

type t = {
  order : (int, int) Hashtbl.t;  (** block id -> reverse postorder index *)
  idom : (int, block) Hashtbl.t;  (** block id -> immediate dominator *)
  entry : block option;
}

let successors_of_block b =
  match block_last_op b with
  | None -> []
  | Some term -> Array.to_list term.successors

(** Reverse postorder of the CFG rooted at the region's entry block. *)
let reverse_postorder r =
  match region_first_block r with
  | None -> []
  | Some entry ->
    let visited = Hashtbl.create 8 in
    let out = ref [] in
    let rec dfs b =
      if not (Hashtbl.mem visited b.b_id) then begin
        Hashtbl.replace visited b.b_id ();
        List.iter dfs (successors_of_block b);
        out := b :: !out
      end
    in
    dfs entry;
    !out

let compute r =
  let rpo = reverse_postorder r in
  let order = Hashtbl.create 8 in
  List.iteri (fun i b -> Hashtbl.replace order b.b_id i) rpo;
  let idom : (int, block) Hashtbl.t = Hashtbl.create 8 in
  (match rpo with
  | [] -> ()
  | [ entry ] -> Hashtbl.replace idom entry.b_id entry
  | entry :: rest ->
    Hashtbl.replace idom entry.b_id entry;
    (* predecessors map *)
    let preds = Hashtbl.create 8 in
    List.iter
      (fun b ->
        List.iter
          (fun s ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt preds s.b_id) in
            Hashtbl.replace preds s.b_id (b :: cur))
          (successors_of_block b))
      rpo;
    let intersect b1 b2 =
      let rec go f1 f2 =
        if f1 == f2 then f1
        else
          let o1 = Hashtbl.find order f1.b_id in
          let o2 = Hashtbl.find order f2.b_id in
          if o1 > o2 then go (Hashtbl.find idom f1.b_id) f2
          else go f1 (Hashtbl.find idom f2.b_id)
      in
      go b1 b2
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          let ps =
            Option.value ~default:[] (Hashtbl.find_opt preds b.b_id)
            |> List.filter (fun p -> Hashtbl.mem idom p.b_id)
          in
          match ps with
          | [] -> ()
          | first :: others ->
            let new_idom = List.fold_left intersect first others in
            (match Hashtbl.find_opt idom b.b_id with
            | Some cur when cur == new_idom -> ()
            | _ ->
              Hashtbl.replace idom b.b_id new_idom;
              changed := true))
        rest
    done);
  { order; idom; entry = region_first_block r }

(** Immediate dominator of [b], or [None] for the entry / unreachable
    blocks. *)
let idom_of t b =
  match Hashtbl.find_opt t.idom b.b_id with
  | Some d when not (d == b) -> Some d
  | _ -> None

(** Does block [a] dominate block [b] (within the analyzed region)? *)
let block_dominates t a b =
  let rec go x =
    if x == a then true
    else
      match Hashtbl.find_opt t.idom x.b_id with
      | None -> false
      | Some d -> if d == x then x == a else go d
  in
  (* unreachable blocks dominate nothing and are dominated by everything
     reachable is irrelevant; be conservative *)
  if not (Hashtbl.mem t.order b.b_id) then false else go b

(** Does the definition at [def_op] of [def_block] (a block argument when
    [def_op] is [None]) properly dominate [user], an op of [user_block]?
    Both blocks belong to the region [doms] describes; it is forced only
    when they differ. *)
let dominates doms ~def_block ~def_op ~user_block user =
  if user_block == def_block then
    match def_op with
    | None -> true (* a block argument dominates everything in its block *)
    | Some d -> (not (d == user)) && is_before_in_block d user
  else block_dominates (Lazy.force doms) def_block user_block
