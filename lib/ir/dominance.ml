(** Dominance information for multi-block regions (Cooper–Harvey–Kennedy
    iterative algorithm) and SSA dominance queries used by the verifier. *)

open Ircore

type t = {
  order : int Util.Itbl.t;  (** block id -> reverse postorder index *)
  idom : block Util.Itbl.t;  (** block id -> immediate dominator *)
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
    let visited = Util.Itbl.create 8 in
    let out = ref [] in
    let rec dfs b =
      if not (Util.Itbl.mem visited b.b_id) then begin
        Util.Itbl.replace visited b.b_id ();
        List.iter dfs (successors_of_block b);
        out := b :: !out
      end
    in
    dfs entry;
    !out

let compute r =
  let rpo = reverse_postorder r in
  let order = Util.Itbl.create 8 in
  List.iteri (fun i b -> Util.Itbl.replace order b.b_id i) rpo;
  let idom : block Util.Itbl.t = Util.Itbl.create 8 in
  (match rpo with
  | [] -> ()
  | [ entry ] -> Util.Itbl.replace idom entry.b_id entry
  | entry :: rest ->
    Util.Itbl.replace idom entry.b_id entry;
    (* predecessors map *)
    let preds = Util.Itbl.create 8 in
    List.iter
      (fun b ->
        List.iter
          (fun s ->
            let cur = Option.value ~default:[] (Util.Itbl.find_opt preds s.b_id) in
            Util.Itbl.replace preds s.b_id (b :: cur))
          (successors_of_block b))
      rpo;
    let intersect b1 b2 =
      let rec go f1 f2 =
        if f1 == f2 then f1
        else
          let o1 = Util.Itbl.find order f1.b_id in
          let o2 = Util.Itbl.find order f2.b_id in
          if o1 > o2 then go (Util.Itbl.find idom f1.b_id) f2
          else go f1 (Util.Itbl.find idom f2.b_id)
      in
      go b1 b2
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          let ps =
            Option.value ~default:[] (Util.Itbl.find_opt preds b.b_id)
            |> List.filter (fun p -> Util.Itbl.mem idom p.b_id)
          in
          match ps with
          | [] -> ()
          | first :: others ->
            let new_idom = List.fold_left intersect first others in
            (match Util.Itbl.find_opt idom b.b_id with
            | Some cur when cur == new_idom -> ()
            | _ ->
              Util.Itbl.replace idom b.b_id new_idom;
              changed := true))
        rest
    done);
  { order; idom; entry = region_first_block r }

(** Immediate dominator of [b], or [None] for the entry / unreachable
    blocks. *)
let idom_of t b =
  match Util.Itbl.find t.idom b.b_id with
  | d -> if d == b then None else Some d
  | exception Not_found -> None

(** Does block [a] dominate block [b] (within the analyzed region)? *)
let block_dominates t a b =
  let rec go x =
    if x == a then true
    else
      match Util.Itbl.find t.idom x.b_id with
      | d -> if d == x then x == a else go d
      | exception Not_found -> false
  in
  (* unreachable blocks dominate nothing and are dominated by everything
     reachable is irrelevant; be conservative *)
  if not (Util.Itbl.mem t.order b.b_id) then false else go b
