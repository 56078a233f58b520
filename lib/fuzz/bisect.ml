(** Action-counter bisection of differential failures.

    A differential fuzz failure says "this pipeline miscompiles this
    module" — useful, but the pipeline ran hundreds of transformation
    units. Debug counters ({!Ir.Action.counters_handler}) make the unit
    stream addressable: [TAG:0,k] executes only the first [k] actions of a
    tag and vetoes the rest, so whether the failure still reproduces is a
    monotone-ish predicate over [k] that binary search can exploit, exactly
    like [llvm]'s [-debug-counter] bisection idiom.

    For each tag, finest first, we ask: does the failure survive with the
    tag fully disabled? If yes the tag is not culpable (the bug lives
    elsewhere) and we move on. If no, some prefix of its occurrences is
    needed, and the smallest failing prefix [k] names the culprit: the
    action at per-tag index [k - 1]. Because vetoing an early action can
    change which later actions even occur, the index is the canonical
    "first occurrence whose inclusion flips the outcome" — the standard
    debug-counter reading, and a stable replay target since the veto
    schedule forces sequential execution. *)

open Ir

type culprit = {
  c_tag : string;  (** action tag the failure bisects to *)
  c_index : int;  (** per-tag index of the culprit occurrence *)
  c_total : int;  (** occurrences of that tag in the unrestricted run *)
}

let pp_culprit fmt c =
  Fmt.pf fmt "%s index %d of %d" c.c_tag c.c_index c.c_total

(** Tags worth bisecting over, finest first: a pattern application or a
    conversion names a single rewrite, a pass only a whole phase. *)
let default_tags = [ "pattern"; "fold"; "conversion"; "transform"; "pass" ]

(** [localize ~fails ~total] drives the bisection. [fails counters] must
    re-run the failing check under an action context with [counters]
    installed and report whether the failure still reproduces; [total tag]
    counts the tag's occurrences in an unrestricted run. Returns the first
    culpable tag's culprit, or [None] when the failure survives with every
    tag disabled (it is not caused by any counted transformation unit). *)
let localize ?(tags = default_tags) ~fails ~total () =
  let disabled tag = { Action.cs_tag = tag; cs_skip = 0; cs_count = 0 } in
  let prefix tag k = { Action.cs_tag = tag; cs_skip = 0; cs_count = k } in
  let rec try_tags = function
    | [] -> None
    | tag :: rest ->
      let n = total tag in
      if n = 0 || fails [ disabled tag ] then try_tags rest
      else begin
        (* invariant: prefix n fails (it is the unrestricted run), prefix 0
           does not (just checked); find the smallest failing prefix *)
        let lo = ref 1 and hi = ref n in
        while !lo < !hi do
          let mid = !lo + ((!hi - !lo) / 2) in
          if fails [ prefix tag mid ] then hi := mid else lo := mid + 1
        done;
        Some { c_tag = tag; c_index = !lo - 1; c_total = n }
      end
  in
  try_tags tags

(** Bisect a concrete oracle failure: [recheck] is
    {!Oracle.recheck}-shaped — it must rebuild the failing configuration
    from scratch (fresh clone of the minimized module) on every call, since
    each probe reruns the whole pipeline. *)
let of_failure ?tags ~(recheck : unit -> bool) () =
  let fails counters =
    Action.with_context (Action.create ~counters ()) recheck
  in
  let total tag =
    let t = Action.create () in
    ignore (Action.with_context t recheck : bool);
    Action.tag_total t tag
  in
  localize ?tags ~fails ~total ()
