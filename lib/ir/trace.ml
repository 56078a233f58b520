(** Execution trace events: transform-op dispatches, suppressed silenceable
    errors and greedy-driver runs, rendered as text or JSON.

    Events are notes in the ambient {!Action} context ({!Action.trace}), so
    deeply nested components (a greedy rewrite inside a canonicalize pass
    inside a transform script) report without a sink being threaded through
    every signature, and parallel runs replay them in source order with the
    rest of the action stream. *)

type event =
  | Transform of {
      tr_op : string;  (** transform op name, e.g. [transform.loop_tile] *)
      tr_loc : Loc.t;
      tr_in : int list;  (** payload sizes of operand handles *)
      tr_out : int list;  (** payload sizes of result handles *)
    }
  | Suppressed of {
      su_construct : string;  (** e.g. [transform.alternatives] *)
      su_diag : Diag.t;  (** the silenceable error that was suppressed *)
    }
  | Greedy of {
      gr_root : string;  (** op the driver ran on *)
      gr_rewrites : int;
      gr_folds : int;
      gr_dce : int;
      gr_iterations : int;
      gr_converged : bool;
      gr_match_attempts : int;  (** pattern/fold candidates tried *)
      gr_pushes : int;  (** worklist pushes (incl. the initial seeding) *)
    }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* no break hints: an event must stay on one line even inside a vbox *)
let pp_sizes fmt sizes =
  Fmt.pf fmt "[%a]" (Fmt.list ~sep:(Fmt.any ",") Fmt.int) sizes

let pp_event fmt = function
  | Transform { tr_op; tr_loc; tr_in; tr_out } ->
    Fmt.pf fmt "transform %s in=%a out=%a" tr_op pp_sizes tr_in pp_sizes
      tr_out;
    (match tr_loc with
    | Loc.Unknown -> ()
    | l -> Fmt.pf fmt " at %a" Loc.pp l)
  | Suppressed { su_construct; su_diag } ->
    Fmt.pf fmt "suppressed by %s: %s" su_construct (Diag.message su_diag)
  | Greedy { gr_root; gr_rewrites; gr_folds; gr_dce; gr_iterations;
             gr_converged; gr_match_attempts; gr_pushes } ->
    Fmt.pf fmt
      "greedy on %s: %d rewrites, %d folds, %d dce, %d iterations, %d \
       attempts, %d pushes%s"
      gr_root gr_rewrites gr_folds gr_dce gr_iterations gr_match_attempts
      gr_pushes
      (if gr_converged then "" else " (no fixpoint)")

let pp fmt events =
  Fmt.pf fmt "@[<v>%a@]"
    (fun fmt -> List.iter (fun e -> Fmt.pf fmt "// trace: %a@," pp_event e))
    events

let event_to_json = function
  | Transform { tr_op; tr_loc; tr_in; tr_out } ->
    Json.Obj
      ([ ("kind", Json.String "transform"); ("op", Json.String tr_op) ]
      @ (match tr_loc with
        | Loc.Unknown -> []
        | l -> [ ("loc", Json.String (Loc.to_string l)) ])
      @ [
          ("in_sizes", Json.List (List.map (fun n -> Json.Int n) tr_in));
          ("out_sizes", Json.List (List.map (fun n -> Json.Int n) tr_out));
        ])
  | Suppressed { su_construct; su_diag } ->
    Json.Obj
      [
        ("kind", Json.String "suppressed");
        ("construct", Json.String su_construct);
        ("diagnostic", Diag.to_json su_diag);
      ]
  | Greedy { gr_root; gr_rewrites; gr_folds; gr_dce; gr_iterations;
             gr_converged; gr_match_attempts; gr_pushes } ->
    Json.Obj
      [
        ("kind", Json.String "greedy");
        ("root", Json.String gr_root);
        ("rewrites", Json.Int gr_rewrites);
        ("folds", Json.Int gr_folds);
        ("dce", Json.Int gr_dce);
        ("iterations", Json.Int gr_iterations);
        ("converged", Json.Bool gr_converged);
        ("match_attempts", Json.Int gr_match_attempts);
        ("pushes", Json.Int gr_pushes);
      ]

let to_json events = Json.List (List.map event_to_json events)
