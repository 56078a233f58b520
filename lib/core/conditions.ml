(** Static pre-/post-condition checking of transform pipelines (Section 3.3
    and Case Study 2, Table 2).

    The checker abstractly interprets a pipeline over the domain of op-kind
    sets ({!Ir.Opset}): starting from the set of op kinds possibly present
    in the input, each step removes the kinds its pre-condition consumes and
    adds the kinds its post-condition introduces. Errors:

    - {e leftover}: after the pipeline, kinds remain that the final
      condition does not allow (the paper's [affine.apply] example);
    - {e vacuous}: a step whose (non-empty) pre-condition cannot match
      anything still present — a phase-ordering violation (e.g. a loop
      transform on [scf] scheduled after [convert-scf-to-cf]).

    Transform scripts are checked by {!Flowcheck}, which threads the same
    {!transfer} and {!vacuous} through the script's control flow. *)

open Ir

type step = {
  s_name : string;
  s_pre : Opset.t;
  s_post : Opset.t;
}

type problem =
  | Vacuous of { step : string; pre : Opset.t; present : Opset.t }
  | Leftover of { remaining : Opset.t; allowed : Opset.t }

let pp_problem fmt = function
  | Vacuous { step; pre; present } ->
    Fmt.pf fmt
      "phase-ordering violation: step '%s' requires %a but only %a can be \
       present at that point"
      step Opset.pp pre Opset.pp present
  | Leftover { remaining; allowed } ->
    Fmt.pf fmt
      "incomplete lowering: %a may remain after the pipeline but the final \
       condition only allows %a"
      Opset.pp remaining Opset.pp allowed

type trace_entry = { t_step : string; t_before : Opset.t; t_after : Opset.t }

type report = {
  problems : problem list;
  trace : trace_entry list;
  final : Opset.t;
}

let step_of_pass (p : Passes.Pass.t) =
  { s_name = p.Passes.Pass.name; s_pre = p.pre; s_post = p.post }

(** One abstract step over the op-kind set: remove what the pre-condition
    consumes, add what the post-condition introduces. Shared with the
    per-handle present-set layer of {!Flowcheck}. *)
let transfer ~pre ~post before = Opset.union (Opset.remove ~removed:pre before) post

(** Is a step with [pre] vacuous (phase-ordering violation) against the
    kinds currently [present]? Empty pre-conditions are never vacuous. *)
let vacuous ~pre present = pre <> [] && not (Opset.overlaps pre present)

(** Abstractly run [steps] from the [initial] op-kind set; [final] is the
    allowed result set. *)
let check ~initial ~final steps : report =
  let problems = ref [] in
  let trace = ref [] in
  let current = ref initial in
  List.iter
    (fun s ->
      let before = !current in
      if vacuous ~pre:s.s_pre before then
        problems := Vacuous { step = s.s_name; pre = s.s_pre; present = before } :: !problems;
      let after = transfer ~pre:s.s_pre ~post:s.s_post before in
      trace := { t_step = s.s_name; t_before = before; t_after = after } :: !trace;
      current := after)
    steps;
  let remaining = Opset.leftover ~allowed:final !current in
  if remaining <> [] then
    problems := Leftover { remaining; allowed = final } :: !problems;
  { problems = List.rev !problems; trace = List.rev !trace; final = !current }

let check_passes ~initial ~final passes =
  check ~initial ~final (List.map step_of_pass passes)

let ok report = report.problems = []

let pp_report fmt r =
  List.iter
    (fun t ->
      Fmt.pf fmt "  %-28s %a -> %a@." t.t_step Opset.pp t.t_before Opset.pp
        t.t_after)
    r.trace;
  if r.problems = [] then Fmt.pf fmt "  OK: pipeline satisfies its conditions@."
  else
    List.iter (fun p -> Fmt.pf fmt "  ERROR: %a@." pp_problem p) r.problems
