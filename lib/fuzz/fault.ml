(** Fault-injection harness: prove the interpreter's recovery paths under
    induced failure.

    A seeded {!injector} installs a {!Transform.Treg} application
    interceptor that lets each registered transform run normally and then,
    with configurable probability, sabotages the payload (a visible
    attribute stamp that a correct rollback must erase) and either fails
    silenceably or raises an OCaml exception — i.e. precisely the
    "partially-applied rewrite" and "mid-transform crash" failure modes the
    transactional layer exists to contain.

    The campaign ({!run_campaign}) then asserts the recovery invariants on
    every generated module:

    - a silenceable fault inside [transform.alternatives] or a
      [failures(suppress)] sequence is rolled back: the payload prints
      byte-identical to its pre-run snapshot and carries no sabotage stamp;
    - a raised exception never escapes the interpreter: it surfaces as a
      definite error (via the exception barrier), and the payload still
      verifies;
    - the handle table stays usable after rollback (the scripts' second
      alternative consumes the root handle after the first was rolled
      back).

    Any violation is reported with a replayable reproducer file. *)

open Ir

exception Injected_fault of string

type mode = Fail_silenceable | Raise_exception

let mode_to_string = function
  | Fail_silenceable -> "silenceable"
  | Raise_exception -> "raise"

type injector = {
  fi_rng : Random.State.t;
  fi_prob : float;  (** per-application injection probability *)
  fi_mode : mode;
  mutable fi_injected : int;  (** faults injected so far *)
}

let create_injector ?(mode = Fail_silenceable) ~prob rng =
  { fi_rng = rng; fi_prob = prob; fi_mode = mode; fi_injected = 0 }

(* global statistics (Ir.Stats) *)
let stat_injected = Stats.counter ~component:"fault" "injected"

let stat_violations =
  Stats.counter ~component:"fault" "violations"
    ~desc:"recovery-invariant violations found by the campaign"

let sabotage_attr = "fuzz.injected_fault"

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i =
    i + n <= l && (String.equal (String.sub hay i n) needle || go (i + 1))
  in
  n = 0 || go 0

(** Visibly mutate the payload: stamp an attribute on the first op nested
    under the root (or the root itself). A correct rollback restores the
    pre-fault print, erasing the stamp. *)
let sabotage root =
  let first = ref None in
  Ircore.walk
    (fun o ->
      match !first with
      | None -> if not (o == root) then first := Some o
      | Some _ -> ())
    root;
  let target = match !first with Some o -> o | None -> root in
  Ircore.set_attr target sabotage_attr Attr.Unit

let payload_sabotaged root =
  let found = ref false in
  Ircore.walk
    (fun o ->
      if Option.is_some (Ircore.attr o sabotage_attr) then found := true)
    root;
  !found

(** The interceptor body: run the real transform, then maybe inject. The
    fault fires strictly *after* a successful application, so the payload
    has already been mutated by the transform itself (and is mutated again
    by the sabotage stamp) when the failure surfaces — the worst case for
    rollback. *)
let intercept inj (def : Transform.Treg.def) st op =
  match def.Transform.Treg.t_apply st op with
  | Error _ as e -> e
  | Ok () ->
    if Random.State.float inj.fi_rng 1.0 < inj.fi_prob then begin
      inj.fi_injected <- inj.fi_injected + 1;
      Stats.incr stat_injected;
      sabotage st.Transform.State.payload_root;
      match inj.fi_mode with
      | Fail_silenceable ->
        Transform.Terror.silenceable ~loc:op.Ircore.op_loc
          "injected fault: %s failed after mutating the payload"
          def.Transform.Treg.t_name
      | Raise_exception ->
        raise
          (Injected_fault
             (Fmt.str "injected crash after %s mutated the payload"
                def.Transform.Treg.t_name))
    end
    else Ok ()

(** Run [f] with the injector installed as the registry interceptor. *)
let with_injector inj f = Transform.Treg.with_interceptor (intercept inj) f

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

type scenario = Alternatives | Suppress

let scenario_to_string = function
  | Alternatives -> "alternatives"
  | Suppress -> "failures(suppress)"

(** Payload-mutating passes the faulted region applies. *)
let campaign_passes = [| "canonicalize"; "cse"; "licm" |]

(** The transform script under test. Region 1 mutates the payload via a
    registered pass (the injector then fails it with probability P per
    application); the recovery construct must roll it back. The
    [alternatives] script's region 2 re-reads the root handle, exercising
    the handle table after rollback. *)
let build_script ~scenario ~pass_name =
  match scenario with
  | Alternatives ->
    Transform.Build.script (fun rw root ->
        Transform.Build.alternatives rw
          [
            (fun brw ->
              ignore
                (Transform.Build.apply_registered_pass brw ~pass_name root));
            (fun brw ->
              ignore (Transform.Build.match_op brw ~name:"func.func" root));
          ])
  | Suppress ->
    Transform.Build.script (fun rw _root ->
        ignore
          (Transform.Build.nested_sequence rw
             ~failure_propagation:"suppress" (fun brw seq_root ->
               ignore
                 (Transform.Build.apply_registered_pass brw ~pass_name
                    seq_root))))

type violation = {
  v_seed : int;
  v_case : int;
  v_scenario : string;
  v_mode : string;
  v_pass : string;
  v_detail : string;
  v_module : string;  (** pre-run payload print *)
  v_path : string option;  (** reproducer file, when written *)
}

type stats = {
  fs_cases : int;
  fs_injected : int;  (** total faults injected *)
  fs_faulted_cases : int;  (** cases with at least one injected fault *)
  fs_raised : int;  (** cases using the raising mode with a fault *)
  fs_rollbacks_verified : int;
      (** cases where the byte-identical-restore invariant was checked *)
  fs_violations : violation list;
  fs_seconds : float;
}

let write_reproducer ~dir ~seed ~case (v : violation) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir (Fmt.str "fault-seed%d-case%d.mlir" seed case)
  in
  Passes.Reproducer.write ~path
    (Passes.Reproducer.text ~title:"otd-fuzz fault-injection reproducer"
       [
         Fmt.str "scenario: %s  mode: %s" v.v_scenario v.v_mode;
         Fmt.str "seed: %d case: %d" seed case;
         "detail: " ^ v.v_detail;
         Passes.Reproducer.pipeline_note v.v_pass;
       ]
       v.v_module);
  path

(** Run [cases] fault-injection cases from [seed] at probability [prob].
    Returns the campaign stats; violations (if any) are also emitted as
    diagnostics on [ctx]'s engine and written under [out_dir]. *)
let run_campaign ?config ?(prob = 0.2) ?out_dir
    ?(on_case = fun _ ~failed:_ -> ()) ctx ~seed ~cases () =
  let t0 = Unix.gettimeofday () in
  let injected = ref 0 in
  let faulted_cases = ref 0 in
  let raised = ref 0 in
  let rollbacks_verified = ref 0 in
  let violations = ref [] in
  for case = 0 to cases - 1 do
    let rng = Driver.case_rng ~seed ~case in
    let m = Gen.generate ?config rng in
    let scenario =
      if Random.State.bool rng then Alternatives else Suppress
    in
    let mode =
      if Random.State.float rng 1.0 < 0.25 then Raise_exception
      else Fail_silenceable
    in
    let pass_name =
      campaign_passes.(Random.State.int rng (Array.length campaign_passes))
    in
    let script = build_script ~scenario ~pass_name in
    let pre = Printer.op_to_string m in
    let inj = create_injector ~mode ~prob rng in
    let outcome =
      (* swallow the run's own diagnostics (downgraded suppress warnings,
         contained-exception reports): the campaign only reports invariant
         violations *)
      Context.with_diag_handler ctx ignore (fun () ->
          with_injector inj (fun () ->
              match Transform.Schedule.run ctx ~script ~payload:m with
              | Ok _ -> `Ok
              | Error (Transform.Terror.Silenceable d) -> `Silenceable d
              | Error (Transform.Terror.Definite d) -> `Definite d
              | exception e -> `Escaped e))
    in
    injected := !injected + inj.fi_injected;
    if inj.fi_injected > 0 then begin
      incr faulted_cases;
      if mode = Raise_exception then incr raised
    end;
    let post = Printer.op_to_string m in
    let fault_free = not (payload_sabotaged m) in
    let verifier_clean =
      match Verifier.verify ctx m with Ok () -> true | Error _ -> false
    in
    let violation fmt =
      Fmt.kstr
        (fun detail ->
          Stats.incr stat_violations;
          let v =
            {
              v_seed = seed;
              v_case = case;
              v_scenario = scenario_to_string scenario;
              v_mode = mode_to_string mode;
              v_pass = pass_name;
              v_detail = detail;
              v_module = pre;
              v_path = None;
            }
          in
          let v =
            match out_dir with
            | Some dir ->
              { v with v_path = Some (write_reproducer ~dir ~seed ~case v) }
            | None -> v
          in
          Diag.emit (Context.diag_engine ctx)
            (Diag.error
               ~notes:
                 ([
                    Diag.note "seed %d, case %d (%s, %s, pass %s)" seed case
                      v.v_scenario v.v_mode pass_name;
                  ]
                 @
                 match v.v_path with
                 | Some p -> [ Diag.note "reproducer written to %s" p ]
                 | None -> [])
               "fault-injection invariant violated: %s" detail);
          violations := v :: !violations)
        fmt
    in
    (* ---- recovery invariants ---- *)
    (match outcome with
    | `Escaped e ->
      violation "exception escaped the interpreter: %s" (Printexc.to_string e)
    | (`Ok | `Silenceable _ | `Definite _) when not verifier_clean ->
      violation "payload fails verification after contained failure"
    | (`Ok | `Silenceable _) when inj.fi_injected > 0 ->
      (* every faulted region was rolled back (alternatives: region 1
         and/or 2; suppress: the nested sequence), and the surviving
         alternative only reads — the payload must be untouched *)
      if mode = Fail_silenceable then begin
        incr rollbacks_verified;
        if not (String.equal pre post) then
          violation
            "payload not restored byte-identically after rollback \
             (pre/post prints differ)"
        else if not fault_free then
          violation "sabotage stamp survived the rollback"
      end
    | `Ok | `Silenceable _ ->
      (* no fault injected: the run must not have produced a stamp *)
      if not fault_free then
        violation "sabotage stamp present without an injected fault"
    | `Definite d ->
      if mode = Raise_exception && inj.fi_injected > 0 then begin
        (* the barrier must have converted our raise into this error *)
        if
          not
            (contains (Diag.message d) "raised an exception"
            || contains (Diag.message d) "Injected_fault")
        then
          violation
            "definite error does not stem from the exception barrier: %s"
            (Diag.message d)
      end
      else
        violation "unexpected definite error: %s" (Diag.message d));
    on_case case ~failed:(inj.fi_injected > 0)
  done;
  {
    fs_cases = cases;
    fs_injected = !injected;
    fs_faulted_cases = !faulted_cases;
    fs_raised = !raised;
    fs_rollbacks_verified = !rollbacks_verified;
    fs_violations = List.rev !violations;
    fs_seconds = Unix.gettimeofday () -. t0;
  }
