(** Fuzzing campaign driver: generate → check oracles → shrink → report.

    Each case derives its own [Random.State] from (seed, case index), so
    campaigns are reproducible case-by-case: a failure at case 3127 of seed
    9 can be re-run alone. Failures are minimized and emitted both as
    structured {!Ir.Diag} diagnostics (through the context's engine, so
    [--diagnostics=json] consumers see them) and as crash-reproducer
    [.mlir] files in the same header format the pass manager's reproducer
    uses — a differential reproducer replays under
    [otd_opt --pass-pipeline=...]. *)

open Ir

type failure_report = {
  r_seed : int;
  r_case : int;
  r_failure : Oracle.failure;
  r_minimized : string;  (** printed minimized module *)
  r_path : string option;  (** reproducer file, when written *)
  r_culprit : Bisect.culprit option;
      (** action-counter bisection result, for differential failures *)
}

type stats = {
  s_cases : int;
  s_failures : failure_report list;  (** in case order *)
  s_seconds : float;
}

let case_rng ~seed ~case = Random.State.make [| 0x07d; seed; case |]

(** Generate the module for one (seed, case) pair — the exact module the
    campaign would test. *)
let module_for ?config ~seed ~case () =
  Gen.generate ?config (case_rng ~seed ~case)

let reproducer_text ?culprit ~seed ~case (f : Oracle.failure) minimized =
  let pipeline_note =
    match f.Oracle.f_pipeline with
    | Some p -> [ Passes.Reproducer.pipeline_note p ]
    | None -> []
  in
  let bisect_note =
    match culprit with
    | Some c ->
      (* replay just up to the culprit with
         --debug-counter TAG:0,INDEX+1 under otd-opt *)
      [ Fmt.str "action-bisect: %a" Bisect.pp_culprit c ]
    | None -> []
  in
  Passes.Reproducer.text ~title:"otd-fuzz crash reproducer"
    ([
       "oracle: " ^ f.Oracle.f_oracle;
       Fmt.str "seed: %d case: %d" seed case;
       "detail: " ^ f.Oracle.f_detail;
     ]
    @ pipeline_note @ bisect_note)
    minimized

let write_reproducer ?culprit ~dir ~seed ~case f minimized =
  let path =
    Filename.concat dir
      (Fmt.str "fuzz-seed%d-case%d-%s.mlir" seed case f.Oracle.f_oracle)
  in
  Passes.Reproducer.write ~path
    (reproducer_text ?culprit ~seed ~case f minimized);
  path

(** Run [cases] cases from [seed]. [on_case] is a progress hook (case
    index, failed?). Failures are emitted as diagnostics on [ctx]'s engine
    and, when [out_dir] is given, written as reproducer files.

    With [Ir.Pool.jobs () > 1] the cases — each deterministic in (seed,
    case) alone — fan across the domain pool; only the oracle runs on
    workers, while shrinking, reproducer writing, diagnostics and the
    [on_case] hook all replay on the calling domain in case order, so
    campaign output is byte-identical run-to-run at any job count. The
    sequential mode stops generating after [max_failures] failed cases;
    the parallel mode runs every case but reports the same first
    [max_failures] failures in case order. *)
let run ?config ?(pipelines = Oracle.default_pipelines) ?(shrink = true)
    ?(bisect = true) ?out_dir ?(max_failures = 10)
    ?(on_case = fun _ ~failed:_ -> ()) ctx ~seed ~cases () =
  let t0 = Unix.gettimeofday () in
  let failures = ref [] in
  let report i m f =
    let minimized_module =
      if shrink then
        Shrink.shrink m ~still_fails:(fun c ->
            Option.is_some (Oracle.recheck ctx ~pipelines ~witness:f c))
      else m
    in
    let minimized = Printer.op_to_string minimized_module in
    (* differential failures bisect to the culprit transformation unit:
       each probe replays the oracle on a fresh clone under debug
       counters, so the reproducer can name the exact action *)
    let culprit =
      if bisect && f.Oracle.f_pipeline <> None then
        Bisect.of_failure
          ~recheck:(fun () ->
            Option.is_some
              (Oracle.recheck ctx ~pipelines ~witness:f
                 (Ircore.clone_op minimized_module)))
          ()
      else None
    in
    let path =
      Option.map
        (fun dir -> write_reproducer ?culprit ~dir ~seed ~case:i f minimized)
        out_dir
    in
    Diag.emit (Context.diag_engine ctx)
      (Diag.error
         ~notes:
           ([ Diag.note "seed %d, case %d" seed i ]
           @ (match f.Oracle.f_pipeline with
             | Some p -> [ Diag.note "pipeline: %s" p ]
             | None -> [])
           @ (match culprit with
             | Some c ->
               [ Diag.note "bisected to action %a" Bisect.pp_culprit c ]
             | None -> [])
           @
           match path with
           | Some p -> [ Diag.note "reproducer written to %s" p ]
           | None -> [])
         "fuzz oracle '%s' failed: %s" f.Oracle.f_oracle f.Oracle.f_detail);
    failures :=
      { r_seed = seed; r_case = i; r_failure = f; r_minimized = minimized;
        r_path = path; r_culprit = culprit }
      :: !failures
  in
  let ran =
    if Pool.jobs () <= 1 || cases <= 1 then begin
      let case = ref 0 in
      while !case < cases && List.length !failures < max_failures do
        let i = !case in
        let m = module_for ?config ~seed ~case:i () in
        (match Oracle.run_all ctx ~pipelines m with
        | Ok () -> on_case i ~failed:false
        | Error f ->
          report i m f;
          on_case i ~failed:true);
        incr case
      done;
      !case
    end
    else begin
      let outcomes = Array.make cases None in
      Pool.run cases (fun i ->
          let m = module_for ?config ~seed ~case:i () in
          outcomes.(i) <- Some (m, Oracle.run_all ctx ~pipelines m));
      Array.iteri
        (fun i o ->
          match o with
          | None -> ()
          | Some (_, Ok ()) -> on_case i ~failed:false
          | Some (m, Error f) ->
            if List.length !failures < max_failures then begin
              report i m f;
              on_case i ~failed:true
            end)
        outcomes;
      cases
    end
  in
  {
    s_cases = ran;
    s_failures = List.rev !failures;
    s_seconds = Unix.gettimeofday () -. t0;
  }

(* flow-diff campaign tallies, visible under --stats and to tests *)
let stat_flow_accepted =
  Ir.Stats.counter ~component:"fuzz" "flow_accepted"
    ~desc:"flow-diff cases the static checker accepted"

let stat_flow_rejected =
  Ir.Stats.counter ~component:"fuzz" "flow_rejected"
    ~desc:"flow-diff cases the static checker rejected"

(** Flow-differential campaign: each case derives a payload module
    ({!Gen.generate}) and a random transform script
    ({!Script_gen.generate}) from the same per-case RNG, then checks the
    static-accept contract ({!Oracle.flow_diff}). Divergences are emitted
    as diagnostics and, when [out_dir] is given, written as reproducer
    files whose body is the {e script} (replayable under
    [otd_opt --transform ... --flow-check]). No shrinking: the script is
    the witness and is already small. *)
let run_flow_diff ?config ?out_dir ?(on_case = fun _ ~failed:_ -> ()) ctx
    ~seed ~cases () =
  let t0 = Unix.gettimeofday () in
  let failures = ref [] in
  let case = ref 0 in
  while !case < cases && List.length !failures < 10 do
    let i = !case in
    let rng = case_rng ~seed ~case:i in
    let m = Gen.generate ?config rng in
    let script = Script_gen.generate rng in
    (match Oracle.flow_diff ctx ~script m with
    | Ok Oracle.Flow_rejected ->
      Stats.incr stat_flow_rejected;
      on_case i ~failed:false
    | Ok Oracle.Flow_agreed ->
      Stats.incr stat_flow_accepted;
      on_case i ~failed:false
    | Error f ->
      let path =
        Option.map
          (fun dir -> write_reproducer ~dir ~seed ~case:i f f.Oracle.f_module)
          out_dir
      in
      Diag.emit (Context.diag_engine ctx)
        (Diag.error
           ~notes:
             ([ Diag.note "seed %d, case %d" seed i ]
             @
             match path with
             | Some p -> [ Diag.note "reproducer written to %s" p ]
             | None -> [])
           "fuzz oracle '%s' failed: %s" f.Oracle.f_oracle f.Oracle.f_detail);
      failures :=
        { r_seed = seed; r_case = i; r_failure = f;
          r_minimized = f.Oracle.f_module; r_path = path; r_culprit = None }
        :: !failures;
      on_case i ~failed:true);
    incr case
  done;
  {
    s_cases = !case;
    s_failures = List.rev !failures;
    s_seconds = Unix.gettimeofday () -. t0;
  }
