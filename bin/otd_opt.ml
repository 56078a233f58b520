(** otd-opt: the mlir-opt analogue of this repository.

    Reads a module in generic textual form, optionally verifies it, runs a
    comma-separated pass pipeline and/or a Transform script (from a separate
    file or embedded in the same module as a [@__transform_main] named
    sequence), and prints the result.

    Observability flags:
    - [--timing] prints the pipeline → pass and schedule
      compile/apply spans as a timing tree ({!Ir.Profiler.timing}), plus
      per-pass op-count deltas; it records into the [--profile] profiler
      when both are given;
    - [--print-ir-after-all[=changed|always]] dumps the IR after passes
      (stderr); the default [changed] mode skips passes that left the
      module fingerprint-identical, [always] restores unconditional dumps;
    - [--action-journal[=PATH]] records every transformation unit (pass,
      pattern, fold, DCE, conversion, transform dispatch) routed through
      {!Ir.Action}
      as one JSONL line;
    - [--debug-counter=TAG:SKIP,COUNT] skips the first SKIP actions of TAG,
      executes the next COUNT and skips the rest (MLIR DebugCounter
      semantics) — the manual bisection knob for "which rewrite broke it";
    - [--print-ir-after-change[=TAGS]] / [--snapshot-after-change=DIR]
      diff/dump the changed functions after each action whose tag is in
      TAGS (default [pass,transform]), gated on fingerprint inequality;
    - [--provenance[=PATH]] dumps per-op provenance — which action created,
      modified or erased each op — as JSON (queryable via
      [otd-check --provenance]);
    - [--trace[=text|json]] prints the execution trace (transform ops with
      handle payload sizes, suppressed silenceable errors, greedy-driver
      stats) — both forms go to stderr: [--trace] / [--trace=text] renders
      the human-readable listing, [--trace=json] reuses the
      {!Ir.Trace.to_json} rendering;
    - [--profile[=PATH]] records nested profiler spans (pipeline → pass →
      greedy driver, transform ops) and writes Chrome
      trace-event JSON to $(i,PATH) (default [profile.json]) — load it at
      [ui.perfetto.dev] or [chrome://tracing];
    - [--stats[=text|json]] prints the global statistics registry
      (greedy-driver counters, conversion-pass op counts, interpreter
      handle volumes) to stderr after the run;
    - [--remarks=KINDS] ([passed,missed,analysis] or [all]) prints
      optimization remarks with payload locations to stderr;
      [--remarks-filter=REGEX] keeps only remarks whose pass name or
      message matches;
    - [--diagnostics=json] replaces the textual module on stdout with one
      JSON object carrying diagnostics, trace, timing, remarks, stats and
      the final IR;
    - [--reproducer PATH] writes a crash reproducer on pass failure; a
      reproducer file fed back to otd-opt replays its embedded pipeline.

    Trace events and remarks are notes in the {!Ir.Action} context, so
    [--trace], [--remarks] and [--diagnostics=json] install one like the
    action flags do; a run with none of them pays no action journal. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type json_report = {
  mutable j_diagnostics : Ir.Diag.t list;
  mutable j_ir_after : (string * string) list;  (** pass name, IR text *)
}

(* shared by the binaries: resolve a [--jobs] value against the OTD_JOBS
   fallback already baked into [Ir.Pool]. [Some 0] means auto-size. *)
let apply_jobs = function
  | None -> Ok () (* keep OTD_JOBS (or sequential) *)
  | Some 0 -> Ok (Ir.Pool.set_jobs (Ir.Pool.default_jobs ()))
  | Some n when n >= 1 -> Ok (Ir.Pool.set_jobs n)
  | Some n -> Error (Fmt.str "--jobs must be >= 0 (got %d)" n)

let split_tags s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun t -> t <> "")

let run input pipeline transform_file flow_check no_verify list_passes timing
    print_ir_after_all trace diagnostics_format reproducer_path pretty profile
    stats remarks remarks_filter max_steps deadline_ms jobs debug_counters
    action_journal print_ir_after_change snapshot_after_change provenance_path
    =
  Printexc.record_backtrace true;
  (* SIGINT raises Sys.Break at the next safe point instead of killing the
     process: open journals, traces and reports still flush below, and the
     user gets a clean diagnostic rather than a bare backtrace *)
  Sys.catch_break true;
  match apply_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
  let ctx = Transform.Register.full_context () in
  let remark_kinds_r =
    match remarks with
    | None -> Ok None
    | Some s -> Result.map Option.some (Ir.Remark.kinds_of_string s)
  in
  let remark_re_r =
    match remarks_filter with
    | None -> Ok None
    | Some re -> (
      try Ok (Some (Str.regexp re))
      with Failure e ->
        Error (Fmt.str "invalid --remarks-filter regex %S: %s" re e))
  in
  let counters_r =
    List.fold_left
      (fun acc s ->
        Result.bind acc (fun cs ->
            Result.map (fun c -> c :: cs) (Ir.Action.parse_counter s)))
      (Ok []) debug_counters
    |> Result.map List.rev
  in
  match (remark_kinds_r, remark_re_r, counters_r) with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> `Error (false, e)
  | Ok remark_kinds, Ok remark_re, Ok counters ->
  if list_passes then begin
    List.iter
      (fun p ->
        Fmt.pr "%-32s %s@." p.Passes.Pass.name p.Passes.Pass.summary)
      (Passes.Pass.all_registered ());
    `Ok ()
  end
  else
    match input with
    | None -> `Error (false, "missing input file")
    | Some path -> (
      match
        if path = "-" then In_channel.input_all stdin else read_file path
      with
      | exception Sys_error e -> `Error (false, e)
      | src ->
      (
      let json_mode = diagnostics_format = "json" in
      let report = { j_diagnostics = []; j_ir_after = [] } in
      let emit_diag d =
        report.j_diagnostics <- report.j_diagnostics @ [ d ];
        if not json_mode then Fmt.epr "%a@." Ir.Diag.pp d
      in
      (* route context-emitted diagnostics through the same collector *)
      Ir.Diag.push_handler (Ir.Context.diag_engine ctx) emit_diag;
      (* a reproducer input replays its embedded pipeline *)
      let pipeline =
        match (pipeline, Passes.Reproducer.pipeline src) with
        | Some p, _ -> Some p
        | None, Some embedded ->
          emit_diag
            (Ir.Diag.remark "replaying reproducer pipeline: %s" embedded);
          Some embedded
        | None, None -> None
      in
      match Ir.Parser.parse_module src with
      | Error e -> `Error (false, Fmt.str "parse error: %s" e)
      | Ok m ->
        let op_count_instr, op_deltas = Passes.Pass.op_count_deltas () in
        let snapshot_instr =
          (* capture per-pass IR snapshots for the JSON report *)
          Passes.Pass.instrumentation
            ~after_pass:(fun p op ->
              report.j_ir_after <-
                report.j_ir_after
                @ [ (p.Passes.Pass.name, Ir.Printer.op_to_string op) ])
            ()
        in
        let instrumentations =
          (match print_ir_after_all with
          | Some mode when not json_mode ->
            [
              Passes.Pass.print_ir_after_all
                ~only_changed:(mode = "changed") ();
            ]
          | _ -> [])
          @ (if print_ir_after_all <> None && json_mode then
               [ snapshot_instr ]
             else [])
          @ (if timing then [ op_count_instr ] else [])
          @
          match reproducer_path with
          | Some rp -> [ Passes.Pass.reproducer ~path:rp ]
          | None -> []
        in
        let verify () =
          if no_verify then Ok ()
          else
            match Ir.Verifier.verify ctx m with
            | Ok () -> Ok ()
            | Error diags ->
              List.iter emit_diag diags;
              Error
                (Fmt.str "verification failed with %d diagnostics"
                   (List.length diags))
        in
        let apply_pipeline () =
          match pipeline with
          | None -> Ok ()
          | Some str -> (
            match Passes.Pass.parse_pipeline str with
            | Error d ->
              emit_diag d;
              Error "invalid pass pipeline"
            | Ok passes -> (
              match
                Passes.Pass.run_pipeline ~instrumentations ctx passes m
              with
              | Ok () -> Ok ()
              | Error d ->
                emit_diag d;
                Error "pass pipeline failed"))
        in
        let apply_transform () =
          match transform_file with
          | None -> Ok ()
          | Some tf -> (
            match Ir.Parser.parse_module (read_file tf) with
            | exception Sys_error e -> Error e
            | Error e -> Error (Fmt.str "transform script parse error: %s" e)
            | Ok script -> (
              let config =
                if flow_check then
                  {
                    Transform.State.default_config with
                    Transform.State.check_annotations = true;
                  }
                else Transform.State.default_config
              in
              match
                Transform.Schedule.run ~flow:flow_check ~config ctx
                  ~script ~payload:m
              with
              | Ok (_ : int) -> Ok ()
              | Error e ->
                emit_diag (Transform.Terror.diag e);
                Error
                  (Fmt.str "transform interpretation failed (%s)"
                     (if Transform.Terror.is_silenceable e then "silenceable"
                      else "definite"))))
        in
        let profiler =
          if timing || profile <> None then Some (Ir.Profiler.create ())
          else None
        in
        let with_profiler f =
          match profiler with
          | None -> f ()
          | Some p -> Ir.Profiler.with_profiler p f
        in
        let with_budget f =
          if max_steps = None && deadline_ms = None then f ()
          else
            Ir.Budget.with_budget
              (Ir.Budget.create ?max_steps ?deadline_ms ())
              f
        in
        (* action context: built when any action-framework flag is given
           or something reads the trace or remarks it records *)
        let actx =
          if
            trace = None && remark_kinds = None && (not json_mode)
            && counters = [] && action_journal = None
            && print_ir_after_change = None
            && snapshot_after_change = None
            && provenance_path = None
          then None
          else begin
            let t =
              Ir.Action.create ~counters
                ~provenance:(provenance_path <> None) ()
            in
            (match print_ir_after_change with
            | Some tags ->
              Ir.Action.push_handler t
                (Ir.Action.snapshot_handler
                   {
                     Ir.Action.sn_tags = split_tags tags;
                     sn_mode = Ir.Action.Snap_print Fmt.stderr;
                   })
            | None -> ());
            (match snapshot_after_change with
            | Some dir ->
              Ir.Action.push_handler t
                (Ir.Action.snapshot_handler
                   {
                     Ir.Action.sn_tags = Ir.Action.default_snapshot_tags;
                     sn_mode = Ir.Action.Snap_dir dir;
                   })
            | None -> ());
            Some t
          end
        in
        let with_action f =
          match actx with
          | None -> f ()
          | Some t -> Ir.Action.with_context t f
        in
        let outcome =
          try
            with_budget (fun () ->
                with_profiler (fun () ->
                    with_action (fun () ->
                        Result.bind (verify ()) (fun () ->
                            Result.bind (apply_pipeline ()) (fun () ->
                                Result.bind (apply_transform ()) verify)))))
          with Sys.Break ->
            Error
              "interrupted (SIGINT): partial action journals, traces and \
               profiles were still flushed"
        in
        (match (actx, action_journal) with
        | Some t, Some path -> Ir.Action.write_journal t ~path
        | _ -> ());
        (match (actx, provenance_path) with
        | Some t, Some path -> Ir.Action.write_provenance t ~root:m ~path
        | _ -> ());
        (match (profiler, profile) with
        | Some p, Some path -> Ir.Profiler.write p ~path
        | _ -> ());
        let timing_roots =
          match profiler with
          | Some p when timing -> Ir.Profiler.timing p
          | _ -> []
        in
        let traces, selected_remarks =
          match actx with
          | None -> ([], [])
          | Some t ->
            ( Ir.Action.traces t,
              match remark_kinds with
              | None -> []
              | Some kinds ->
                Ir.Remark.filter ~kinds ?filter:remark_re
                  (Ir.Action.remarks t) )
        in
        (* human-readable reports on stderr *)
        if not json_mode then begin
          if timing_roots <> [] then begin
            Fmt.epr "// -----// timing //----- //@.%a@."
              Ir.Profiler.pp_timing timing_roots;
            let deltas = op_deltas () in
            if List.exists (fun (_, d) -> d <> []) deltas then
              Fmt.epr "// -----// op-count deltas //----- //@.%a@."
                Passes.Pass.pp_op_deltas deltas
          end;
          (match trace with
          | Some "json" -> Fmt.epr "%a@." Ir.Json.pp (Ir.Trace.to_json traces)
          | Some _ ->
            Fmt.epr "// -----// trace //----- //@.%a@." Ir.Trace.pp traces
          | None -> ());
          List.iter (fun r -> Fmt.epr "%a@." Ir.Remark.pp r) selected_remarks
        end;
        (match stats with
        | Some "json" -> Fmt.epr "%a@." Ir.Json.pp (Ir.Stats.to_json ())
        | Some _ ->
          Fmt.epr "// -----// statistics //----- //@.%a@." Ir.Stats.pp ()
        | None -> ());
        let finish result =
          if json_mode then begin
            let json =
              Ir.Json.Obj
                ([
                   ("success", Ir.Json.Bool (Result.is_ok result));
                   ( "diagnostics",
                     Ir.Json.List
                       (List.map Ir.Diag.to_json report.j_diagnostics) );
                   ("trace", Ir.Trace.to_json traces);
                 ]
                @ (if timing then
                     [
                       ("timing", Ir.Profiler.timing_to_json timing_roots);
                       ( "op_count_deltas",
                         Passes.Pass.op_deltas_to_json (op_deltas ()) );
                     ]
                   else [])
                @ (if stats <> None then
                     [ ("stats", Ir.Stats.to_json ()) ]
                   else [])
                @ (if remark_kinds <> None then
                     [
                       ( "remarks",
                         Ir.Json.List
                           (List.map Ir.Remark.to_json selected_remarks) );
                     ]
                   else [])
                @ (match report.j_ir_after with
                  | [] -> []
                  | snaps ->
                    [
                      ( "ir_after",
                        Ir.Json.List
                          (List.map
                             (fun (p, ir) ->
                               Ir.Json.Obj
                                 [
                                   ("pass", Ir.Json.String p);
                                   ("ir", Ir.Json.String ir);
                                 ])
                             snaps) );
                    ])
                @ [
                    ( "output",
                      match result with
                      | Ok () -> Ir.Json.String (Ir.Printer.op_to_string m)
                      | Error _ -> Ir.Json.Null );
                  ])
            in
            Fmt.pr "%a@." Ir.Json.pp json
          end;
          match result with
          | Error e -> `Error (false, e)
          | Ok () ->
            if not json_mode then
              if pretty then Fmt.pr "%a@." Ir.Pretty.pp m
              else Ir.Printer.print_op m;
            `Ok ()
        in
        finish outcome))

let input =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Input module ('-' for stdin).")

let pipeline =
  Arg.(
    value
    & opt (some string) None
    & info [ "pass-pipeline"; "p" ] ~docv:"PASSES"
        ~doc:"Comma-separated pass pipeline to run.")

let transform_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "transform" ] ~docv:"FILE"
        ~doc:"Transform script to apply to the payload. It is compiled to \
              a schedule cached by the script's structural fingerprint; see \
              the $(b,schedule/*) counters under $(b,--stats).")

let flow_check =
  Arg.(
    value & flag
    & info [ "flow-check" ]
        ~doc:"Gate the transform script behind the static annotation-flow \
              checker: schedules whose declared requires-clauses cannot \
              be satisfied are rejected with structured diagnostics \
              before any payload is touched. Also enables the dynamic \
              annotation checker during execution, so every declared \
              requirement is re-verified as the script runs.")

let no_verify =
  Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip IR verification.")

let list_passes =
  Arg.(value & flag & info [ "list-passes" ] ~doc:"List registered passes.")

let timing =
  Arg.(
    value & flag
    & info [ "timing" ]
        ~doc:"Print the profiler's pipeline, pass, verify and schedule \
              spans as a timing tree, plus per-pass op-count deltas.")

let print_ir_after_all =
  Arg.(
    value
    & opt
        ~vopt:(Some "changed")
        (some (enum [ ("changed", "changed"); ("always", "always") ]))
        None
    & info [ "print-ir-after-all" ] ~docv:"MODE"
        ~doc:"Print the IR after passes. The default $(b,changed) mode \
              skips passes that left the module structurally identical \
              (fingerprint-gated); $(b,always) dumps after every pass.")

let debug_counters =
  Arg.(
    value & opt_all string []
    & info [ "debug-counter" ] ~docv:"TAG:SKIP,COUNT"
        ~doc:"Debug counter over the action stream (repeatable): skip the \
              first $(i,SKIP) actions tagged $(i,TAG) (e.g. $(b,pattern), \
              $(b,fold), $(b,dce), $(b,conversion), $(b,transform), \
              $(b,pass)), execute the \
              next $(i,COUNT) (omitted means all), skip the rest — MLIR \
              DebugCounter semantics, for bisecting which rewrite broke \
              the output. Forces sequential scheduling.")

let action_journal =
  Arg.(
    value
    & opt ~vopt:(Some "actions.jsonl") (some string) None
    & info [ "action-journal" ] ~docv:"PATH"
        ~doc:"Write the structured action journal to $(docv) as JSONL: one \
              line per transformation unit (pass, pattern application, \
              fold, DCE, conversion rewrite, transform dispatch) with \
              tag, per-tag index, \
              location, outcome (executed/skipped/failed/reverted), \
              duration and profiler timestamp. Deterministic at any \
              $(b,--jobs) degree.")

let print_ir_after_change =
  Arg.(
    value
    & opt ~vopt:(Some "pass,transform") (some string) None
    & info [ "print-ir-after-change" ] ~docv:"TAGS"
        ~doc:"After each action whose tag is in the comma-separated \
              $(docv) (default $(b,pass,transform)), print a line diff of \
              the functions it changed to stderr — gated on structural \
              fingerprint inequality, so actions that change nothing print \
              nothing. Forces sequential scheduling.")

let snapshot_after_change =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-after-change" ] ~docv:"DIR"
        ~doc:"After each pass/transform action that changed the module \
              (fingerprint-gated), write the changed functions to a \
              numbered .mlir snapshot under $(docv). Forces sequential \
              scheduling.")

let provenance_path =
  Arg.(
    value
    & opt ~vopt:(Some "provenance.json") (some string) None
    & info [ "provenance" ] ~docv:"PATH"
        ~doc:"Record per-op provenance — which action created, modified, \
              replaced or erased each op, fed by rewriter listener events \
              — and write it to $(docv) as JSON after the run. Query it \
              with $(b,otd-check --provenance).")

let trace =
  Arg.(
    value
    & opt
        ~vopt:(Some "text")
        (some (enum [ ("text", "text"); ("json", "json") ]))
        None
    & info [ "trace" ] ~docv:"FORMAT"
        ~doc:"Print the execution trace (transform ops, suppressed errors, \
              greedy-driver statistics) to stderr. $(b,--trace) or \
              $(b,--trace=text) renders the listing; $(b,--trace=json) \
              emits the trace's JSON rendering.")

let profile =
  Arg.(
    value
    & opt ~vopt:(Some "profile.json") (some string) None
    & info [ "profile" ] ~docv:"PATH"
        ~doc:"Record profiler spans (pipeline, passes, greedy driver, \
              transform ops) and write Chrome trace-event JSON to $(docv) \
              — loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.")

let stats =
  Arg.(
    value
    & opt
        ~vopt:(Some "text")
        (some (enum [ ("text", "text"); ("json", "json") ]))
        None
    & info [ "stats" ] ~docv:"FORMAT"
        ~doc:"Print the global statistics registry (greedy-driver counters, \
              conversion-pass op counts, transform-interpreter handle \
              volumes) to stderr after the run, as an aligned table \
              ($(b,text), the default) or as JSON.")

let remarks =
  Arg.(
    value
    & opt (some string) None
    & info [ "remarks" ] ~docv:"KINDS"
        ~doc:"Print optimization remarks of the comma-separated $(docv) \
              ($(b,passed), $(b,missed), $(b,analysis), or $(b,all)) to \
              stderr, with payload locations.")

let remarks_filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "remarks-filter" ] ~docv:"REGEX"
        ~doc:"Keep only remarks whose pass name or message matches $(docv) \
              (Str regexp syntax). Implies nothing without $(b,--remarks).")

let diagnostics_format =
  Arg.(
    value
    & opt (enum [ ("text", "text"); ("json", "json") ]) "text"
    & info [ "diagnostics" ] ~docv:"FORMAT"
        ~doc:"Diagnostics output format. With $(b,json), stdout carries a \
              single JSON object with diagnostics, trace, timing and the \
              final IR.")

let reproducer_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "reproducer" ] ~docv:"PATH"
        ~doc:"On pass failure, write a crash reproducer (pre-pass IR plus \
              the remaining pipeline) to $(docv).")

let pretty =
  Arg.(
    value & flag
    & info [ "pretty" ]
        ~doc:"Print custom assembly for common dialects (output only; the \
              parser consumes the generic form).")

let max_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Execution budget: abort the transform interpreter cleanly \
              (silenceable failure) after $(docv) interpreted transform \
              ops. Unset means unlimited.")

let deadline_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Execution budget: wall-clock deadline for the whole run \
              (pass pipeline, greedy rewriting and transform \
              interpretation) in milliseconds; exceeded work stops with a \
              clean diagnostic instead of hanging.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Parallelism degree for function-at-a-time pass scheduling: \
              fan per-function passes over $(docv) domains. $(b,--jobs=1) \
              runs fully sequential (no pool, no domains); $(b,--jobs=0) \
              auto-sizes to the runtime's recommended domain count. \
              Defaults to the $(b,OTD_JOBS) environment variable, else 1. \
              Output, diagnostics and exit codes are identical at every \
              degree.")

let cmd =
  let doc = "optimizer driver for the OCaml Transform-dialect reproduction" in
  Cmd.v
    (Cmd.info "otd-opt" ~doc)
    Term.(
      ret
        (const run $ input $ pipeline $ transform_file $ flow_check $ no_verify
       $ list_passes $ timing $ print_ir_after_all $ trace
       $ diagnostics_format $ reproducer_path $ pretty $ profile $ stats
       $ remarks $ remarks_filter $ max_steps $ deadline_ms $ jobs
       $ debug_counters $ action_journal $ print_ir_after_change
       $ snapshot_after_change $ provenance_path))

let () = exit (Cmd.eval cmd)
