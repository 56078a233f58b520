(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4) on this repository's substrates, then runs a
   Bechamel micro-benchmark per experiment kernel.

   Usage:  dune exec bench/main.exe            (all sections)
           dune exec bench/main.exe -- table1  (one section)
           dune exec bench/main.exe -- --no-micro  (skip Bechamel) *)

let ctx = Transform.Register.full_context ()

(* bulky non-report artifacts (lowered models, journals, reproducers) live
   under the gitignored _artifacts/; the BENCH_*.json reports stay at the
   repository root where CI collects them *)
let artifacts_dir () =
  (try Sys.mkdir "_artifacts" 0o755 with Sys_error _ -> ());
  "_artifacts"

let banner title paper =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "  (paper: %s)@." paper;
  Fmt.pr "============================================================@."

(* ------------------------------------------------------------------ *)
(* sections                                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  banner "E1 - Table 1: compile-time overhead of the Transform dialect"
    "five ML models, pass manager vs transform interpreter, <= 2.6% overhead";
  let rows = Experiments.Table1.run ~reps:7 ctx in
  Experiments.Table1.pp_table Fmt.stdout rows;
  let max_overhead =
    List.fold_left
      (fun acc r -> Float.max acc r.Experiments.Table1.overhead_pct)
      0.0 rows
  in
  Fmt.pr "max overhead measured: %.1f%%@." max_overhead;
  rows

let fig6 rows =
  banner "E2 - Figure 6: compile time per model, MLIR vs Transform"
    "bar chart of the Table 1 data";
  Experiments.Table1.pp_figure Fmt.stdout rows

let table2 () =
  banner "E3 - Table 2 / Case Study 2: pre/post-conditions + static checking"
    "naive pipeline statically flagged (leftover affine.apply); robust passes";
  Experiments.Table2.pp_conditions Fmt.stdout ();
  Fmt.pr "@.";
  let o = Experiments.Table2.run ctx in
  Experiments.Table2.pp_outcome Fmt.stdout o

let cs3 () =
  banner "E4 - Case Study 3: hunting the counterproductive pattern"
    "binary search over ~20 patterns; 4s/probe vs ~195s/rebuild; ~9% regression";
  let o = Experiments.Cs3.run ctx in
  Experiments.Cs3.pp_outcome Fmt.stdout o

let cs4 () =
  banner "E5 - Case Study 4 / Figures 7-8: fine-grained loop control"
    "OpenMP ~ Transform (0.48s vs 0.49s); microkernel 0.017s (~28x)";
  let o = Experiments.Cs4.run ctx in
  Experiments.Cs4.pp_outcome Fmt.stdout o

let cs5 () =
  banner "E6 - Case Study 5 / Figures 9-11: autotuning the Transform script"
    "BaCO-style Bayesian search over tile sizes; monotone evolution, 1.68x";
  let o = Experiments.Cs5.run ctx in
  Experiments.Cs5.pp_outcome Fmt.stdout o

let cs5s () =
  banner "Extension - structured-level autotuning"
    "tile sizes interact with microkernel eligibility through alternatives";
  let o = Experiments.Cs5_structured.run ctx in
  Experiments.Cs5_structured.pp_outcome Fmt.stdout o

let s34 () =
  banner "E8 - Section 3.4 / Figure 5: transform-IR introspection for AD"
    "the AD transform emits adds of the dialect current at its position";
  let rows = Experiments.S34.run ctx in
  Experiments.S34.pp_rows Fmt.stdout rows

let ablations () =
  banner "Ablations: transform-IR simplification and checking overheads"
    "design choices called out in DESIGN.md";
  let rows = Experiments.Ablations.run ctx in
  Experiments.Ablations.pp_rows Fmt.stdout rows;
  Fmt.pr "@.";
  Experiments.Ablations.pp_check_row Fmt.stdout
    (Experiments.Ablations.dynamic_check_overhead ctx);
  Fmt.pr "@.";
  Experiments.Ablations.pp_ilist_rows Fmt.stdout
    (Experiments.Ablations.ilist_ablation ())

(* ------------------------------------------------------------------ *)
(* Greedy engine input                                                  *)
(* ------------------------------------------------------------------ *)

(** Squeezenet lowered to the canonicalize input: the Table-1 TOSA pipeline
    with its trailing [canonicalize,cse] stripped, so the driver sees the
    exact IR the canonicalize pass runs on. *)
let greedy_setup () =
  let squeezenet =
    List.find
      (fun s -> s.Workloads.Models.sp_name = "squeezenet")
      Workloads.Models.paper_models
  in
  let passes =
    match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
    | Ok ps ->
      List.filter
        (fun p ->
          p.Passes.Pass.name <> "canonicalize" && p.Passes.Pass.name <> "cse")
        ps
    | Error e -> failwith (Ir.Diag.to_string e)
  in
  let lowered = Workloads.Models.build squeezenet in
  (match Passes.Pass.run_pipeline ctx passes lowered with
  | Ok _ -> ()
  | Error e -> failwith (Ir.Diag.to_string e));
  let patterns =
    Passes.Transforms.canonicalization_patterns ctx
    @ Dialects.Arith.canonicalization_patterns ()
  in
  (lowered, patterns)

(* ------------------------------------------------------------------ *)
(* Profiler overhead: span cost with and without an ambient profiler    *)
(* ------------------------------------------------------------------ *)

let profiler () =
  banner "E10 - Profiler: per-span overhead, enabled vs disabled"
    "the ambient no-op path (one ref read) lets instrumentation stay on";
  let sink = ref 0 in
  let body () = incr sink in
  let time n f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    dt /. float_of_int n *. 1e9
  in
  (* warm up the minor heap / branch predictors *)
  ignore (time 10_000 body);
  let n_disabled = 2_000_000 and n_enabled = 200_000 in
  let ns_baseline = time n_disabled body in
  (* disabled: no ambient profiler installed (explicitly uninstall in case
     the whole bench run is itself being profiled with --profile=FILE) *)
  let ns_disabled =
    Ir.Profiler.with_disabled (fun () ->
        time n_disabled (fun () -> Ir.Profiler.span "bench.noop" body))
  in
  (* enabled: every span records a begin and an end event *)
  let p = Ir.Profiler.create () in
  let ns_enabled =
    Ir.Profiler.with_profiler p (fun () ->
        time n_enabled (fun () -> Ir.Profiler.span "bench.noop" body))
  in
  assert (Ir.Profiler.balanced p);
  assert (Ir.Profiler.span_count p = n_enabled);
  let ns_counter =
    Ir.Profiler.with_profiler p (fun () ->
        time n_enabled (fun () -> Ir.Profiler.counter "bench.count" 1.0))
  in
  Fmt.pr "per-span cost (body: one int incr):@.";
  Fmt.pr "  %-36s %10.1f ns@." "bare body" ns_baseline;
  Fmt.pr "  %-36s %10.1f ns@." "span, profiler disabled" ns_disabled;
  Fmt.pr "  %-36s %10.1f ns@." "span, profiler enabled" ns_enabled;
  Fmt.pr "  %-36s %10.1f ns@." "counter sample, enabled" ns_counter;
  Fmt.pr "  disabled overhead: %.1f ns/span; enabled records %d events@."
    (ns_disabled -. ns_baseline)
    (2 * n_enabled);
  let json =
    Ir.Json.Obj
      [
        ("benchmark", Ir.Json.String "profiler-span-overhead");
        ("spans_disabled", Ir.Json.Int n_disabled);
        ("spans_enabled", Ir.Json.Int n_enabled);
        ("ns_per_span_baseline", Ir.Json.Float ns_baseline);
        ("ns_per_span_disabled", Ir.Json.Float ns_disabled);
        ("ns_per_span_enabled", Ir.Json.Float ns_enabled);
        ("ns_per_counter_enabled", Ir.Json.Float ns_counter);
        ( "ns_disabled_overhead",
          Ir.Json.Float (ns_disabled -. ns_baseline) );
        ( "note",
          Ir.Json.String
            "disabled = no ambient profiler installed: Profiler.span is one \
             ref read plus a closure call, so instrumentation can stay on in \
             hot paths; enabled = two timestamped events per span" );
      ]
  in
  let oc = open_out "BENCH_profiler.json" in
  output_string oc (Ir.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote BENCH_profiler.json@."

(* ------------------------------------------------------------------ *)
(* Action framework: disabled-site cost, journal cost, macro overhead   *)
(* ------------------------------------------------------------------ *)

let action_bench () =
  banner "E13 - Action framework: interception overhead"
    "disabled = one domain-local read per site; journal = one entry/action";
  let sink = ref 0 in
  let body () = incr sink in
  let time n f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    dt /. float_of_int n *. 1e9
  in
  ignore (time 10_000 body);
  let n_disabled = 2_000_000 and n_enabled = 200_000 in
  let ns_baseline = time n_disabled body in
  (* disabled: the hot-site shape — one Action.active () read, then the
     direct call (explicitly uninstall any ambient context first) *)
  let root = Dialects.Builtin.create_module () in
  let ns_disabled =
    Ir.Action.with_disabled (fun () ->
        time n_disabled (fun () ->
            match Ir.Action.active () with
            | None -> body ()
            | Some a ->
              Ir.Action.run_on a ~tag:"bench" ~desc:"noop" ~loc:Ir.Loc.unknown
                ~root ~skipped:() body))
  in
  (* journal-only context: every site allocates and records one entry *)
  let t = Ir.Action.create () in
  let ns_journal =
    Ir.Action.with_context t (fun () ->
        time n_enabled (fun () ->
            match Ir.Action.active () with
            | None -> body ()
            | Some a ->
              Ir.Action.run_on a ~tag:"bench" ~desc:"noop" ~loc:Ir.Loc.unknown
                ~root ~skipped:() body))
  in
  (* macro: squeezenet canonicalize with and without the journal; the
     handlers-off run must stay byte-identical *)
  let spec = List.hd Workloads.Models.paper_models in
  let canonicalize md =
    match
      Passes.Pass.run_pipeline ctx
        [ Passes.Pass.lookup_exn "canonicalize" ]
        md
    with
    | Ok (_ : Passes.Pass.run_result) -> ()
    | Error d -> failwith (Ir.Diag.to_string d)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let md_off = Workloads.Models.build spec in
  let t_off = wall (fun () -> canonicalize md_off) in
  let ir_off = Ir.Printer.op_to_string md_off in
  let md_on = Workloads.Models.build spec in
  let journal = Ir.Action.create ~provenance:true () in
  let t_on =
    wall (fun () ->
        Ir.Action.with_context journal (fun () -> canonicalize md_on))
  in
  let ir_on = Ir.Printer.op_to_string md_on in
  let actions = List.length (Ir.Action.entries journal) in
  if not (String.equal ir_off ir_on) then
    failwith "action bench: journaled run diverged from the bare run";
  (* artifacts CI validates with otd-json *)
  let adir = artifacts_dir () in
  Ir.Action.write_journal journal
    ~path:(Filename.concat adir "ACTIONS_squeezenet.jsonl");
  Ir.Action.write_provenance journal ~root:md_on
    ~path:(Filename.concat adir "PROVENANCE_squeezenet.json");
  let overhead_ns = ns_disabled -. ns_baseline in
  Fmt.pr "per-site cost (body: one int incr):@.";
  Fmt.pr "  %-36s %10.1f ns@." "bare body" ns_baseline;
  Fmt.pr "  %-36s %10.1f ns@." "site, actions disabled" ns_disabled;
  Fmt.pr "  %-36s %10.1f ns@." "site, journal-only context" ns_journal;
  Fmt.pr "  disabled overhead: %.1f ns/site@." overhead_ns;
  Fmt.pr
    "squeezenet canonicalize: %.1f ms bare, %.1f ms journal+provenance (%d \
     actions), IR byte-identical@."
    (t_off *. 1000.) (t_on *. 1000.) actions;
  let json =
    Ir.Json.Obj
      [
        ("benchmark", Ir.Json.String "action-site-overhead");
        ("sites_disabled", Ir.Json.Int n_disabled);
        ("sites_journal", Ir.Json.Int n_enabled);
        ("ns_per_site_baseline", Ir.Json.Float ns_baseline);
        ("ns_per_site_disabled", Ir.Json.Float ns_disabled);
        ("ns_per_site_journal", Ir.Json.Float ns_journal);
        ("ns_disabled_overhead", Ir.Json.Float overhead_ns);
        ( "macro",
          Ir.Json.Obj
            [
              ("model", Ir.Json.String spec.Workloads.Models.sp_name);
              ("pipeline", Ir.Json.String "canonicalize");
              ("wall_ms_off", Ir.Json.Float (t_off *. 1000.));
              ("wall_ms_journal", Ir.Json.Float (t_on *. 1000.));
              ("actions", Ir.Json.Int actions);
              ("ir_byte_identical", Ir.Json.Bool true);
            ] );
        ( "note",
          Ir.Json.String
            "disabled = no ambient Action context: every instrumented site \
             (pass, pattern, fold, dce, transform dispatch) pays one \
             domain-local read before calling through; journal-only = one \
             entry allocation per action, no handlers, still parallel-safe \
             via capture/replay" );
      ]
  in
  let oc = open_out "BENCH_action.json" in
  output_string oc (Ir.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote BENCH_action.json@."

(* ------------------------------------------------------------------ *)
(* Checkpoint: snapshot/restore cost vs payload size                    *)
(* ------------------------------------------------------------------ *)

let checkpoint () =
  banner "E11 - Checkpoint: payload snapshot/restore cost vs payload size"
    "the transactional substrate of alternatives and failures(suppress)";
  (* matmul with the innermost loop fully unrolled: k scales the op count
     linearly, so the linear take/restore cost model is directly visible *)
  let payload ~k =
    let md = Workloads.Matmul.build_module ~m:8 ~n:8 ~k () in
    let script =
      Transform.Build.script (fun rw root ->
          let loop =
            Transform.Build.match_op rw ~select:"last" ~name:"scf.for" root
          in
          Transform.Build.loop_unroll_full rw loop)
    in
    (match Transform.Schedule.run ctx ~script ~payload:md with
    | Ok _ -> ()
    | Error e -> failwith (Transform.Terror.to_string e));
    md
  in
  let reps = 200 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let measure ~k =
    let md = payload ~k in
    let pre = Ir.Printer.op_to_string md in
    let ops = ref 0 in
    Ir.Ircore.walk_op md ~pre:(fun _ -> incr ops);
    let take_s = ref 0.0 and restore_s = ref 0.0 in
    for _ = 1 to reps do
      let cp = ref None in
      take_s := !take_s +. time (fun () -> cp := Some (Ir.Checkpoint.take md));
      let cp = Option.get !cp in
      (* mutate, then roll back: restore pays for the splice *)
      Ir.Ircore.set_attr md "bench.mutated" Ir.Attr.Unit;
      restore_s := !restore_s +. time (fun () -> Ir.Checkpoint.restore cp)
    done;
    if not (String.equal pre (Ir.Printer.op_to_string md)) then
      failwith "checkpoint bench: restore was not byte-identical";
    let per r = !r /. float_of_int reps *. 1e6 in
    (!ops, per take_s, per restore_s)
  in
  let sizes = [ 4; 16; 64; 256 ] in
  let rows = List.map (fun k -> (k, measure ~k)) sizes in
  Fmt.pr "take/restore, mean of %d reps:@." reps;
  Fmt.pr "  %-10s %10s %14s %14s %16s@." "k (unroll)" "payload ops"
    "take (us)" "restore (us)" "take us/op";
  List.iter
    (fun (k, (ops, take_us, restore_us)) ->
      Fmt.pr "  %-10d %10d %14.1f %14.1f %16.3f@." k ops take_us restore_us
        (take_us /. float_of_int ops))
    rows;
  let json =
    Ir.Json.Obj
      [
        ("benchmark", Ir.Json.String "checkpoint-take-restore");
        ("reps", Ir.Json.Int reps);
        ( "rows",
          Ir.Json.List
            (List.map
               (fun (k, (ops, take_us, restore_us)) ->
                 Ir.Json.Obj
                   [
                     ("k", Ir.Json.Int k);
                     ("payload_ops", Ir.Json.Int ops);
                     ("take_us", Ir.Json.Float take_us);
                     ("restore_us", Ir.Json.Float restore_us);
                     ( "take_us_per_op",
                       Ir.Json.Float (take_us /. float_of_int ops) );
                   ])
               rows) );
        ( "note",
          Ir.Json.String
            "take = deep clone + op/value side tables, linear in payload \
             size; restore = reference-drop + region splice onto the live \
             root, also linear; every restore is checked byte-identical" );
      ]
  in
  let oc = open_out "BENCH_checkpoint.json" in
  output_string oc (Ir.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote BENCH_checkpoint.json@."

(* ------------------------------------------------------------------ *)
(* Compiled schedules: cold compile + apply vs cached re-apply         *)
(* ------------------------------------------------------------------ *)

(** A navigation-heavy transform script, [k] repetitions of a block that
    matches, annotates, calls into a named sequence and applies a
    pre-listed pattern set to a one-op target — the profile where
    per-op dispatch, include resolution and pattern freezing dominate and
    schedule compilation pays off. Pass-dominated scripts (Table 1) spend
    their time inside the passes and gain little; that regime is measured
    separately by E1. *)
let schedule_bench_script ~k =
  let module B = Transform.Build in
  let pattern_names = Dialects.Shlo_patterns.names () in
  let m =
    B.script (fun rw root ->
        let funcs = B.match_op rw ~name:"func.func" root in
        let ret = B.match_op rw ~select:"first" ~name:"func.return" root in
        for i = 1 to k do
          ignore (B.param_constant rw i);
          let inc = B.include_ rw ~target:"bench_helper" [ funcs ] ~results:1 in
          B.annotate rw ~name:"bench.tick" (Ir.Ircore.result ~index:0 inc);
          B.apply_patterns rw ret pattern_names
        done)
  in
  ignore
    (B.named_sequence m ~name:"bench_helper" ~num_args:1 (fun rw args ->
         let h = List.hd args in
         B.annotate rw ~name:"bench.helper" h;
         ignore (B.param_constant rw 7);
         [ h ]));
  m

let schedule_bench () =
  banner "E12 - Compiled schedules: cold runs vs cached re-apply"
    "dispatch resolved at compile time, includes compiled once, patterns \
     pre-frozen, handles in slot arrays";
  let k = 128 in
  let script = schedule_bench_script ~k in
  let reps = 15 in
  (* payload clones and IR printing happen outside the timed region: only
     the schedule application itself is measured *)
  let median apply payload =
    let times = Array.make reps 0.0 in
    let last = ref payload in
    for _ = 1 to 3 do
      ignore (apply (Ir.Ircore.clone_op payload))
    done;
    for i = 0 to reps - 1 do
      let md = Ir.Ircore.clone_op payload in
      let t0 = Unix.gettimeofday () in
      (match apply md with
      | Ok (_ : int) -> ()
      | Error e -> failwith (Transform.Terror.to_string e));
      times.(i) <- Unix.gettimeofday () -. t0;
      last := md
    done;
    Array.sort compare times;
    (times.(reps / 2), Ir.Printer.op_to_string !last)
  in
  let schedule = Transform.Schedule.of_script ctx script in
  let rows =
    List.map
      (fun spec ->
        let name = spec.Workloads.Models.sp_name in
        let payload = Workloads.Models.build spec in
        (* cold: the cache is cleared before every run, so each rep pays
           the fingerprint walk and compilation on top of the application *)
        let cold_t, cold_ir =
          median
            (fun md ->
              Transform.Schedule.clear_cache ();
              Transform.Schedule.run ctx ~script ~payload:md)
            payload
        in
        (* cached re-apply: the schedule is compiled once; each rep pays
           only slot-array execution on a fresh payload *)
        let cached_t, cached_ir =
          median (fun md -> Transform.Schedule.apply schedule ~payload:md)
            payload
        in
        (* facade path: re-presenting the script pays one fingerprint walk
           plus a cache probe before the same compiled application *)
        let facade_t, _ =
          median (fun md -> Transform.Schedule.run ctx ~script ~payload:md)
            payload
        in
        let ir_equal = String.equal cold_ir cached_ir in
        let speedup = if cached_t > 0.0 then cold_t /. cached_t else 0.0 in
        (name, cold_t, cached_t, facade_t, speedup, ir_equal))
      Workloads.Models.paper_models
  in
  Fmt.pr "script: %d instructions, %d handle slots; median of %d reps@."
    (Transform.Schedule.instr_count schedule)
    (Transform.Schedule.slot_count schedule)
    reps;
  Fmt.pr "  %-20s %12s %12s %12s %9s %6s@." "model" "cold (ms)"
    "cached (ms)" "facade (ms)" "speedup" "same IR";
  List.iter
    (fun (name, ct, at, ft, speedup, ir_equal) ->
      Fmt.pr "  %-20s %12.3f %12.3f %12.3f %8.2fx %6b@." name (ct *. 1000.)
        (at *. 1000.) (ft *. 1000.) speedup ir_equal)
    rows;
  let ge2x =
    List.length (List.filter (fun (_, _, _, _, s, _) -> s >= 2.0) rows)
  in
  let all_ir_equal = List.for_all (fun (_, _, _, _, _, e) -> e) rows in
  let json =
    Ir.Json.Obj
      [
        ("benchmark", Ir.Json.String "compiled-schedule-reapply");
        ("reps", Ir.Json.Int reps);
        ("script_instrs", Ir.Json.Int (Transform.Schedule.instr_count schedule));
        ("handle_slots", Ir.Json.Int (Transform.Schedule.slot_count schedule));
        ( "fingerprint",
          Ir.Json.String
            (Ir.Fingerprint.to_hex (Transform.Schedule.fingerprint schedule)) );
        ( "models",
          Ir.Json.List
            (List.map
               (fun (name, ct, at, ft, speedup, ir_equal) ->
                 Ir.Json.Obj
                   [
                     ("model", Ir.Json.String name);
                     ("cold_ms", Ir.Json.Float (ct *. 1000.));
                     ("cached_ms", Ir.Json.Float (at *. 1000.));
                     ("cached_facade_ms", Ir.Json.Float (ft *. 1000.));
                     ("speedup", Ir.Json.Float speedup);
                     ("ir_equal", Ir.Json.Bool ir_equal);
                   ])
               rows) );
        ("models_ge_2x", Ir.Json.Int ge2x);
        ( "note",
          Ir.Json.String
            "cold = schedule cache cleared before every run (fingerprint + \
             compile + apply); cached = re-applying one compiled schedule \
             to a fresh payload clone; cached_facade also pays the per-call \
             fingerprint + cache probe" );
      ]
  in
  let oc = open_out "BENCH_compiled.json" in
  output_string oc (Ir.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote BENCH_compiled.json@.";
  if not all_ir_equal then
    failwith "schedule bench: output IR differs between cold and cached runs";
  if ge2x < 3 then
    Fmt.pr "WARNING: only %d/%d models reach 2x from cached re-apply@." ge2x
      (List.length rows)

(* ------------------------------------------------------------------ *)
(* Multicore pass manager: speedup vs domain count                      *)
(* ------------------------------------------------------------------ *)

(** Function-at-a-time parallel scheduling on the two biggest Table-1
    models, split into 32 [func.func]s so the module has enough
    isolated-from-above roots to balance across domains. Each degree runs
    the full Case-Study-1 lowering (canonicalize included) and the output
    is byte-compared against the sequential run — the speedup curve is
    only admissible where [ir_equal] holds. *)
let parallel_bench () =
  banner "E13 - Multicore pass manager: function-at-a-time scheduling"
    "per-function passes fan over a domain pool; byte-identical output";
  let saved_jobs = Ir.Pool.jobs () in
  let funcs = 32 in
  let degrees = [ 1; 2; 4; 8 ] in
  let reps = 5 in
  let passes =
    match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
    | Ok ps -> ps
    | Error e -> failwith (Ir.Diag.to_string e)
  in
  let specs =
    List.filter
      (fun s ->
        List.mem s.Workloads.Models.sp_name [ "gpt2"; "mobilebert" ])
      Workloads.Models.paper_models
  in
  let measure spec jobs =
    Ir.Pool.set_jobs jobs;
    let times = Array.make reps 0.0 in
    let out = ref "" in
    (* warmup: pools spawn lazily on the first fan-out *)
    (let md = Workloads.Models.build ~funcs spec in
     match Passes.Pass.run_pipeline ctx passes md with
     | Ok _ -> ()
     | Error e -> failwith (Ir.Diag.to_string e));
    for i = 0 to reps - 1 do
      let md = Workloads.Models.build ~funcs spec in
      let t0 = Unix.gettimeofday () in
      (match Passes.Pass.run_pipeline ctx passes md with
      | Ok _ -> ()
      | Error e -> failwith (Ir.Diag.to_string e));
      times.(i) <- Unix.gettimeofday () -. t0;
      out := Ir.Printer.op_to_string md
    done;
    Array.sort compare times;
    (times.(reps / 2), !out)
  in
  let cores = Domain.recommended_domain_count () in
  let rows =
    Fun.protect
      ~finally:(fun () -> Ir.Pool.set_jobs saved_jobs)
      (fun () ->
        List.map
          (fun spec ->
            let name = spec.Workloads.Models.sp_name in
            let seq_t, seq_ir = measure spec 1 in
            let points =
              List.map
                (fun j ->
                  if j = 1 then (1, seq_t, 1.0, true)
                  else begin
                    let t, ir = measure spec j in
                    let speedup = if t > 0.0 then seq_t /. t else 0.0 in
                    (j, t, speedup, String.equal seq_ir ir)
                  end)
                degrees
            in
            (name, points))
          specs)
  in
  Fmt.pr
    "lowering pipeline (%s)@.%d functions per model, median of %d reps, %d \
     core%s available@."
    Workloads.Models.tosa_pipeline_str funcs reps cores
    (if cores = 1 then "" else "s");
  List.iter
    (fun (name, points) ->
      Fmt.pr "  %s:@." name;
      List.iter
        (fun (j, t, speedup, ir_equal) ->
          Fmt.pr "    jobs=%d %10.1f ms   speedup %5.2fx   same IR: %b@." j
            (t *. 1000.) speedup ir_equal)
        points)
    rows;
  let all_ir_equal =
    List.for_all
      (fun (_, points) -> List.for_all (fun (_, _, _, e) -> e) points)
    rows
  in
  let json =
    Ir.Json.Obj
      [
        ("benchmark", Ir.Json.String "parallel-pass-manager");
        ("pipeline", Ir.Json.String Workloads.Models.tosa_pipeline_str);
        ("functions_per_model", Ir.Json.Int funcs);
        ("reps", Ir.Json.Int reps);
        ("cores", Ir.Json.Int cores);
        ( "models",
          Ir.Json.List
            (List.map
               (fun (name, points) ->
                 Ir.Json.Obj
                   [
                     ("model", Ir.Json.String name);
                     ( "points",
                       Ir.Json.List
                         (List.map
                            (fun (j, t, speedup, ir_equal) ->
                              Ir.Json.Obj
                                [
                                  ("jobs", Ir.Json.Int j);
                                  ("wall_ms", Ir.Json.Float (t *. 1000.));
                                  ("speedup", Ir.Json.Float speedup);
                                  ("ir_equal", Ir.Json.Bool ir_equal);
                                ])
                            points) );
                   ])
               rows) );
        ( "note",
          Ir.Json.String
            "speedup = sequential median / parallel median on the same \
             generated module; ir_equal byte-compares the printed module \
             against the sequential run. On a single-core host the curve \
             is flat (the pool adds fan-out overhead, no parallelism); \
             the CI bench-parallel job regenerates this file on multi-core \
             runners" );
      ]
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Ir.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote BENCH_parallel.json@.";
  if not all_ir_equal then
    failwith "parallel bench: parallel output IR differs from sequential"

(* ------------------------------------------------------------------ *)
(* Compilation server: load generator over a unix-socket daemon        *)
(* ------------------------------------------------------------------ *)

let server_bench () =
  banner "Compilation server: throughput, latency, cache hit-rate"
    "repeated-job workload over the otd_server wire protocol";
  let clients = 4 and per_client = 120 and corpus_size = 6 in
  let policy =
    {
      Server.Engine.default_policy with
      Server.Engine.p_jobs = 3;
      p_queue_depth = clients * per_client;
      p_backoff_ms = 0;
    }
  in
  let engine = Server.Engine.create ~policy () in
  let sock = Filename.concat (artifacts_dir ()) "bench-server.sock" in
  let listener =
    Server.Transport.serve_unix engine ~path:sock ~conns:clients
  in
  let corpus =
    Array.init corpus_size (fun k ->
        Ir.Printer.op_to_string (Fuzz.Driver.module_for ~seed:11 ~case:k ()))
  in
  let count name =
    match Ir.Stats.find_counter ~component:"server" name with
    | Some c -> Ir.Stats.value c
    | None -> 0
  in
  let hits0 = count "cache_hits" and misses0 = count "cache_misses" in
  let request ~client:_ ~i =
    Ir.Json.Obj
      [
        ("kind", Ir.Json.String "compile");
        ("payload", Ir.Json.String corpus.(i mod corpus_size));
        ("pipeline", Ir.Json.String "canonicalize,cse");
      ]
  in
  let report =
    Fun.protect
      ~finally:(fun () ->
        Server.Transport.stop_listener listener;
        Server.Engine.close engine)
      (fun () ->
        Server.Load.run ~clients ~requests_per_client:per_client
          ~connect:(fun _ -> Server.Load.socket_conn sock)
          ~request)
  in
  let hits = count "cache_hits" - hits0
  and misses = count "cache_misses" - misses0 in
  let lookups = hits + misses in
  let hit_rate =
    if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
  in
  Fmt.pr "%a@." Server.Load.pp_report report;
  Fmt.pr
    "result cache: %d hits / %d lookups (%.1f%% hit-rate; %d distinct jobs)@."
    hits lookups (100. *. hit_rate) corpus_size;
  let json =
    Ir.Json.Obj
      [
        ("benchmark", Ir.Json.String "server-load");
        ("clients", Ir.Json.Int clients);
        ("requests_per_client", Ir.Json.Int per_client);
        ("distinct_jobs", Ir.Json.Int corpus_size);
        ("pipeline", Ir.Json.String "canonicalize,cse");
        ("load", Server.Load.report_json report);
        ("cache_hits", Ir.Json.Int hits);
        ("cache_misses", Ir.Json.Int misses);
        ("cache_hit_rate", Ir.Json.Float hit_rate);
        ( "note",
          Ir.Json.String
            "each client replays the same small job corpus over the unix \
             socket; after the first misses warm the content-addressed \
             result cache every response is served from it, so hit-rate \
             approaches (requests - distinct_jobs) / requests" );
      ]
  in
  let oc = open_out "BENCH_server.json" in
  output_string oc (Ir.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote BENCH_server.json@.";
  if report.Server.Load.r_ok <> report.Server.Load.r_requests then
    failwith
      (Fmt.str "server bench: %d of %d requests did not return ok"
         (report.Server.Load.r_requests - report.Server.Load.r_ok)
         report.Server.Load.r_requests);
  if hit_rate < 0.9 then
    failwith
      (Fmt.str "server bench: cache hit-rate %.2f below the 0.90 floor"
         hit_rate)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment kernel       *)
(* ------------------------------------------------------------------ *)

let micro () =
  banner "Micro-benchmarks (Bechamel)" "one staged kernel per experiment";
  let open Bechamel in
  let squeezenet =
    List.find
      (fun s -> s.Workloads.Models.sp_name = "squeezenet")
      Workloads.Models.paper_models
  in
  let passes =
    match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
    | Ok ps -> ps
    | Error e -> failwith (Ir.Diag.to_string e)
  in
  let tests =
    [
      Test.make ~name:"table1/pass-manager(squeezenet)"
        (Staged.stage (fun () ->
             let md = Workloads.Models.build squeezenet in
             ignore (Passes.Pass.run_pipeline ctx passes md)));
      (let script = Transform.From_pipeline.script_of_pipeline passes in
       Test.make ~name:"table1/transform(squeezenet)"
         (Staged.stage (fun () ->
              let md = Workloads.Models.build squeezenet in
              Transform.Schedule.clear_cache ();
              ignore (Transform.Schedule.run ctx ~script ~payload:md))));
      Test.make ~name:"table2/static-checker"
        (Staged.stage (fun () ->
             ignore
               (Transform.Conditions.check_passes
                  ~initial:Experiments.Table2.initial_opset
                  ~final:Experiments.Table2.final_opset
                  (List.map Passes.Pass.lookup_exn
                     Workloads.Subview_kernel.naive_pipeline))));
      Test.make ~name:"cs3/pattern-probe(llm)"
        (Staged.stage (fun () ->
             ignore
               (Experiments.Cs3.probe ctx (Dialects.Shlo_patterns.names ()))));
      Test.make ~name:"cs4/split+tile+to_library"
        (Staged.stage (fun () ->
             let md =
               Workloads.Matmul.build_module ~m:Experiments.Cs4.m
                 ~n:Experiments.Cs4.n ~k:Experiments.Cs4.k ()
             in
             ignore
               (Transform.Schedule.run ctx
                  ~script:(Experiments.Cs4.microkernel_script ())
                  ~payload:md)));
      Test.make ~name:"cs5/one-evaluation(32^3)"
        (Staged.stage (fun () ->
             let md =
               Workloads.Matmul.build_module ~order:Workloads.Matmul.Ikj ~m:32
                 ~n:32 ~k:32 ()
             in
             ignore (Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m:32 ~n:32 ~k:32 md)));
      Test.make ~name:"s34/introspect+ad"
        (Staged.stage (fun () -> ignore (Experiments.S34.run ctx)));
    ]
    @ (let lowered, patterns = greedy_setup () in
       let frozen = Ir.Frozen_patterns.freeze patterns in
       [
         Test.make ~name:"greedy/worklist(squeezenet-lowered)"
           (Staged.stage (fun () ->
                let md = Ir.Ircore.clone_op lowered in
                ignore
                  (Ir.Greedy.apply ~config:Dialects.Dutil.greedy_config ctx
                     ~patterns:frozen md)));
       ])
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
      in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ e ] -> Fmt.pr "  %-40s %14.1f ns/run@." name e
          | _ -> Fmt.pr "  %-40s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_micro = List.mem "--no-micro" args in
  let args = List.filter (fun a -> a <> "--no-micro") args in
  (* --profile=FILE profiles the whole bench run into Chrome trace-event
     JSON (the sections' pipeline/greedy/interpreter spans) *)
  let profile_prefix = "--profile=" in
  let profile_path =
    List.find_map
      (fun a ->
        if
          String.length a > String.length profile_prefix
          && String.sub a 0 (String.length profile_prefix) = profile_prefix
        then
          Some
            (String.sub a (String.length profile_prefix)
               (String.length a - String.length profile_prefix))
        else None)
      args
  in
  let args =
    List.filter
      (fun a ->
        String.length a < String.length profile_prefix
        || String.sub a 0 (String.length profile_prefix) <> profile_prefix)
      args
  in
  (* --jobs=N configures the global pool (0 = auto); the parallel section
     sweeps degrees itself and restores this setting afterwards *)
  let jobs_prefix = "--jobs=" in
  List.iter
    (fun a ->
      if
        String.length a > String.length jobs_prefix
        && String.sub a 0 (String.length jobs_prefix) = jobs_prefix
      then
        match
          int_of_string_opt
            (String.sub a (String.length jobs_prefix)
               (String.length a - String.length jobs_prefix))
        with
        | Some 0 -> Ir.Pool.set_jobs (Ir.Pool.default_jobs ())
        | Some n when n >= 1 -> Ir.Pool.set_jobs n
        | _ -> failwith (Fmt.str "invalid %s" a))
    args;
  let args =
    List.filter
      (fun a ->
        String.length a < String.length jobs_prefix
        || String.sub a 0 (String.length jobs_prefix) <> jobs_prefix)
      args
  in
  let want s = args = [] || List.mem s args in
  Fmt.pr "OCaml Transform-dialect reproduction - benchmark harness@.";
  Fmt.pr "(simulated machine: %.1f GHz, L1 %dK, L2 %dK; see DESIGN.md)@."
    Interp.Machine.default_config.Interp.Machine.freq_ghz
    (Interp.Machine.default_config.Interp.Machine.l1_size / 1024)
    (Interp.Machine.default_config.Interp.Machine.l2_size / 1024);
  let run_sections () =
    let t1_rows = ref None in
    if want "table1" then t1_rows := Some (table1 ());
    if want "fig6" then
      fig6
        (match !t1_rows with
        | Some rows -> rows
        | None -> Experiments.Table1.run ~reps:3 ctx);
    if want "table2" then table2 ();
    if want "cs3" then cs3 ();
    if want "cs4" then cs4 ();
    if want "cs5" then cs5 ();
    if want "cs5-structured" then cs5s ();
    if want "s34" then s34 ();
    if want "ablations" then ablations ();
    if want "profiler" then profiler ();
    if want "action" then action_bench ();
    if want "checkpoint" then checkpoint ();
    if want "schedule" then schedule_bench ();
    if want "parallel" then parallel_bench ();
    if want "server" then server_bench ();
    if (not no_micro) && (args = [] || List.mem "micro" args) then micro ()
  in
  (match profile_path with
  | None -> run_sections ()
  | Some path ->
    let p = Ir.Profiler.create () in
    Ir.Profiler.with_profiler p run_sections;
    Ir.Profiler.write p ~path;
    Fmt.pr "wrote %s (%d spans)@." path (Ir.Profiler.span_count p));
  Fmt.pr "@.done.@."
