(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4) on this repository's substrates, and records the
   profiler, action, checkpoint, schedule, parallel and text-path
   measurements as BENCH_*.json files of one row schema.

   Usage:  dune exec bench/main.exe            (all sections)
           dune exec bench/main.exe -- table1  (one section) *)

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
(* BENCH_*.json: one schema for every measurement section              *)
(* ------------------------------------------------------------------ *)

(** One measurement: [metric] of [workload] at [layer], in [unit]. *)
let row ~workload ~layer metric value unit =
  Ir.Json.Obj
    [
      ("workload", Ir.Json.String workload);
      ("layer", Ir.Json.String layer);
      ("metric", Ir.Json.String metric);
      ("value", Ir.Json.Float value);
      ("unit", Ir.Json.String unit);
    ]

(** HEAD of the checkout the bench runs in, ["unknown"] outside one. *)
let commit () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some hash -> hash
  | _ -> "unknown"

(** Write [rows] to [BENCH_<bench>.json], one row per line, stamped with
    the commit and the core count they were measured at. *)
let write_bench bench rows =
  let path = Fmt.str "BENCH_%s.json" bench in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"bench\":%s,\"commit\":%s,\"cores\":%d,\"rows\":[\n%s\n]}\n"
        (Ir.Json.to_line (Ir.Json.String bench))
        (Ir.Json.to_line (Ir.Json.String (commit ())))
        (Domain.recommended_domain_count ())
        (String.concat ",\n" (List.map Ir.Json.to_line rows)));
  Fmt.pr "wrote %s@." path

(** Wall-clock seconds of one call of [f]. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(** Mean nanoseconds per call over [n] calls of [f]. *)
let ns_per_call n f =
  wall (fun () ->
      for _ = 1 to n do
        f ()
      done)
  /. float_of_int n *. 1e9

(** Median wall-clock seconds of [reps] runs of [run (setup ())] after
    [warmup] untimed ones, and the input of the last timed run. [setup]
    stays outside the timed region. *)
let median_wall ~warmup ~reps setup run =
  for _ = 1 to warmup do
    run (setup ())
  done;
  let last = ref None in
  let times =
    Array.init reps (fun _ ->
        let x = setup () in
        let t = wall (fun () -> run x) in
        last := Some x;
        t)
  in
  Array.sort compare times;
  (times.(reps / 2), Option.get !last)

(* ------------------------------------------------------------------ *)
(* Profiler overhead: span cost with and without an ambient profiler    *)
(* ------------------------------------------------------------------ *)

let profiler () =
  banner "E10 - Profiler: per-span overhead, enabled vs disabled"
    "the ambient no-op path (one ref read) lets instrumentation stay on";
  let sink = ref 0 in
  let body () = incr sink in
  (* warm up the minor heap / branch predictors *)
  ignore (ns_per_call 10_000 body);
  let n_disabled = 2_000_000 and n_enabled = 200_000 in
  let ns_baseline = ns_per_call n_disabled body in
  (* disabled: no ambient profiler installed, so Profiler.span is one ref
     read plus a closure call (explicitly uninstall in case the whole bench
     run is itself being profiled with --profile=FILE) *)
  let ns_disabled =
    Ir.Profiler.with_disabled (fun () ->
        ns_per_call n_disabled (fun () -> Ir.Profiler.span "bench.noop" body))
  in
  (* enabled: every span records a begin and an end event *)
  let p = Ir.Profiler.create () in
  let ns_enabled =
    Ir.Profiler.with_profiler p (fun () ->
        ns_per_call n_enabled (fun () -> Ir.Profiler.span "bench.noop" body))
  in
  assert (Ir.Profiler.balanced p);
  assert (Ir.Profiler.span_count p = n_enabled);
  let ns_counter =
    Ir.Profiler.with_profiler p (fun () ->
        ns_per_call n_enabled (fun () -> Ir.Profiler.counter "bench.count" 1.0))
  in
  Fmt.pr "per-span cost (body: one int incr):@.";
  Fmt.pr "  %-36s %10.1f ns@." "bare body" ns_baseline;
  Fmt.pr "  %-36s %10.1f ns@." "span, profiler disabled" ns_disabled;
  Fmt.pr "  %-36s %10.1f ns@." "span, profiler enabled" ns_enabled;
  Fmt.pr "  %-36s %10.1f ns@." "counter sample, enabled" ns_counter;
  Fmt.pr "  disabled overhead: %.1f ns/span; enabled records %d events@."
    (ns_disabled -. ns_baseline)
    (2 * n_enabled);
  let r workload = row ~workload ~layer:"profiler" in
  write_bench "profiler"
    [
      r "bare-body" "ns_per_call" ns_baseline "ns";
      r "span/disabled" "ns_per_call" ns_disabled "ns";
      r "span/enabled" "ns_per_call" ns_enabled "ns";
      r "counter/enabled" "ns_per_call" ns_counter "ns";
      r "span/disabled" "overhead_ns" (ns_disabled -. ns_baseline) "ns";
    ]

(* ------------------------------------------------------------------ *)
(* Action framework: disabled-site cost, journal cost, macro overhead   *)
(* ------------------------------------------------------------------ *)

let action_bench () =
  banner "E13 - Action framework: interception overhead"
    "disabled = one domain-local read per site; journal = one entry/action";
  let sink = ref 0 in
  let body () = incr sink in
  ignore (ns_per_call 10_000 body);
  let n_disabled = 2_000_000 and n_enabled = 200_000 in
  let ns_baseline = ns_per_call n_disabled body in
  (* disabled: the hot-site shape — one Action.active () read, then the
     direct call (explicitly uninstall any ambient context first). Every
     instrumented site (pass, pattern, fold, dce, transform dispatch) pays
     this read before calling through. *)
  let root = Dialects.Builtin.create_module () in
  let site () =
    match Ir.Action.active () with
    | None -> body ()
    | Some a ->
      Ir.Action.run_on a ~tag:"bench" ~desc:"noop" ~loc:Ir.Loc.unknown ~root
        ~skipped:() body
  in
  let ns_disabled =
    Ir.Action.with_disabled (fun () -> ns_per_call n_disabled site)
  in
  (* journal-only context: every site allocates and records one entry, no
     handlers, still parallel-safe via capture/replay *)
  let t = Ir.Action.create () in
  let ns_journal =
    Ir.Action.with_context t (fun () -> ns_per_call n_enabled site)
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
    | Ok () -> ()
    | Error d -> failwith (Ir.Diag.to_string d)
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
  let macro = spec.Workloads.Models.sp_name ^ "/canonicalize" in
  let r workload = row ~workload ~layer:"action" in
  write_bench "action"
    [
      r "bare-body" "ns_per_call" ns_baseline "ns";
      r "site/disabled" "ns_per_call" ns_disabled "ns";
      r "site/journal" "ns_per_call" ns_journal "ns";
      r "site/disabled" "overhead_ns" overhead_ns "ns";
      row ~workload:macro ~layer:"pass" "wall_ms" (t_off *. 1000.) "ms";
      r (macro ^ "+journal") "wall_ms" (t_on *. 1000.) "ms";
      r (macro ^ "+journal") "actions" (float_of_int actions) "count";
    ]

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
  (* take = deep clone + op/value side tables; restore = reference-drop +
     region splice onto the live root; both linear in payload size *)
  let measure ~k =
    let md = payload ~k in
    let pre = Ir.Printer.op_to_string md in
    let ops = ref 0 in
    Ir.Ircore.walk (fun _ -> incr ops) md;
    let take_s = ref 0.0 and restore_s = ref 0.0 in
    for _ = 1 to reps do
      let cp = ref None in
      take_s := !take_s +. wall (fun () -> cp := Some (Ir.Checkpoint.take md));
      let cp = Option.get !cp in
      (* mutate, then roll back: restore pays for the splice *)
      Ir.Ircore.set_attr md "bench.mutated" Ir.Attr.Unit;
      restore_s := !restore_s +. wall (fun () -> Ir.Checkpoint.restore cp)
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
  write_bench "checkpoint"
    (List.concat_map
       (fun (k, (ops, take_us, restore_us)) ->
         let r =
           row ~workload:(Fmt.str "matmul-unroll/k=%d" k) ~layer:"checkpoint"
         in
         [
           r "payload_ops" (float_of_int ops) "count";
           r "take_us" take_us "us";
           r "restore_us" restore_us "us";
           r "take_us_per_op" (take_us /. float_of_int ops) "us";
         ])
       rows)

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
    let t, md =
      median_wall ~warmup:3 ~reps
        (fun () -> Ir.Ircore.clone_op payload)
        (fun md ->
          match apply md with
          | Ok (_ : int) -> ()
          | Error e -> failwith (Transform.Terror.to_string e))
    in
    (t, Ir.Printer.op_to_string md)
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
        if not (String.equal cold_ir cached_ir) then
          failwith
            (Fmt.str "schedule bench: %s output IR differs between cold and \
                      cached runs" name);
        (* facade path: re-presenting the script pays one fingerprint walk
           plus a cache probe before the same compiled application *)
        let facade_t, _ =
          median (fun md -> Transform.Schedule.run ctx ~script ~payload:md)
            payload
        in
        let speedup = if cached_t > 0.0 then cold_t /. cached_t else 0.0 in
        (name, cold_t, cached_t, facade_t, speedup))
      Workloads.Models.paper_models
  in
  let instrs = Transform.Schedule.instr_count schedule
  and slots = Transform.Schedule.slot_count schedule in
  Fmt.pr "script: %d instructions, %d handle slots, fingerprint %s; median \
          of %d reps@."
    instrs slots
    (Ir.Fingerprint.to_hex (Transform.Schedule.fingerprint schedule))
    reps;
  Fmt.pr "  %-20s %12s %12s %12s %9s@." "model" "cold (ms)" "cached (ms)"
    "facade (ms)" "speedup";
  List.iter
    (fun (name, ct, at, ft, speedup) ->
      Fmt.pr "  %-20s %12.3f %12.3f %12.3f %8.2fx@." name (ct *. 1000.)
        (at *. 1000.) (ft *. 1000.) speedup)
    rows;
  let script_row =
    row ~workload:(Fmt.str "nav-script/k=%d" k) ~layer:"schedule"
  in
  write_bench "compiled"
    (script_row "instructions" (float_of_int instrs) "count"
    :: script_row "handle_slots" (float_of_int slots) "count"
    :: List.concat_map
         (fun (name, ct, at, ft, speedup) ->
           let r = row ~workload:name ~layer:"schedule" in
           [
             r "cold_ms" (ct *. 1000.) "ms";
             r "cached_ms" (at *. 1000.) "ms";
             r "facade_ms" (ft *. 1000.) "ms";
             r "speedup" speedup "ratio";
           ])
         rows);
  let ge2x =
    List.length (List.filter (fun (_, _, _, _, s) -> s >= 2.0) rows)
  in
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
    is byte-compared against the sequential run: the speedup curve is
    only admissible where they agree, so a difference fails the run. On a
    single-core host the curve is flat (the pool adds fan-out overhead, no
    parallelism). *)
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
    (* one warmup: pools spawn lazily on the first fan-out *)
    let t, md =
      median_wall ~warmup:1 ~reps
        (fun () -> Workloads.Models.build ~funcs spec)
        (fun md ->
          match Passes.Pass.run_pipeline ctx passes md with
          | Ok () -> ()
          | Error e -> failwith (Ir.Diag.to_string e))
    in
    (t, Ir.Printer.op_to_string md)
  in
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
                  if j = 1 then (1, seq_t, 1.0)
                  else begin
                    let t, ir = measure spec j in
                    if not (String.equal seq_ir ir) then
                      failwith
                        (Fmt.str "parallel bench: %s output IR at jobs=%d \
                                  differs from sequential" name j);
                    (j, t, if t > 0.0 then seq_t /. t else 0.0)
                  end)
                degrees
            in
            (name, points))
          specs)
  in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr
    "lowering pipeline (%s)@.%d functions per model, median of %d reps, %d \
     core%s available@."
    Workloads.Models.tosa_pipeline_str funcs reps cores
    (if cores = 1 then "" else "s");
  List.iter
    (fun (name, points) ->
      Fmt.pr "  %s:@." name;
      List.iter
        (fun (j, t, speedup) ->
          Fmt.pr "    jobs=%d %10.1f ms   speedup %5.2fx@." j (t *. 1000.)
            speedup)
        points)
    rows;
  write_bench "parallel"
    (List.concat_map
       (fun (name, points) ->
         List.concat_map
           (fun (j, t, speedup) ->
             let r =
               row ~workload:(Fmt.str "%s/jobs=%d" name j) ~layer:"pass"
             in
             [ r "wall_ms" (t *. 1000.) "ms"; r "speedup" speedup "ratio" ])
           points)
       rows)

(* ------------------------------------------------------------------ *)
(* Text path: parse and print cost of one module                        *)
(* ------------------------------------------------------------------ *)

(** A flat [func.func] body of [ops] arith ops, each combining the
    previous result with a block argument or a hoisted constant. *)
let flat_block_text ~ops =
  let b = Buffer.create (ops * 64) in
  Buffer.add_string b
    "\"builtin.module\"() ({\n  \"func.func\"() ({\n  ^bb0(%a0: i64, %a1: \
     i64):\n    %k = \"arith.constant\"() {value = 3 : i64} : () -> i64\n";
  let operands = [| "%a0"; "%a1"; "%k" |]
  and names = [| "addi"; "subi"; "xori" |] in
  let prev = ref "%a0" in
  for i = 1 to ops - 1 do
    Printf.bprintf b "    %%v%d = \"arith.%s\"(%s, %s) : (i64, i64) -> i64\n" i
      names.(i mod 3) !prev operands.(i * 7 mod 3);
    prev := Printf.sprintf "%%v%d" i
  done;
  Printf.bprintf b
    "    \"func.return\"(%s) : (i64) -> ()\n  }) {sym_name = \"flat\", \
     function_type = (i64, i64) -> i64} : () -> ()\n}) : () -> ()\n"
    !prev;
  Buffer.contents b

let parse_exn text =
  match Ir.Parser.parse_module text with
  | Ok md -> md
  | Error e -> failwith ("text bench: " ^ e)

(** Bytes [f ()] allocates on this domain, minor and major heap both. A
    minor collection on each side makes the GC counters exact. *)
let alloc_bytes f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  *. float_of_int (Sys.word_size / 8)

(** Per-stage cost of one module along the job path: parse time and parse
    allocation per input byte, fingerprint, verify, canonicalize, cse and
    print time, the bytes each stage after the parse allocates per op, the
    heap words the parsed module keeps per op, and the median time of a
    whole job run back to back, for flat blocks and the lowered Table-1
    models; for the models also the bytes the TOSA lowering that produced
    them allocates per output op. The printed form of each parse must read
    back to itself, so a parser that drops or reorders anything fails the
    run. *)
let text_bench () =
  banner "E14 - Text path: per-stage cost of one module"
    "per-parse type sharing, an allocation-free lexer, registration \
     resolved once per op";
  let lowered name =
    let spec =
      List.find
        (fun s -> s.Workloads.Models.sp_name = name)
        Workloads.Models.paper_models
    in
    let md = Workloads.Models.build spec in
    let passes =
      match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
      | Ok ps -> ps
      | Error e -> failwith (Ir.Diag.to_string e)
    in
    (* one job, so every op the lowering builds is built on this domain *)
    let saved_jobs = Ir.Pool.jobs () in
    Ir.Pool.set_jobs 1;
    let bytes =
      Fun.protect
        ~finally:(fun () -> Ir.Pool.set_jobs saved_jobs)
        (fun () ->
          alloc_bytes (fun () ->
              match Passes.Pass.run_pipeline ctx passes md with
              | Ok () -> ()
              | Error e -> failwith (Ir.Diag.to_string e)))
    in
    let ops = ref 0 in
    Ir.Ircore.walk (fun _ -> incr ops) md;
    let name = name ^ "/lowered" in
    ((name, Ir.Printer.op_to_string md), (name, bytes /. float_of_int !ops))
  in
  let lowered = [ lowered "gpt2"; lowered "mobilebert" ] in
  let inputs =
    ("flat-10k", flat_block_text ~ops:10_000) :: List.map fst lowered
  in
  let tosa_lower_alloc = List.map snd lowered in
  let run_pass name md =
    match (Passes.Pass.lookup_exn name).Passes.Pass.run ctx md with
    | Ok () -> ()
    | Error d -> failwith ("text bench: " ^ Ir.Diag.to_string d)
  in
  let verify md =
    match Ir.Verifier.verify ctx md with
    | Ok () -> ()
    | Error _ -> failwith "text bench: module does not verify"
  in
  (* each stage: an untimed set-up that returns the timed call *)
  let stages text md =
    let on_md run () () = run md in
    [
      ("parse", fun () () -> ignore (parse_exn text));
      ("fingerprint", on_md (fun md -> ignore (Ir.Fingerprint.op md)));
      ("verify", on_md verify);
      ( "canonicalize",
        fun () ->
          let md = parse_exn text in
          fun () -> run_pass "canonicalize" md );
      ( "cse",
        fun () ->
          let md = parse_exn text in
          run_pass "canonicalize" md;
          fun () -> run_pass "cse" md );
      ("print", on_md (fun md -> ignore (Ir.Printer.op_to_string md)));
    ]
  in
  (* best of 15 runs: other tenants of a shared box only ever add time.
     The runs go in 3 rounds over all inputs, so no input is timed only
     while the process warms up, and each starts from a collected heap,
     so the garbage of the runs before it does not bill it for major GC
     work. *)
  let rounds = 3 and runs = 5 in
  let best_ms setup =
    let best = ref infinity in
    for _ = 1 to runs do
      let run = setup () in
      Gc.full_major ();
      best := Float.min !best (wall run)
    done;
    !best *. 1000.
  in
  let prepare (name, text) =
    let md = parse_exn text in
    let printed = Ir.Printer.op_to_string md in
    if not (String.equal printed (Ir.Printer.op_to_string (parse_exn printed)))
    then failwith (Fmt.str "text bench: %s is no print fixed point" name);
    let ops = ref 0 in
    Ir.Ircore.walk (fun _ -> incr ops) md;
    let alloc =
      List.map
        (fun (stage, setup) -> (stage, alloc_bytes (setup ())))
        (stages text md)
    in
    (name, text, md, float_of_int !ops, alloc)
  in
  let prepared = List.map prepare inputs in
  (* the heap words a parsed module keeps: its ops, values, use nodes,
     links, names, and the types and attributes it references *)
  let live_words =
    List.map
      (fun (name, _, md, _, _) ->
        (name, float_of_int (Obj.reachable_words (Obj.repr md))))
      prepared
  in
  (* whole jobs back to back, as a compile job runs them: no collection
     between runs, so each job pays the GC work its garbage paces *)
  let job text () =
    let md = parse_exn text in
    ignore (Ir.Fingerprint.op md);
    verify md;
    run_pass "canonicalize" md;
    run_pass "cse" md;
    verify md;
    ignore (Ir.Printer.op_to_string md)
  in
  let jobs = 15 in
  let job_ms =
    List.map
      (fun (name, text, _, _, _) ->
        job text ();
        let times = Array.init jobs (fun _ -> wall (job text) *. 1000.) in
        Array.sort Float.compare times;
        (name, times.(jobs / 2)))
      prepared
  in
  let best = Hashtbl.create 32 in
  for _ = 1 to rounds do
    List.iter
      (fun (name, text, md, _, _) ->
        List.iter
          (fun (stage, setup) ->
            let t = best_ms setup in
            match Hashtbl.find_opt best (name, stage) with
            | Some t' when t' <= t -> ()
            | _ -> Hashtbl.replace best (name, stage) t)
          (stages text md))
      prepared
  done;
  let middle = [ "fingerprint"; "verify"; "canonicalize"; "cse" ] in
  Fmt.pr "best of %d runs, ms; allocation of one run, bytes per input byte \
          (parse) or per op; live IR words per op; median of %d jobs, ms@."
    (rounds * runs) jobs;
  Fmt.pr "  %-20s %8s %8s %10s" "input" "KB" "ops" "parse B/B";
  List.iter (fun st -> Fmt.pr " %12s" st) ("parse" :: middle @ [ "print" ]);
  Fmt.pr "@.";
  List.iter
    (fun (name, text, _, ops, alloc) ->
      Fmt.pr "  %-20s %8.1f %8.0f %10.1f" name
        (float_of_int (String.length text) /. 1024.)
        ops
        (List.assoc "parse" alloc /. float_of_int (String.length text));
      List.iter
        (fun st -> Fmt.pr " %12.2f" (Hashtbl.find best (name, st)))
        ("parse" :: middle @ [ "print" ]);
      Fmt.pr "@.";
      Fmt.pr "  %-20s %8s %8s %10s %12s" "" "" "" "" "B/op:";
      List.iter
        (fun st -> Fmt.pr " %12.1f" (List.assoc st alloc /. ops))
        (middle @ [ "print" ]);
      Fmt.pr "@.";
      Fmt.pr "  %-20s live IR %.1f words/op, job %.2f ms@." ""
        (List.assoc name live_words /. ops)
        (List.assoc name job_ms);
      Option.iter
        (Fmt.pr "  %-20s TOSA lowering %.1f B per output op@." "")
        (List.assoc_opt name tosa_lower_alloc))
    prepared;
  let layer = function
    | "parse" -> "parser"
    | "print" -> "printer"
    | "verify" -> "verifier"
    | "fingerprint" -> "fingerprint"
    | _ -> "pass"
  in
  write_bench "text"
    (List.concat_map
       (fun (name, text, _, ops, alloc) ->
         let r = row ~workload:name in
         let bytes = float_of_int (String.length text) in
         [
           r ~layer:"parser" "input_bytes" bytes "bytes";
           r ~layer:"parser" "parse_ms" (Hashtbl.find best (name, "parse")) "ms";
           r ~layer:"parser" "alloc_bytes_per_input_byte"
             (List.assoc "parse" alloc /. bytes)
             "ratio";
         ]
         @ List.concat_map
             (fun st ->
               [
                 r ~layer:(layer st) (st ^ "_ms") (Hashtbl.find best (name, st))
                   "ms";
                 r ~layer:(layer st)
                   (st ^ "_alloc_bytes_per_op")
                   (List.assoc st alloc /. ops)
                   "bytes";
               ])
             middle
         @ [
             r ~layer:"printer" "print_ms" (Hashtbl.find best (name, "print"))
               "ms";
             r ~layer:"printer" "print_alloc_bytes_per_op"
               (List.assoc "print" alloc /. ops)
               "bytes";
             r ~layer:"parser" "ir_live_words_per_op"
               (List.assoc name live_words /. ops)
               "words";
             r ~layer:"job" "job_ms" (List.assoc name job_ms) "ms";
           ]
         @
         match List.assoc_opt name tosa_lower_alloc with
         | Some b ->
           [ r ~layer:"pass" "tosa_lower_alloc_bytes_per_op" b "bytes" ]
         | None -> [])
       prepared)

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
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
    if want "text" then text_bench ()
  in
  (match profile_path with
  | None -> run_sections ()
  | Some path ->
    let p = Ir.Profiler.create () in
    Ir.Profiler.with_profiler p run_sections;
    Ir.Profiler.write p ~path;
    Fmt.pr "wrote %s (%d spans)@." path (Ir.Profiler.span_count p));
  Fmt.pr "@.done.@."
