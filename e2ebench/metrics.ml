(** Metric names and the functions that turn a run into them. Every
    workload reports every metric: an untraced run the end-to-end ones, a
    traced run the per-layer ones. A per-layer metric a workload does not
    exercise reads 0. *)

open Common

let end_to_end =
  [
    "job_ms.p50"; "job_ms.p90"; "job_ms.p99"; "jobs_per_s"; "e1_ratio";
    "output_ops"; "peak_heap_mb"; "ok_share"; "setup_s";
  ]

let per_layer =
  [
    "parser.ms"; "parser.mb_per_s"; "printer.ms"; "printer.mb_per_s";
    "fingerprint.ms"; "verifier.input_ms"; "verifier.output_ms";
    "verifier.doubling_ratio"; "pass.pipeline_ms"; "pass.passes_run";
    "greedy.ms"; "greedy.match_attempts"; "greedy.rewrites"; "greedy.folds";
    "greedy.worklist_pushes"; "schedule.compile_ms"; "schedule.apply_ms";
    "schedule.cache_hit_share"; "schedule.fallbacks";
    "checkpoint.ops_captured"; "rcache.hit_share"; "rcache.hit_ms.p50";
    "cell.job_ms.mean"; "engine.overhead_ms"; "pool.tasks";
    "gc.alloc_mb_per_job"; "gc.major_collections"; "trace.overhead_ratio";
  ]

(** Counted metrics: two runs with the same seed must agree exactly. *)
let counted =
  [
    "output_ops"; "pass.passes_run"; "greedy.match_attempts";
    "greedy.rewrites"; "greedy.folds"; "greedy.worklist_pushes";
    "schedule.fallbacks"; "checkpoint.ops_captured";
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

type latency = { p50 : float; p90 : float; p99 : float; per_s : float }

(** Percentiles and throughput of job latencies [samples_ms] completed in
    [seconds]. *)
let latency_of ~samples_ms ~seconds =
  let a = sorted samples_ms in
  {
    p50 = percentile a 0.50;
    p90 = percentile a 0.90;
    p99 = percentile a 0.99;
    per_s = ratio (float_of_int (Array.length a)) seconds;
  }

(** Slices of a run the median and the throughput are medians over. *)
let windows = 6

(** Latency of a run. The median and the throughput are medians over
    [windows] equal slices of its [span] seconds: a stall of the shared
    host during a few seconds moves one slice, not the run's figure. A
    tail percentile comes from all the run's samples when at least 10 of
    them lie beyond it. Otherwise, as for p99 on a run of a few hundred
    jobs, one stalled job would decide it, so it too is the median over
    the slices. [samples] are (completion in seconds since the run
    started, latency in ms); one past [span] counts in the last slice. *)
let windowed_latency ~span samples =
  let width = span /. float_of_int windows in
  let slices = Array.make windows [] in
  List.iter
    (fun (t, ms) ->
      let k = max 0 (min (windows - 1) (int_of_float (t /. width))) in
      slices.(k) <- ms :: slices.(k))
    samples;
  let per =
    List.map
      (fun ms -> latency_of ~samples_ms:ms ~seconds:width)
      (Array.to_list slices)
  in
  let med f =
    median (List.filter (fun x -> not (Float.is_nan x)) (List.map f per))
  in
  let whole = latency_of ~samples_ms:(List.map snd samples) ~seconds:span in
  let tail p f =
    let beyond = (float_of_int (List.length samples) *. (1.0 -. p)) +. 1e-9 in
    if beyond >= 10.0 then f whole else med f
  in
  {
    p50 = med (fun l -> l.p50);
    p90 = tail 0.90 (fun l -> l.p90);
    p99 = tail 0.99 (fun l -> l.p99);
    per_s = med (fun l -> l.per_s);
  }

(** The end-to-end metrics of an untraced run; [ratios] are the
    transform-to-pass-manager times of pairs of jobs. *)
let end_to_end_of ~latency ~attempted ~failed ~ratios ~output_ops ~setup_s =
  [
    metric "job_ms.p50" "ms" latency.p50;
    metric "job_ms.p90" "ms" latency.p90;
    metric "job_ms.p99" "ms" latency.p99;
    metric "jobs_per_s" "1/s" latency.per_s;
    metric "e1_ratio" "ratio" (median ratios);
    metric "output_ops" "ops" (float_of_int output_ops);
    metric "peak_heap_mb" "MB" (peak_heap_mb ());
    metric "ok_share" "ratio"
      (1.0 -. ratio (float_of_int failed) (float_of_int attempted));
    metric "setup_s" "s" setup_s;
  ]

(** The job-path layers, from the spans of [jobs] traced jobs and the
    counter deltas of one round. A layer's time per job is its spans' self
    time; a stage that holds other layers ([pass], [schedule.apply]) is
    timed whole, per call. *)
let job_layers ~spans ~jobs ~parsed_bytes ~printed_bytes ~counts =
  let self name = (find_agg spans name).a_self in
  let per_job name = ratio (self name) (float_of_int jobs) in
  let per_span name =
    let a = find_agg spans name in
    ratio a.a_total (float_of_int a.a_n)
  in
  let mb_per_s bytes name =
    ratio (float_of_int bytes /. 1e6) (self name /. 1000.)
  in
  let c = delta counts in
  [
    metric "parser.ms" "ms" (per_job "parser");
    metric "parser.mb_per_s" "MB/s" (mb_per_s parsed_bytes "parser");
    metric "printer.ms" "ms" (per_job "printer");
    metric "printer.mb_per_s" "MB/s" (mb_per_s printed_bytes "printer");
    metric "fingerprint.ms" "ms" (per_job "fingerprint");
    metric "verifier.input_ms" "ms" (per_job "verifier.input");
    metric "verifier.output_ms" "ms" (per_job "verifier.output");
    metric "pass.pipeline_ms" "ms" (per_span "pass");
    metric "pass.passes_run" "count" (c "pass.passes_run");
    metric "greedy.ms" "ms" (per_job "greedy.apply");
    metric "greedy.match_attempts" "count" (c "greedy.match_attempts");
    metric "greedy.rewrites" "count" (c "greedy.rewrites");
    metric "greedy.folds" "count" (c "greedy.folds");
    metric "greedy.worklist_pushes" "count" (c "greedy.worklist_pushes");
    metric "schedule.compile_ms" "ms" (per_span "schedule.of_script");
    metric "schedule.apply_ms" "ms" (per_span "schedule.apply");
    metric "schedule.cache_hit_share" "ratio"
      (ratio (c "schedule.cache_hits")
         (c "schedule.cache_hits" +. c "schedule.cache_misses"));
    metric "schedule.fallbacks" "count" (c "schedule.fallbacks");
    metric "checkpoint.ops_captured" "count" (c "checkpoint.ops_captured");
  ]

let gc_layers ~alloc_words ~majors ~jobs =
  [
    metric "gc.alloc_mb_per_job" "MB"
      (ratio (words_to_mb alloc_words) (float_of_int jobs));
    metric "gc.major_collections" "1/job"
      (ratio (float_of_int majors) (float_of_int jobs));
  ]

(** Report of a [Rounds] workload. [doubling] lists the inputs at N and 2N
    whose output-verify medians give [verifier.doubling_ratio]. *)
let of_rounds ~traced ~setup_s ~params ?doubling (r : Rounds.result) =
  let metrics =
    if not traced then
      end_to_end_of
        ~latency:(windowed_latency ~span:r.Rounds.r_busy_s r.Rounds.r_untraced)
        ~attempted:r.Rounds.r_attempted
        ~failed:r.Rounds.r_failed ~ratios:r.Rounds.r_ratios
        ~output_ops:r.Rounds.r_round_ops ~setup_s
    else
      let doubling =
        match doubling with
        | None -> 0.0
        | Some (small, large) ->
          let med keys =
            median
              (List.concat_map
                 (fun k ->
                   Option.value ~default:[]
                     (List.assoc_opt k r.Rounds.r_verify_out_ms))
                 keys)
          in
          ratio (med large) (med small)
      in
      job_layers
        ~spans:(self_times r.Rounds.r_profile)
        ~jobs:r.Rounds.r_traced_jobs ~parsed_bytes:r.Rounds.r_parsed_bytes
        ~printed_bytes:r.Rounds.r_printed_bytes ~counts:r.Rounds.r_counts
      @ gc_layers ~alloc_words:r.Rounds.r_alloc_words
          ~majors:r.Rounds.r_major_collections
          ~jobs:(List.length r.Rounds.r_untraced)
      @ [
          metric "verifier.doubling_ratio" "ratio" doubling;
          metric "rcache.hit_share" "ratio" 0.0;
          metric "rcache.hit_ms.p50" "ms" 0.0;
          metric "cell.job_ms.mean" "ms" 0.0;
          metric "engine.overhead_ms" "ms" 0.0;
          metric "pool.tasks" "1/job" 0.0;
          metric "trace.overhead_ratio" "ratio"
            (ratio (median r.Rounds.r_traced_ms)
               (median (List.map snd r.Rounds.r_untraced)));
        ]
  in
  {
    r_attempted = r.Rounds.r_attempted;
    r_failed = r.Rounds.r_failed;
    r_metrics = metrics;
    r_counts =
      ("output_ops", r.Rounds.r_round_ops)
      :: List.filter (fun (k, _) -> List.mem k counted) r.Rounds.r_counts;
    r_params = params @ [ ("jobs", string_of_int r.Rounds.r_attempted) ];
    r_notes = r.Rounds.r_notes;
  }
