(** Experiment E1/E2 (Table 1, Figure 6): compile-time overhead of driving
    the TOSA→Linalg pipeline through a transform script instead of the
    pass manager, on five synthetic ML models with the paper's op counts.
    The script's schedule cache is cleared before every run, so each run
    pays script processing (fingerprint and compilation) too. *)


type row = {
  model : string;
  num_ops : int;
  pm_seconds : float;  (** pass-manager compile time *)
  tf_seconds : float;  (** transform-script compile time *)
  overhead_pct : float;
  identical_ir : bool;
      (** both paths produced byte-identical final IR — the "identical
          compilation flows" premise of the comparison *)
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

(** Compile [spec]'s model via the pass manager and via an equivalent
    transform script; interleaved repetitions with a major GC collection
    before each timed compile, medians reported. *)
let run_model ?(reps = 5) ctx spec =
  let passes =
    match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
    | Ok ps -> ps
    | Error e -> failwith (Ir.Diag.to_string e)
  in
  let pm_times = ref [] and tf_times = ref [] in
  let num_ops = ref 0 in
  let compile_pm () =
    let md = Workloads.Models.build spec in
    num_ops := Workloads.Models.count_ops md;
    Gc.major ();
    let (), t =
      time (fun () ->
          match Passes.Pass.run_pipeline ctx passes md with
          | Ok () -> ()
          | Error d -> failwith (Ir.Diag.to_string d))
    in
    (t, md)
  in
  let compile_tf () =
    let md = Workloads.Models.build spec in
    let script = Transform.From_pipeline.script_of_pipeline passes in
    Gc.major ();
    Transform.Schedule.clear_cache ();
    let (), t =
      time (fun () ->
          match Transform.Schedule.run ctx ~script ~payload:md with
          | Ok _ -> ()
          | Error e ->
            failwith
              (Fmt.str "transform compile of %s failed: %s"
                 spec.Workloads.Models.sp_name
                 (Transform.Terror.to_string e)))
    in
    (t, md)
  in
  (* warm-up both paths once; also check that the two compilation flows are
     genuinely identical by comparing the produced IR *)
  let warm_pm, pm_ir = compile_pm () in
  let _, tf_ir = compile_tf () in
  let identical_ir =
    String.equal (Ir.Printer.op_to_string pm_ir) (Ir.Printer.op_to_string tf_ir)
  in
  (* sub-millisecond compiles are noise-dominated: batch several compiles
     per timing sample so each sample spans a few milliseconds *)
  let batch = max 1 (int_of_float (ceil (3e-3 /. Float.max 1e-5 warm_pm))) in
  let sample compile =
    let t = ref 0.0 in
    for _ = 1 to batch do
      t := !t +. fst (compile ())
    done;
    !t /. float_of_int batch
  in
  (* paired design: the overhead is the median of per-pair ratios, so
     low-frequency machine drift (which hits both paths of a pair almost
     equally) cancels out of the comparison *)
  let ratios = ref [] in
  for _ = 1 to reps do
    let pm = sample compile_pm in
    let tf = sample compile_tf in
    pm_times := pm :: !pm_times;
    tf_times := tf :: !tf_times;
    ratios := (tf -. pm) /. pm :: !ratios
  done;
  let pm = median !pm_times and tf = median !tf_times in
  {
    model = spec.Workloads.Models.sp_name;
    num_ops = !num_ops;
    pm_seconds = pm;
    tf_seconds = tf;
    overhead_pct = median !ratios *. 100.0;
    identical_ir;
  }

let run ?reps ctx =
  List.map (run_model ?reps ctx) Workloads.Models.paper_models

let pp_row fmt r =
  Fmt.pf fmt "%-20s %6d %12.1f %12.1f %8.1f%% %s" r.model r.num_ops
    (r.pm_seconds *. 1000.) (r.tf_seconds *. 1000.) r.overhead_pct
    (if r.identical_ir then "yes" else "NO")

let pp_table fmt rows =
  Fmt.pf fmt "%-20s %6s %12s %12s %9s %s@." "Model" "#Ops" "MLIR (ms)"
    "Transf (ms)" "Overhead" "same IR";
  List.iter (fun r -> Fmt.pf fmt "%a@." pp_row r) rows

(** ASCII bar chart of the same data (Figure 6). *)
let pp_figure fmt rows =
  let max_t =
    List.fold_left
      (fun acc r -> Float.max acc (Float.max r.pm_seconds r.tf_seconds))
      0.0 rows
  in
  let bar t =
    let w = int_of_float (Float.round (t /. max_t *. 50.0)) in
    String.make (max 1 w) '#'
  in
  List.iter
    (fun r ->
      Fmt.pf fmt "%-20s pass-manager %7.1fms %s@." r.model
        (r.pm_seconds *. 1000.) (bar r.pm_seconds);
      Fmt.pf fmt "%-20s transform    %7.1fms %s@." "" (r.tf_seconds *. 1000.)
        (bar r.tf_seconds))
    rows
