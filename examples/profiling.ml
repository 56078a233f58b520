(** Profiling a schedule: the observability layer end to end.

    1. Lowers the squeezenet model to the canonicalize input (the Table-1
       TOSA pipeline with its trailing cleanup stripped), then profiles a
       [canonicalize,cse] run — writing Chrome trace-event JSON that
       Perfetto (ui.perfetto.dev) or [chrome://tracing] renders as a flame
       graph: pipeline → pass → greedy driver, with worklist-size counter
       samples.
    2. Prints the global statistics registry the run populated (greedy
       match attempts, worklist pushes, folds, ...).
    3. Collects optimization remarks from the Case-Study-4 microkernel
       script over two parsed matmul payloads: libxsmm accepts the 24x16x8
       nest ([Passed]) and declines the 96x16x8 one ([Missed]) — both
       remarks carry the payload's source location from the [loc(...)]
       attribute in the .mlir file.

    The same data is available from the CLI:
      otd_opt _artifacts/squeezenet_lowered.mlir -p canonicalize,cse \
        --profile=profile.json --stats --remarks=all

    Run from the repository root: dune exec examples/profiling.exe *)

open Ir

let ctx = Transform.Register.full_context ()

let parse_pipeline str =
  match Passes.Pass.parse_pipeline str with
  | Ok ps -> ps
  | Error e -> failwith (Diag.to_string e)

(* squeezenet lowered to the exact IR the canonicalize pass runs on *)
let squeezenet_lowered () =
  let spec =
    List.find
      (fun s -> s.Workloads.Models.sp_name = "squeezenet")
      Workloads.Models.paper_models
  in
  let prefix =
    parse_pipeline Workloads.Models.tosa_pipeline_str
    |> List.filter (fun p ->
           p.Passes.Pass.name <> "canonicalize" && p.Passes.Pass.name <> "cse")
  in
  let md = Workloads.Models.build spec in
  (match Passes.Pass.run_pipeline ctx prefix md with
  | Ok () -> ()
  | Error e -> failwith (Diag.to_string e));
  md

(* the Case-Study-4 shape: try the microkernel, fall back to leaving the
   loops alone when the library has no matching kernel *)
let remarks_script () =
  Transform.Build.script (fun rw root ->
      let loop =
        Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root
      in
      Transform.Build.alternatives rw
        [
          (fun brw -> Transform.Build.to_library brw ~library:"libxsmm" loop);
          (fun _ -> ());
        ])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_payload path =
  match Parser.parse_module (read_file path) with
  | Ok m -> m
  | Error e -> failwith (Fmt.str "%s: parse error: %s" path e)

let () =
  (* --- 1. profile canonicalize,cse on lowered squeezenet ------------- *)
  let md = squeezenet_lowered () in
  (* bulky artifacts go under the gitignored _artifacts/ *)
  (try Sys.mkdir "_artifacts" 0o755 with Sys_error _ -> ());
  let mlir_path = Filename.concat "_artifacts" "squeezenet_lowered.mlir" in
  let oc = open_out mlir_path in
  output_string oc (Printer.op_to_string md);
  output_string oc "\n";
  close_out oc;
  let p = Profiler.create () in
  Profiler.with_profiler p (fun () ->
      match
        Passes.Pass.run_pipeline ctx (parse_pipeline "canonicalize,cse") md
      with
      | Ok () -> ()
      | Error e -> failwith (Diag.to_string e));
  let profile_path =
    Filename.concat "_artifacts" "squeezenet_canonicalize_profile.json"
  in
  Profiler.write p ~path:profile_path;
  Fmt.pr "=== profile: canonicalize,cse on lowered squeezenet ===@.";
  Fmt.pr "wrote %s (%d spans, max depth %d) — load it at ui.perfetto.dev@."
    profile_path (Profiler.span_count p) (Profiler.max_depth p);
  Fmt.pr "payload written to %s; the CLI equivalent is:@." mlir_path;
  Fmt.pr
    "  otd_opt %s -p canonicalize,cse --profile=%s --stats --remarks=all@.@."
    mlir_path profile_path;

  (* --- 2. optimization remarks from the microkernel script ----------- *)
  let actions = Action.create () in
  Action.with_context actions (fun () ->
      List.iter
        (fun path ->
          let payload = parse_payload path in
          match
            Transform.Schedule.run ctx ~script:(remarks_script ()) ~payload
          with
          | Ok _ -> ()
          | Error e -> failwith (Transform.Terror.to_string e))
        [
          "examples/scripts/payload_matmul.mlir";
          "examples/scripts/payload_matmul_large.mlir";
        ]);
  Fmt.pr "=== optimization remarks (otd_opt --remarks=all) ===@.";
  List.iter (fun r -> Fmt.pr "%a@." Remark.pp r) (Action.remarks actions);
  Fmt.pr
    "@.the microkernel's decline is a silenceable error the alternatives op \
     suppressed — visible above as the [missed] remark and in the \
     transform/silenceable_suppressed statistic below.@.@.";

  (* --- 3. the statistics both runs populated ------------------------- *)
  Fmt.pr "=== global statistics registry (otd_opt --stats) ===@.";
  Fmt.pr "%a@." Stats.pp ()
