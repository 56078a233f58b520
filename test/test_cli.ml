(* End-to-end tests of the otd-opt executable: the observability flags
   (--timing --print-ir-after-all --trace --diagnostics=json) produce a
   parseable JSON report, and a crash reproducer written on pass failure
   reproduces the same failure when fed back in. *)

open Ir

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string

(* tests run from _build/default/test *)
let otd_opt = Filename.concat ".." (Filename.concat "bin" "otd_opt.exe")

let payload =
  Filename.concat ".."
    (Filename.concat "examples" (Filename.concat "scripts" "payload_matmul.mlir"))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Run [otd_opt args], returning (exit code, stdout, stderr). *)
let run_otd_opt args =
  let out = Filename.temp_file "otd_out" ".txt" in
  let err = Filename.temp_file "otd_err" ".txt" in
  let cmd =
    Fmt.str "%s %s > %s 2> %s" (Filename.quote otd_opt)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let member_exn key j =
  match Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "JSON report lacks key %S" key

let test_json_report () =
  let code, stdout, stderr =
    run_otd_opt
      [
        payload; "-p"; "canonicalize,cse"; "--timing"; "--print-ir-after-all";
        "--trace"; "--diagnostics=json";
      ]
  in
  check Alcotest.int "exit code" 0 code;
  match Json.parse (String.trim stdout) with
  | Error e -> Alcotest.failf "stdout is not valid JSON: %s\n%s" e stderr
  | Ok j ->
    check cb "success" true (Json.member "success" j = Some (Json.Bool true));
    check cb "diagnostics list" true
      (Option.is_some (Json.to_list (member_exn "diagnostics" j)));
    (* trace reports engine activity: the greedy driver runs per pass *)
    let trace = Option.get (Json.to_list (member_exn "trace" j)) in
    let greedy_events =
      List.filter
        (fun e -> Json.member "kind" e = Some (Json.String "greedy"))
        trace
    in
    check cb "trace greedy events" true (greedy_events <> []);
    (* timing is a list of roots; the first spans the pipeline with one
       child per pass *)
    let timing =
      match Json.to_list (member_exn "timing" j) with
      | Some (root :: _) -> root
      | _ -> Alcotest.fail "timing is not a non-empty list"
    in
    check cs "timing root" "pipeline"
      (Option.get (Option.bind (Json.member "name" timing) Json.to_string_opt));
    check Alcotest.int "timing children" 2
      (List.length (Option.get (Json.to_list (member_exn "children" timing))));
    (* --print-ir-after-all in JSON mode captures per-pass IR snapshots *)
    let ir_after = Option.get (Json.to_list (member_exn "ir_after" j)) in
    check Alcotest.int "one snapshot per pass" 2 (List.length ir_after);
    (* the final module rides along and still parses as IR *)
    let output =
      Option.get (Json.to_string_opt (member_exn "output" j))
    in
    (match Ir.Parser.parse_module output with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "output IR does not parse: %s" e);
    ignore (member_exn "op_count_deltas" j)

let test_json_failure_report () =
  let code, stdout, _ =
    run_otd_opt
      [
        payload; "-p";
        "finalize-memref-to-llvm,reconcile-unrealized-casts";
        "--diagnostics=json";
      ]
  in
  check cb "nonzero exit" true (code <> 0);
  match Json.parse (String.trim stdout) with
  | Error e -> Alcotest.failf "stdout is not valid JSON: %s" e
  | Ok j ->
    check cb "success false" true
      (Json.member "success" j = Some (Json.Bool false));
    check cb "null output on failure" true
      (Json.member "output" j = Some Json.Null);
    let diags = Option.get (Json.to_list (member_exn "diagnostics" j)) in
    check cb "error diagnostic present" true
      (List.exists
         (fun d ->
           Json.member "severity" d = Some (Json.String "error")
           && (match Json.member "message" d with
              | Some (Json.String m) -> contains m "failed to legalize"
              | _ -> false))
         diags)

let test_reproducer_roundtrip () =
  let repro = Filename.temp_file "otd_repro" ".mlir" in
  (* induce a failure: leftover unrealized casts are illegal *)
  let code, _, stderr =
    run_otd_opt
      [
        payload; "-p";
        "finalize-memref-to-llvm,reconcile-unrealized-casts";
        "--reproducer"; repro;
      ]
  in
  check cb "pipeline fails" true (code <> 0);
  check cb "failure diagnosed" true
    (contains stderr "failed to legalize");
  let content = read_file repro in
  check cb "reproducer names pass" true
    (contains content "// failing pass: reconcile-unrealized-casts");
  check cb "reproducer embeds pipeline" true
    (contains content
       "// configuration: --pass-pipeline=reconcile-unrealized-casts");
  (* feeding the reproducer back (no -p) replays the embedded pipeline and
     reproduces the same failure *)
  let code', _, stderr' = run_otd_opt [ repro ] in
  Sys.remove repro;
  check cb "replay fails too" true (code' <> 0);
  check cb "replay announced" true
    (contains stderr' "replaying reproducer pipeline");
  check cb "same failure reproduced" true
    (contains stderr' "failed to legalize")

let test_text_reports_on_stderr () =
  let code, stdout, stderr =
    run_otd_opt [ payload; "-p"; "canonicalize"; "--timing"; "--trace" ]
  in
  check Alcotest.int "exit code" 0 code;
  (* stdout carries only the module *)
  check cb "module on stdout" true (contains stdout "builtin.module");
  check cb "no report on stdout" false (contains stdout "// trace:");
  (* reports go to stderr *)
  check cb "timing header" true (contains stderr "// -----// timing //----- //");
  check cb "trace lines" true (contains stderr "// trace: greedy on")

(* an action context is installed only when something reads it: a plain
   run journals nothing, a traced run journals every action *)
let test_plain_run_no_journal () =
  let executed extra =
    let code, _, stderr =
      run_otd_opt ([ payload; "-p"; "canonicalize"; "--stats=json" ] @ extra)
    in
    check Alcotest.int "exit code" 0 code;
    let row r =
      Json.member "component" r = Some (Json.String "action")
      && Json.member "name" r = Some (Json.String "executed")
    in
    (* the text trace precedes the stats JSON on stderr *)
    let json =
      String.split_on_char '\n' stderr
      |> List.filter (fun l -> not (String.starts_with ~prefix:"//" l))
      |> String.concat "\n"
    in
    match Json.parse (String.trim json) with
    | Ok (Json.List rows) -> (
      match List.find_opt row rows with
      | Some r -> Option.bind (Json.member "value" r) Json.to_int_opt
      | None -> None)
    | _ -> Alcotest.failf "stderr is not a JSON stats list:\n%s" stderr
  in
  check Alcotest.(option int) "plain run: action/executed" (Some 0)
    (executed []);
  check cb "traced run: action/executed > 0" true
    (match executed [ "--trace" ] with Some n -> n > 0 | None -> false)

(* ---------------- otd-check: the static script check ---------------- *)

let otd_check = Filename.concat ".." (Filename.concat "bin" "otd_check.exe")

let script_file =
  Filename.concat ".."
    (Filename.concat "examples"
       (Filename.concat "scripts" "tile_and_unroll.mlir"))

(* a transform run's timing shows the schedule spans *)
let test_transform_timing () =
  let code, _, stderr =
    run_otd_opt [ payload; "--transform"; script_file; "--timing" ]
  in
  check Alcotest.int "exit code" 0 code;
  check cb "timing header" true (contains stderr "// -----// timing //----- //");
  check cb "schedule.apply node" true (contains stderr "%)  schedule.apply")

(* examples/scripts/tosa_pipeline.mlir is the E1 script of the TOSA
   pipeline, printed; the committed text must not drift from the
   generator, and on the text path it lowers a model exactly as the pass
   manager does *)
let tosa_script =
  Filename.concat ".."
    (Filename.concat "examples"
       (Filename.concat "scripts" "tosa_pipeline.mlir"))

let test_tosa_pipeline_script () =
  ignore (Transform.Register.full_context ());
  let generated =
    match
      Transform.From_pipeline.script_of_pipeline_str
        Workloads.Models.tosa_pipeline_str
    with
    | Ok script -> Printer.op_to_string script ^ "\n"
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  check cs "committed script = generated script" generated
    (read_file tosa_script);
  let squeezenet =
    Filename.concat ".."
      (Filename.concat "examples"
         (Filename.concat "scripts" "payload_squeezenet.mlir"))
  in
  let pm_code, pm_out, _ =
    run_otd_opt [ squeezenet; "-p"; Workloads.Models.tosa_pipeline_str ]
  in
  let tf_code, tf_out, _ =
    run_otd_opt [ squeezenet; "--transform"; tosa_script ]
  in
  check Alcotest.int "pass manager exit code" 0 pm_code;
  check Alcotest.int "transform exit code" 0 tf_code;
  check cs "transform output = pass-manager output" pm_out tf_out

let run_otd_check args =
  let out = Filename.temp_file "otd_check_out" ".txt" in
  let err = Filename.temp_file "otd_check_err" ".txt" in
  let cmd =
    Fmt.str "%s %s > %s 2> %s" (Filename.quote otd_check)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let test_check_flow_schedule_agree () =
  (* sound shipped script: accepted, with the schedule section *)
  let code, stdout, _ =
    run_otd_check
      [ script_file; "--schedule"; "--final"; "{func.*, scf.*, arith.*, memref.*}" ]
  in
  check Alcotest.int "exit code" 0 code;
  check cb "verdict" true (contains stdout "OK");
  check cb "schedule section" true (contains stdout "instructions:")

let test_check_flow_schedule_agree_degraded () =
  (* a use-after-consume script: the check rejects it *)
  let bad = Filename.temp_file "otd_check_uac" ".mlir" in
  let oc = open_out bad in
  output_string oc
    {|"builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %loop = "transform.match_op"(%root) {op_name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiled:2 = "transform.loop_tile"(%loop) {tile_sizes = array<i64: 4>} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.annotate"(%loop) {name = "late"} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
|};
  close_out oc;
  let code, stdout, _ = run_otd_check [ bad ] in
  Sys.remove bad;
  check cb "nonzero exit" true (code <> 0);
  check cb "use after consume reported" true
    (contains stdout "use after consume")

let () =
  Alcotest.run "cli"
    [
      ( "otd-opt",
        [
          Alcotest.test_case "json-report" `Quick test_json_report;
          Alcotest.test_case "json-failure" `Quick test_json_failure_report;
          Alcotest.test_case "reproducer-roundtrip" `Quick
            test_reproducer_roundtrip;
          Alcotest.test_case "text-reports" `Quick test_text_reports_on_stderr;
          Alcotest.test_case "transform-timing" `Quick test_transform_timing;
          Alcotest.test_case "plain-run-no-journal" `Quick
            test_plain_run_no_journal;
          Alcotest.test_case "tosa-pipeline-script" `Quick
            test_tosa_pipeline_script;
        ] );
      ( "otd-check",
        [
          Alcotest.test_case "flow-schedule-agree" `Quick
            test_check_flow_schedule_agree;
          Alcotest.test_case "flow-schedule-agree-degraded" `Quick
            test_check_flow_schedule_agree_degraded;
        ] );
    ]
