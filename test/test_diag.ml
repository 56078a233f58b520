(* Structured diagnostics, pass instrumentation and execution tracing:
   handler capture, note attachment, JSON round-trips, hook ordering,
   op-count deltas, the crash reproducer, pipeline-parse accumulation and
   the three engines' trace events. *)

open Ir

let ctx = Transform.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* diagnostic construction and rendering                               *)
(* ------------------------------------------------------------------ *)

let test_construction () =
  let d = Diag.error ~loc:(Loc.file ~line:3 ~col:7 "f.mlir") "bad op '%s'" "x.y" in
  check cs "message" "bad op 'x.y'" (Diag.message d);
  check cb "is_error" true (Diag.is_error d);
  check cb "not error" false (Diag.is_error (Diag.warning "w"));
  let d = Diag.add_note d (Diag.note "see definition %d" 1) in
  let d = Diag.add_note d (Diag.note "second") in
  check ci "two notes" 2 (List.length (Diag.notes d));
  let s = Diag.to_string d in
  check cb "headline" true (contains s "error: bad op 'x.y'");
  check cb "loc rendered" true (contains s "f.mlir");
  check cb "note indented" true (contains s "  note: see definition 1")

let test_with_loc () =
  let l1 = Loc.file ~line:1 ~col:1 "a.mlir" and l2 = Loc.file ~line:2 ~col:2 "b.mlir" in
  let d = Diag.error "m" in
  check cb "unknown replaced" true (Diag.loc (Diag.with_loc_if_unknown d l1) = l1);
  let d = Diag.with_loc d l2 in
  check cb "known kept" true (Diag.loc (Diag.with_loc_if_unknown d l1) = l2)

let test_json_roundtrip () =
  let d =
    Diag.error
      ~loc:(Loc.file ~line:3 ~col:7 "f.mlir")
      ~notes:[ Diag.note "while doing \"thing\"" ]
      "payload size %d" 4
  in
  let text = Json.to_string (Diag.to_json d) in
  match Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok j ->
    check cs "severity" "error"
      (Option.get (Option.bind (Json.member "severity" j) Json.to_string_opt));
    check cs "message" "payload size 4"
      (Option.get (Option.bind (Json.member "message" j) Json.to_string_opt));
    let notes = Option.get (Option.bind (Json.member "notes" j) Json.to_list) in
    check ci "one note" 1 (List.length notes);
    check cs "note message escaped+parsed back" "while doing \"thing\""
      (Option.get
         (Option.bind (Json.member "message" (List.hd notes))
            Json.to_string_opt))

let test_json_parser_rejects () =
  (match Json.parse "{\"a\": }" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ());
  match Json.parse "[1,2] trailing" with
  | Ok _ -> Alcotest.fail "expected trailing error"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* handler engine                                                      *)
(* ------------------------------------------------------------------ *)

let test_capture () =
  let eng = Diag.engine () in
  let result, diags =
    Diag.capture eng (fun () ->
        Diag.emit eng (Diag.error "first");
        Diag.emit eng (Diag.warning "second");
        42)
  in
  check ci "result" 42 result;
  check ci "both captured" 2 (List.length diags);
  check cs "order" "first" (Diag.message (List.hd diags))

let test_innermost_handler_wins () =
  let eng = Diag.engine () in
  let outer = ref [] and inner = ref [] in
  Diag.with_handler eng
    (fun d -> outer := d :: !outer)
    (fun () ->
      Diag.emit eng (Diag.remark "to outer");
      Diag.with_handler eng
        (fun d -> inner := d :: !inner)
        (fun () -> Diag.emit eng (Diag.remark "to inner"));
      Diag.emit eng (Diag.remark "to outer again"));
  check ci "inner got one" 1 (List.length !inner);
  check ci "outer got two" 2 (List.length !outer)

let test_context_capture () =
  let (), diags =
    Context.capture_diags ctx (fun () ->
        Context.emit_diag ctx (Diag.error "via context"))
  in
  check ci "captured" 1 (List.length diags);
  check cs "message" "via context" (Diag.message (List.hd diags))

let test_verifier_emits_diags () =
  (* an unregistered op makes the verifier report a structured error *)
  let md = Dialects.Builtin.create_module () in
  let rw = Dialects.Dutil.rw_at_end (Dialects.Builtin.body_block md) in
  Ir.Rewriter.build0 rw ~operands:[||] "nosuch.op";
  match Verifier.verify ctx md with
  | Ok () -> Alcotest.fail "expected verification failure"
  | Error diags ->
    check cb "at least one" true (diags <> []);
    check cb "all errors" true (List.for_all Diag.is_error diags);
    check cb "names the op" true
      (contains (Diag.to_string (List.hd diags)) "nosuch.op")

(* ------------------------------------------------------------------ *)
(* pass manager: hooks, deltas, reproducer, pipeline parsing           *)
(* ------------------------------------------------------------------ *)

let () =
  Passes.Pass.register
    (Passes.Pass.make ~name:"test-always-fails"
       ~summary:"fails unconditionally (test only)" (fun _ _ ->
         Diag.fail "induced failure"))

let test_hook_ordering () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let events = ref [] in
  let instr =
    Passes.Pass.instrumentation
      ~before_pass:(fun p _ -> events := ("before:" ^ p.Passes.Pass.name) :: !events)
      ~after_pass:(fun p _ -> events := ("after:" ^ p.Passes.Pass.name) :: !events)
      ()
  in
  let passes = List.map Passes.Pass.lookup_exn [ "canonicalize"; "cse" ] in
  (match Passes.Pass.run_pipeline ~instrumentations:[ instr ] ctx passes md with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  check
    Alcotest.(list string)
    "interleaved per pass"
    [ "before:canonicalize"; "after:canonicalize"; "before:cse"; "after:cse" ]
    (List.rev !events)

let test_failure_hook_and_diag () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let seen = ref None in
  let instr =
    Passes.Pass.instrumentation
      ~on_failure:(fun p _ ~remaining d ->
        seen := Some (p.Passes.Pass.name, List.map (fun q -> q.Passes.Pass.name) remaining, d))
      ()
  in
  let passes =
    List.map Passes.Pass.lookup_exn
      [ "canonicalize"; "test-always-fails"; "cse" ]
  in
  match Passes.Pass.run_pipeline ~instrumentations:[ instr ] ctx passes md with
  | Ok () -> Alcotest.fail "expected pipeline failure"
  | Error d ->
    check cs "primary message" "induced failure" (Diag.message d);
    check cb "note names the pass" true
      (List.exists
         (fun n -> contains (Diag.message n) "test-always-fails")
         (Diag.notes d));
    (match !seen with
    | None -> Alcotest.fail "on_failure not called"
    | Some (p, remaining, _) ->
      check cs "failing pass" "test-always-fails" p;
      check
        Alcotest.(list string)
        "remaining = failing pass + unrun suffix"
        [ "test-always-fails"; "cse" ] remaining)

let test_op_count_deltas () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let instr, get = Passes.Pass.op_count_deltas () in
  let passes = [ Passes.Pass.lookup_exn "convert-scf-to-cf" ] in
  (match Passes.Pass.run_pipeline ~instrumentations:[ instr ] ctx passes md with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  match get () with
  | [ (pass, delta) ] ->
    check cs "pass name" "convert-scf-to-cf" pass;
    let d name = List.assoc_opt name delta in
    check cb "scf.for removed" true
      (match d "scf.for" with Some n -> n < 0 | None -> false);
    check cb "cf.cond_br introduced" true
      (match d "cf.cond_br" with Some n -> n > 0 | None -> false)
  | deltas -> Alcotest.failf "expected one entry, got %d" (List.length deltas)

let test_timing_tree () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let passes = List.map Passes.Pass.lookup_exn [ "canonicalize"; "cse" ] in
  let p = Profiler.create () in
  (match
     Profiler.with_profiler p (fun () ->
         Passes.Pass.run_pipeline ctx passes md)
   with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  let roots = Profiler.timing p in
  match roots with
  | [ t ] -> (
    check cs "root" "pipeline" t.Profiler.name;
    (* the greedy driver's spans are not part of the view *)
    check
      Alcotest.(list string)
      "one node per pass"
      [ "canonicalize"; "cse" ]
      (List.map (fun n -> n.Profiler.name) t.Profiler.children);
    check cb "children fit in the root" true
      (List.fold_left (fun acc n -> acc +. n.Profiler.seconds) 0.
         t.Profiler.children
      <= t.Profiler.seconds);
    (* the JSON rendering of the tree must parse back *)
    match Json.parse (Json.to_string (Profiler.timing_to_json roots)) with
    | Ok (Json.List [ root ]) ->
      check cb "root name in JSON" true
        (Json.member "name" root = Some (Json.String "pipeline"))
    | Ok _ -> Alcotest.fail "timing JSON is not a one-root list"
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_reproducer () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let path = Filename.temp_file "otd_repro" ".mlir" in
  let passes =
    List.map Passes.Pass.lookup_exn
      [ "canonicalize"; "test-always-fails"; "cse" ]
  in
  (match
     Passes.Pass.run_pipeline
       ~instrumentations:[ Passes.Pass.reproducer ~path ]
       ctx passes md
   with
  | Ok _ -> Alcotest.fail "expected pipeline failure"
  | Error _ -> ());
  let ic = open_in path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  check cb "names failing pass" true
    (contains content "// failing pass: test-always-fails");
  check cb "carries diagnostic" true
    (contains content "// diagnostic: error: induced failure");
  check cb "replay pipeline is the suffix" true
    (contains content "// configuration: --pass-pipeline=test-always-fails,cse");
  (* the dumped IR (comments skipped by the lexer) must re-parse *)
  match Ir.Parser.parse_module content with
  | Ok m -> check cs "module root" "builtin.module" m.Ircore.op_name
  | Error e -> Alcotest.failf "reproducer does not re-parse: %s" e

(* A budget that runs out inside canonicalize stops the pipeline at the
   boundary before cse. The hooks see that boundary as cse's start: the
   reproducer holds the IR as it stood before cse (canonicalize's partial
   work included) with the pipeline "cse", and cse's op-count delta is
   empty rather than a copy of canonicalize's. *)
let test_budget_stop_hooks () =
  let md =
    match
      Ir.Parser.parse_module
        {|"builtin.module"() ({
  "func.func"() ({
    %0 = "arith.constant"() {value = 1 : i64} : () -> i64
    %1 = "arith.addi"(%0, %0) : (i64, i64) -> i64
    %2 = "arith.addi"(%1, %1) : (i64, i64) -> i64
    %3 = "arith.addi"(%2, %2) : (i64, i64) -> i64
    "func.return"(%3) : (i64) -> ()
  }) {sym_name = "main", function_type = () -> i64} : () -> ()
}) : () -> ()|}
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let path = Filename.temp_file "otd_repro" ".mlir" in
  let deltas, get = Passes.Pass.op_count_deltas () in
  let passes = List.map Passes.Pass.lookup_exn [ "canonicalize"; "cse" ] in
  let budget = Budget.create ~max_rewrites:1 () in
  (match
     Context.with_diag_handler ctx ignore (fun () ->
         Budget.with_budget budget (fun () ->
             Passes.Pass.run_pipeline
               ~instrumentations:[ Passes.Pass.reproducer ~path; deltas ]
               ctx passes md))
   with
  | Ok () -> Alcotest.fail "expected the budget to stop the pipeline"
  | Error d ->
    check cb "stopped before cse" true
      (contains (Diag.message d) "stopped before 'cse'"));
  let content =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  check cb "reproducer names cse" true
    (contains content "// failing pass: cse");
  check cb "reproducer replays cse" true
    (contains content "// configuration: --pass-pipeline=cse\n");
  check cb "reproducer holds the IR before cse" true
    (contains content (Printer.op_to_string md));
  match get () with
  | [ ("canonicalize", canon); ("cse", cse) ] ->
    check cb "canonicalize changed op counts" true (canon <> []);
    check cb "cse changed nothing" true (cse = [])
  | ds -> Alcotest.failf "expected two delta entries, got %d" (List.length ds)

let test_parse_pipeline_accumulates () =
  match Passes.Pass.parse_pipeline "canonicalize,bogus-one, bogus-two,cse" with
  | Ok _ -> Alcotest.fail "expected unknown-pass diagnostic"
  | Error d ->
    check cb "counts both" true
      (contains (Diag.message d) "2 unknown passes");
    check cb "lists names" true
      (contains (Diag.message d) "bogus-one, bogus-two");
    let notes = List.map Diag.message (Diag.notes d) in
    check ci "one note per bad segment" 2 (List.length notes);
    check cb "first position" true
      (List.exists (fun n -> contains n "'bogus-one' at position 13") notes);
    check cb "second position (trim-aware)" true
      (List.exists (fun n -> contains n "'bogus-two' at position 24") notes)

(* ------------------------------------------------------------------ *)
(* trace events from the three engines                                 *)
(* ------------------------------------------------------------------ *)

let test_trace_pass_and_greedy () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let actions = Action.create () in
  let passes = List.map Passes.Pass.lookup_exn [ "canonicalize"; "cse" ] in
  (match
     Action.with_context actions (fun () ->
         Passes.Pass.run_pipeline ctx passes md)
   with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  let events = Action.traces actions in
  check cb "greedy driver reported" true
    (List.exists (function Trace.Greedy _ -> true | _ -> false) events);
  check cb "no context, no recording" false (Action.enabled ());
  match Json.parse (Json.to_string (Trace.to_json events)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_trace_transform_ops () =
  let md = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  let passes = List.map Passes.Pass.lookup_exn [ "canonicalize" ] in
  let script = Transform.From_pipeline.script_of_pipeline passes in
  let actions = Action.create () in
  (match
     Action.with_context actions (fun () ->
         Transform.Schedule.run ctx ~script ~payload:md)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Transform.Terror.to_string e));
  let transforms =
    List.filter_map
      (function
        | Trace.Transform { tr_op; tr_in; tr_out; _ } ->
          Some (tr_op, tr_in, tr_out)
        | _ -> None)
      (Action.traces actions)
  in
  check cb "transform events recorded" true (transforms <> []);
  check cb "apply_registered_pass traced" true
    (List.exists
       (fun (op, _, _) -> op = "transform.apply_registered_pass")
       transforms);
  (* every traced transform op consumed at least one handle payload size *)
  check cb "payload sizes tracked" true
    (List.for_all (fun (_, tr_in, _) -> tr_in <> []) transforms)

let test_terror_carries_diag () =
  (match Transform.Terror.silenceable ~loc:(Loc.file ~line:1 ~col:1 "s.mlir") "m%d" 1 with
  | Stdlib.Error e ->
    check cb "silenceable" true (Transform.Terror.is_silenceable e);
    check cs "message" "m1" (Transform.Terror.message e);
    check cb "loc kept" true (Diag.loc (Transform.Terror.diag e) <> Loc.Unknown)
  | Ok _ -> Alcotest.fail "expected error");
  match Transform.Terror.definite "d" with
  | Stdlib.Error e ->
    check cb "definite" false (Transform.Terror.is_silenceable e);
    check cb "renders" true (contains (Transform.Terror.to_string e) "definite")
  | Ok _ -> Alcotest.fail "expected error"

let () =
  Alcotest.run "diag"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "with-loc" `Quick test_with_loc;
          Alcotest.test_case "json-roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json-rejects" `Quick test_json_parser_rejects;
        ] );
      ( "handlers",
        [
          Alcotest.test_case "capture" `Quick test_capture;
          Alcotest.test_case "innermost-wins" `Quick test_innermost_handler_wins;
          Alcotest.test_case "context-capture" `Quick test_context_capture;
          Alcotest.test_case "verifier-diags" `Quick test_verifier_emits_diags;
        ] );
      ( "pass-manager",
        [
          Alcotest.test_case "hook-ordering" `Quick test_hook_ordering;
          Alcotest.test_case "failure-hook" `Quick test_failure_hook_and_diag;
          Alcotest.test_case "op-count-deltas" `Quick test_op_count_deltas;
          Alcotest.test_case "timing-tree" `Quick test_timing_tree;
          Alcotest.test_case "reproducer" `Quick test_reproducer;
          Alcotest.test_case "budget-stop-hooks" `Quick test_budget_stop_hooks;
          Alcotest.test_case "parse-accumulates" `Quick
            test_parse_pipeline_accumulates;
        ] );
      ( "trace",
        [
          Alcotest.test_case "pass-and-greedy" `Quick test_trace_pass_and_greedy;
          Alcotest.test_case "transform-ops" `Quick test_trace_transform_ops;
          Alcotest.test_case "terror-diag" `Quick test_terror_carries_diag;
        ] );
    ]
