(* Tests for the observability layer: the trace-event profiler (span
   nesting, balance, monotonic timestamps, Chrome JSON export), the global
   statistics registry (greedy-driver migration, reset), and the
   optimization-remarks engine (payload locations, filtering). *)

open Ir
open Testutil

let payload_path name =
  Filename.concat ".."
    (Filename.concat "examples" (Filename.concat "scripts" name))

let event_ts = function
  | Profiler.Begin { b_ts; _ } -> b_ts
  | Profiler.End { e_ts } -> e_ts
  | Profiler.Counter { c_ts; _ } -> c_ts

let begin_names p =
  List.filter_map
    (function Profiler.Begin { b_name; _ } -> Some b_name | _ -> None)
    (Profiler.events p)

(* ---------------- spans ---------------- *)

let test_nesting_and_balance () =
  let p = Profiler.create () in
  Profiler.with_profiler p (fun () ->
      Profiler.span "outer" (fun () ->
          Profiler.span "inner-1" (fun () -> ());
          Profiler.span "inner-2" (fun () ->
              Profiler.span "leaf" (fun () -> ()))));
  check cb "balanced" true (Profiler.balanced p);
  check ci "span count" 4 (Profiler.span_count p);
  check ci "max depth" 3 (Profiler.max_depth p);
  check
    Alcotest.(list string)
    "begin order" [ "outer"; "inner-1"; "inner-2"; "leaf" ] (begin_names p);
  (* depth never goes negative and ends at zero *)
  let final_depth =
    List.fold_left
      (fun d e ->
        let d' =
          match e with
          | Profiler.Begin _ -> d + 1
          | Profiler.End _ -> d - 1
          | Profiler.Counter _ -> d
        in
        check cb "depth non-negative" true (d' >= 0);
        d')
      0 (Profiler.events p)
  in
  check ci "stream closes all spans" 0 final_depth

let test_exception_safety () =
  let p = Profiler.create () in
  (try
     Profiler.with_profiler p (fun () ->
         Profiler.span "outer" (fun () ->
             Profiler.span "boom" (fun () -> failwith "boom")))
   with Failure _ -> ());
  check cb "balanced after exception" true (Profiler.balanced p);
  check ci "both spans closed" 2 (Profiler.span_count p);
  check cb "no ambient profiler leaks" false (Profiler.profiling ())

let test_disabled_noop () =
  check cb "no ambient profiler" false (Profiler.profiling ());
  let r = Profiler.span "ignored" (fun () -> 41 + 1) in
  check ci "span is transparent" 42 r;
  Profiler.counter "ignored" 1.0

let test_monotonic_timestamps () =
  let p = Profiler.create () in
  Profiler.with_profiler p (fun () ->
      for i = 1 to 50 do
        Profiler.span "tick" (fun () ->
            Profiler.counter "i" (float_of_int i))
      done);
  let rec go prev = function
    | [] -> ()
    | e :: rest ->
      let t = event_ts e in
      check cb "timestamps monotonic" true (t >= prev);
      check cb "timestamps non-negative" true (t >= 0.0);
      go t rest
  in
  go 0.0 (Profiler.events p)

(* ---------------- Chrome trace-event JSON ---------------- *)

let test_trace_event_json () =
  let p = Profiler.create () in
  Profiler.with_profiler p (fun () ->
      Profiler.span ~cat:"pass"
        ~args:[ ("n", Profiler.Aint 3); ("tag", Profiler.Astr "x") ]
        "root"
        (fun () ->
          Profiler.counter "worklist" 7.0;
          Profiler.span "child" (fun () -> ())));
  (* serialize, then parse back with the repository's own JSON parser *)
  let text = Json.to_string (Profiler.to_json p) in
  match Json.parse text with
  | Error e -> Alcotest.failf "profile JSON does not parse back: %s" e
  | Ok j ->
    let events =
      match Json.member "traceEvents" j with
      | Some l -> Option.get (Json.to_list l)
      | None -> Alcotest.fail "no traceEvents array"
    in
    check ci "event count" (2 + 2 + 1) (List.length events);
    let phases =
      List.filter_map
        (fun e -> Option.bind (Json.member "ph" e) Json.to_string_opt)
        events
    in
    check
      Alcotest.(list string)
      "phases" [ "B"; "C"; "B"; "E"; "E" ] phases;
    List.iter
      (fun e ->
        check cb "every event has ts" true (Json.member "ts" e <> None);
        check cb "every event has pid" true (Json.member "pid" e <> None);
        check cb "every event has tid" true (Json.member "tid" e <> None))
      events;
    (match events with
    | root :: _ ->
      check cb "begin has name" true
        (Json.member "name" root = Some (Json.String "root"));
      check cb "begin has cat" true
        (Json.member "cat" root = Some (Json.String "pass"));
      let args = Option.get (Json.member "args" root) in
      check cb "args preserved" true
        (Json.member "n" args = Some (Json.Int 3)
        && Json.member "tag" args = Some (Json.String "x"))
    | [] -> Alcotest.fail "no events");
    let other = Option.get (Json.member "otherData" j) in
    check cb "span metadata" true
      (Json.member "spans" other = Some (Json.Int 2))

let test_write_profile () =
  let p = Profiler.create () in
  Profiler.with_profiler p (fun () -> Profiler.span "s" (fun () -> ()));
  let path = Filename.temp_file "otd_profile" ".json" in
  Profiler.write p ~path;
  let parsed = Json.parse (read_file path) in
  Sys.remove path;
  check cb "written file parses" true (Result.is_ok parsed)

(* ---------------- real pipelines and the interpreter ---------------- *)

let test_pipeline_spans () =
  let md = parse_file (payload_path "payload_matmul.mlir") in
  let p = Profiler.create () in
  Profiler.with_profiler p (fun () ->
      match run_pipeline [ "canonicalize"; "cse" ] md with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
  check cb "balanced" true (Profiler.balanced p);
  let names = begin_names p in
  let has n = List.mem n names in
  check cb "pipeline span" true (has "pipeline");
  check cb "canonicalize span" true (has "canonicalize");
  check cb "cse span" true (has "cse");
  check cb "greedy driver span" true (has "greedy.apply");
  (* pipeline > pass > greedy driver *)
  check cb "nested at least 3 deep" true (Profiler.max_depth p >= 3)

let test_interp_spans () =
  let md = parse_file (payload_path "payload_matmul.mlir") in
  let script =
    Transform.Build.script (fun rw root ->
        let loop =
          Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root
        in
        ignore (Transform.Build.loop_tile rw ~sizes:[ 8 ] loop))
  in
  let p = Profiler.create () in
  Profiler.with_profiler p (fun () -> ignore (apply_ok script md));
  check cb "balanced" true (Profiler.balanced p);
  let names = begin_names p in
  check cb "interpreter op spans" true
    (List.mem "transform.match_op" names
    && List.mem "transform.loop_tile" names)

(* ---------------- statistics registry ---------------- *)

let test_greedy_stats () =
  Stats.reset ();
  let md = parse_file (payload_path "payload_matmul.mlir") in
  run_pass "canonicalize" md;
  let v name =
    match Stats.find_counter ~component:"greedy" name with
    | Some c -> Stats.value c
    | None -> Alcotest.failf "greedy/%s not registered" name
  in
  check cb "invocations recorded" true (v "invocations" >= 1);
  check cb "match attempts recorded" true (v "match_attempts" > 0);
  check cb "worklist pushes recorded" true (v "worklist_pushes" > 0);
  let attempts_before = v "match_attempts" in
  run_pass "canonicalize" md;
  check cb "stats accumulate across runs" true
    (v "match_attempts" >= attempts_before);
  Stats.reset ();
  check ci "reset zeroes counters" 0 (v "match_attempts");
  check ci "reset zeroes invocations" 0 (v "invocations")

let test_conversion_stats () =
  Stats.reset ();
  let md = parse_file (payload_path "payload_matmul.mlir") in
  run_pass "convert-scf-to-cf" md;
  let converted () =
    match Stats.find_counter ~component:"conversions" "ops_converted" with
    | None -> Alcotest.fail "conversions/ops_converted not registered"
    | Some c -> Stats.value c
  in
  check cb "conversions counted" true (converted () > 0);
  (* the TOSA passes count through the same driver: one per shape op *)
  let md = parse_file (payload_path "payload_squeezenet.mlir") in
  let shape_ops = count "tosa.concat" md in
  check cb "payload has shape ops" true (shape_ops > 0);
  Stats.reset ();
  run_pass "tosa-to-tensor" md;
  check ci "one count per shape op" shape_ops (converted ())

let test_stats_rendering () =
  Stats.reset ();
  let md = parse_file (payload_path "payload_matmul.mlir") in
  run_pass "canonicalize" md;
  let table = Fmt.str "%a" Stats.pp () in
  check cb "table header" true (contains table "component");
  check cb "greedy rows present" true (contains table "match_attempts");
  let j = Stats.to_json () in
  (match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "stats JSON does not parse back: %s" e
  | Ok _ -> ());
  let entries = Option.get (Json.to_list j) in
  check cb "non-empty" true (entries <> []);
  List.iter
    (fun e ->
      check cb "entry has component" true (Json.member "component" e <> None);
      check cb "entry has name" true (Json.member "name" e <> None);
      check cb "entry has kind" true (Json.member "kind" e <> None))
    entries;
  let is_hist e = Json.member "kind" e = Some (Json.String "histogram") in
  check cb "iterations histogram present" true (List.exists is_hist entries)

(* ---------------- optimization remarks ---------------- *)

(* the Case-Study-4 shape: microkernel with a do-nothing fallback *)
let microkernel_script () =
  Transform.Build.script (fun rw root ->
      let loop =
        Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root
      in
      Transform.Build.alternatives rw
        [
          (fun brw -> Transform.Build.to_library brw ~library:"libxsmm" loop);
          (fun _ -> ());
        ])

let test_remarks_passed_and_missed () =
  let run name =
    let md = parse_file (payload_path name) in
    let (), remarks =
      with_captured_remarks (fun () ->
          ignore (apply_ok (microkernel_script ()) md))
    in
    remarks
  in
  (* 24x16x8 fits the microkernel: Passed, located at the payload loop *)
  (match run "payload_matmul.mlir" with
  | [ r ] ->
    check cb "passed kind" true (r.Remark.r_kind = Remark.Passed);
    check Alcotest.string "passed pass name" "loop-to-library" r.Remark.r_pass;
    check cb "passed has payload loc" true (r.Remark.r_loc <> Loc.Unknown);
    check cb "passed loc names the file" true
      (contains (Loc.to_string r.Remark.r_loc) "payload_matmul.mlir")
  | rs -> Alcotest.failf "expected one remark, got %d" (List.length rs));
  (* 96x16x8 exceeds the kernel table: Missed, still located *)
  match run "payload_matmul_large.mlir" with
  | [ r ] ->
    check cb "missed kind" true (r.Remark.r_kind = Remark.Missed);
    check cb "missed has payload loc" true (r.Remark.r_loc <> Loc.Unknown);
    check cb "missed loc names the file" true
      (contains (Loc.to_string r.Remark.r_loc) "payload_matmul_large.mlir");
    check cb "missed says why" true (contains r.Remark.r_message "no kernel")
  | rs -> Alcotest.failf "expected one remark, got %d" (List.length rs)

let test_tile_remark () =
  let md = parse_file (payload_path "payload_matmul.mlir") in
  let script =
    Transform.Build.script (fun rw root ->
        let loop =
          Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root
        in
        ignore (Transform.Build.loop_tile rw ~sizes:[ 8; 8 ] loop))
  in
  let (), remarks =
    with_captured_remarks (fun () -> ignore (apply_ok script md))
  in
  match List.filter (fun r -> r.Remark.r_pass = "loop-tile") remarks with
  | [ r ] ->
    check cb "tile passed" true (r.Remark.r_kind = Remark.Passed);
    check cb "tile loc" true (r.Remark.r_loc <> Loc.Unknown);
    check cb "tile sizes arg" true
      (List.mem_assoc "tile_sizes" r.Remark.r_args)
  | rs -> Alcotest.failf "expected one loop-tile remark, got %d" (List.length rs)

let test_remark_filtering () =
  (match Remark.kinds_of_string "passed,missed" with
  | Ok ks ->
    check cb "two kinds" true (ks = [ Remark.Passed; Remark.Missed ])
  | Error e -> Alcotest.fail e);
  (match Remark.kinds_of_string "all" with
  | Ok ks -> check ci "all = three kinds" 3 (List.length ks)
  | Error e -> Alcotest.fail e);
  (match Remark.kinds_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus kind accepted"
  | Error _ -> ());
  let mk kind pass msg = Remark.make kind ~pass "%s" msg in
  let rs =
    [
      mk Remark.Passed "loop-tile" "tiled";
      mk Remark.Missed "loop-to-library" "libxsmm has no kernel for 96x16x8";
      mk Remark.Analysis "matcher" "found 3 candidates";
    ]
  in
  check ci "kind filter" 1
    (List.length (Remark.filter ~kinds:[ Remark.Missed ] rs));
  check ci "regex filter on message" 1
    (List.length (Remark.filter ~filter:(Str.regexp "libxsmm") rs));
  check ci "regex filter on pass name" 2
    (List.length (Remark.filter ~filter:(Str.regexp "^loop-") rs));
  check ci "kind+regex compose" 0
    (List.length
       (Remark.filter ~kinds:[ Remark.Passed ] ~filter:(Str.regexp "libxsmm")
          rs))

let test_handler_scoping () =
  check cb "disabled outside" false (Action.enabled ());
  (* emission without an action context is a silent no-op *)
  Action.remark (Remark.passed ~pass:"nobody" "dropped");
  let (), remarks =
    with_captured_remarks (fun () ->
        check cb "enabled inside" true (Action.enabled ());
        Action.remark (Remark.passed ~pass:"x" "one"))
  in
  check ci "captured exactly the inner emission" 1 (List.length remarks);
  check cb "disabled restored" false (Action.enabled ())

let () =
  Alcotest.run "profiler"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting-and-balance" `Quick
            test_nesting_and_balance;
          Alcotest.test_case "exception-safety" `Quick test_exception_safety;
          Alcotest.test_case "disabled-noop" `Quick test_disabled_noop;
          Alcotest.test_case "monotonic-timestamps" `Quick
            test_monotonic_timestamps;
        ] );
      ( "json",
        [
          Alcotest.test_case "trace-event-roundtrip" `Quick
            test_trace_event_json;
          Alcotest.test_case "write-profile" `Quick test_write_profile;
        ] );
      ( "integration",
        [
          Alcotest.test_case "pipeline-spans" `Quick test_pipeline_spans;
          Alcotest.test_case "interpreter-spans" `Quick test_interp_spans;
        ] );
      ( "stats",
        [
          Alcotest.test_case "greedy-accumulation" `Quick test_greedy_stats;
          Alcotest.test_case "conversion-counts" `Quick test_conversion_stats;
          Alcotest.test_case "rendering" `Quick test_stats_rendering;
        ] );
      ( "remarks",
        [
          Alcotest.test_case "passed-and-missed-with-locs" `Quick
            test_remarks_passed_and_missed;
          Alcotest.test_case "tile-remark" `Quick test_tile_remark;
          Alcotest.test_case "filtering" `Quick test_remark_filtering;
          Alcotest.test_case "handler-scoping" `Quick test_handler_scoping;
        ] );
    ]
