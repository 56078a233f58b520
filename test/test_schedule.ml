(* Transform.Schedule: use-after-consume and transactional scripts, the
   cache keyed by Ir.Fingerprint and the fingerprint's roundtrip stability.
   Script outcomes are pinned by test/golden/schedule_outcomes.expected. *)

open Ir
open Testutil
module B = Transform.Build

let cs = Alcotest.string

let counter ?(component = "schedule") name =
  match Stats.find_counter ~component name with
  | Some c -> c
  | None -> Alcotest.failf "no %s/%s counter" component name

(* ---------------- degradation ---------------- *)

let test_consumed_script () =
  (* statically flagged, still compiled: the run stops at the reuse *)
  let script =
    B.script (fun rw root ->
        let loop = B.match_op rw ~name:"scf.for" root in
        ignore (B.loop_tile rw ~sizes:[ 4 ] loop);
        B.loop_unroll rw ~factor:2 loop)
  in
  check cb "statically flagged" true
    (List.exists
       (function Transform.Flowcheck.Use_after_consume _ -> true | _ -> false)
       (Transform.Flowcheck.check script).Transform.Flowcheck.fr_problems);
  let s = Transform.Schedule.of_script ctx script in
  match Transform.Schedule.apply s ~payload:(matmul ()) with
  | Ok _ -> Alcotest.fail "use after consume succeeded"
  | Error e ->
    check cb "consumed-handle error" true
      (contains (Transform.Terror.message e) "(handle consumed)")

let test_fallback_constructs () =
  (* alternatives and failures(suppress) compile to nested bodies; their
     failed parts fall back to the next region or a warning *)
  let split7 brw root = ignore (B.split_handle brw ~n:7 root) in
  let s =
    Transform.Schedule.of_script ctx
      (B.script (fun rw root ->
           B.alternatives rw
             [
               (fun brw -> split7 brw root);
               (fun brw -> B.annotate brw ~name:"b" root);
             ];
           ignore (B.nested_sequence rw ~failure_propagation:"suppress" split7)))
  in
  check ci "instructions, nested included" 5 (Transform.Schedule.instr_count s);
  let suppressed = counter ~component:"transform" "silenceable_suppressed" in
  let before = Stats.value suppressed in
  (match Transform.Schedule.apply s ~payload:(matmul ()) with
  | Ok steps -> check ci "one step per instruction" 5 steps
  | Error e -> Alcotest.failf "apply: %s" (Transform.Terror.to_string e));
  check ci "two failures suppressed" (before + 2) (Stats.value suppressed)

(* The script may be the entry sequence itself; an include then resolves
   to a sibling outside it, whose values need slots too. *)
let test_include_outside_script () =
  let m =
    B.script (fun rw root ->
        let inc = B.include_ rw ~target:"helper" [ root ] ~results:1 in
        B.annotate rw ~name:"test.outer" (Ircore.result inc))
  in
  ignore
    (B.named_sequence m ~name:"helper" ~num_args:1 (fun rw args ->
         let loops = B.match_op rw ~name:"scf.for" (List.hd args) in
         B.annotate rw ~name:"test.inner" loops;
         [ loops ]));
  let entry =
    match Transform.Dispatch.find_entry m with
    | Some e -> e
    | None -> Alcotest.fail "no entry"
  in
  let md = matmul () in
  (match Transform.Schedule.run ctx ~script:entry ~payload:md with
  | Ok steps -> check ci "include, its callee's two steps, annotate" 4 steps
  | Error e -> Alcotest.failf "apply: %s" (Transform.Terror.to_string e));
  check cb "callee result reached the caller" true
    (Symbol.collect md ~f:(fun o -> Ircore.has_attr o "test.outer") <> [])

(* ---------------- cache ---------------- *)

let test_cache_hit_on_reapply () =
  Transform.Schedule.clear_cache ();
  let script =
    B.script (fun rw root ->
        let funcs = B.match_op rw ~name:"func.func" root in
        B.annotate rw ~name:"test.cached" funcs)
  in
  let hits0 = Stats.value (counter "cache_hits") in
  let misses0 = Stats.value (counter "cache_misses") in
  (match Transform.Schedule.run ctx ~script ~payload:(matmul ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first apply: %s" (Transform.Terror.to_string e));
  check ci "first application misses" (misses0 + 1)
    (Stats.value (counter "cache_misses"));
  (match Transform.Schedule.run ctx ~script ~payload:(matmul ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "second apply: %s" (Transform.Terror.to_string e));
  check ci "second application hits" (hits0 + 1)
    (Stats.value (counter "cache_hits"));
  check ci "no second miss" (misses0 + 1) (Stats.value (counter "cache_misses"))

let test_cache_hits_across_reparse () =
  Transform.Schedule.clear_cache ();
  let script =
    B.script (fun rw root ->
        let funcs = B.match_op rw ~name:"func.func" root in
        B.annotate rw ~name:"test.reparsed" funcs)
  in
  ignore (Transform.Schedule.of_script ctx script);
  let hits0 = Stats.value (counter "cache_hits") in
  (* a re-parsed copy is a different object with different ids but the same
     structure: the fingerprint must find the cached schedule *)
  let reparsed =
    match Parser.parse_module (Printer.op_to_string script) with
    | Ok m -> m
    | Error e -> Alcotest.failf "reparse: %s" e
  in
  ignore (Transform.Schedule.of_script ctx reparsed);
  check ci "reparsed script hits the cache" (hits0 + 1)
    (Stats.value (counter "cache_hits"))

(* ---------------- fingerprint ---------------- *)

let test_fingerprint_roundtrip_stable () =
  let stable what m =
    let fp1 = Fingerprint.op m in
    let m2 =
      match Parser.parse_module (Printer.op_to_string m) with
      | Ok m2 -> m2
      | Error e -> Alcotest.failf "%s: reparse: %s" what e
    in
    check cs
      (what ^ ": fingerprint survives parse->print->parse")
      (Fingerprint.to_hex fp1)
      (Fingerprint.to_hex (Fingerprint.op m2))
  in
  let script_asset =
    (* locate the shipped script relative to the dune workspace root *)
    let rec find dir =
      let candidate =
        Filename.concat dir "examples/scripts/tile_and_unroll.mlir"
      in
      if Sys.file_exists candidate then candidate
      else
        let parent = Filename.dirname dir in
        if parent = dir then Alcotest.fail "tile_and_unroll.mlir not found"
        else find parent
    in
    find (Sys.getcwd ())
  in
  stable "script" (parse_file script_asset);
  stable "payload" (matmul ())

let test_fingerprint_discriminates () =
  let s1 = B.script (fun rw root -> B.annotate rw ~name:"a" root) in
  let s2 = B.script (fun rw root -> B.annotate rw ~name:"b" root) in
  check cb "different scripts, different fingerprints" false
    (Fingerprint.equal (Fingerprint.op s1) (Fingerprint.op s2))

let () =
  Alcotest.run "schedule"
    [
      ( "degradation",
        [
          Alcotest.test_case "use-after-consume" `Quick test_consumed_script;
          Alcotest.test_case "fallback-constructs" `Quick
            test_fallback_constructs;
          Alcotest.test_case "include-outside-script" `Quick
            test_include_outside_script;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit-on-reapply" `Quick test_cache_hit_on_reapply;
          Alcotest.test_case "hit-across-reparse" `Quick
            test_cache_hits_across_reparse;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "roundtrip-stable" `Quick
            test_fingerprint_roundtrip_stable;
          Alcotest.test_case "discriminates" `Quick
            test_fingerprint_discriminates;
        ] );
    ]
