(* Action framework: the ambient, interceptable transformation-unit layer.

   Covers the handler stack (composition, veto, exception safety), the
   disabled fast path, MLIR-style debug-counter semantics, fingerprint-gated
   IR-change snapshots, per-op provenance through canonicalize, rollback
   re-marking, determinism of the journal and the payload IR across job
   counts, and counter bisection pinning a deliberately miscompiling
   pattern to its exact action index. *)

open Ir
open Dialects

let ctx = Transform.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let with_jobs n f =
  let saved = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

let dummy_root () = Builtin.create_module ()

let run_act t ~tag ?(desc = "") f =
  Action.run_on t ~tag ~desc ~loc:Loc.unknown ~root:(dummy_root ())
    ~skipped:(-1) f

(* @name() -> i32 { c1 = 1; acc = ((1+1)+1)...; return acc } — folds down
   to a single constant under canonicalize *)
let foldable_func md ~name n =
  let f, entry =
    Func.create ~name ~arg_types:[] ~result_types:[ Typ.i32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let one = Dutil.const_int rw ~typ:Typ.i32 1 in
  let acc = ref one in
  for _ = 1 to n do
    acc := Arith.addi rw !acc one
  done;
  Func.return rw ~operands:[ !acc ] ()

(* @name(x) -> i32 { return x } — nothing to canonicalize *)
let identity_func md ~name =
  let f, entry =
    Func.create ~name ~arg_types:[ Typ.i32 ] ~result_types:[ Typ.i32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  Func.return rw ~operands:(Ircore.block_args entry) ()

let canonicalize md =
  match
    Passes.Pass.run_pipeline ctx [ Passes.Pass.lookup_exn "canonicalize" ] md
  with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* ambient context and journal                                         *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  check cb "no ambient context" true (Action.active () = None);
  let v =
    Action.run ~tag:"pass" ~desc:"x" ~loc:Loc.unknown ~root:(dummy_root ())
      ~skipped:0
      (fun () -> 41 + 1)
  in
  check ci "run without context is the identity" 42 v;
  let t = Action.create () in
  Action.with_context t (fun () ->
      check cb "context visible" true (Action.active () <> None);
      Action.with_disabled (fun () ->
          check cb "with_disabled hides it" true (Action.active () = None)));
  check ci "nothing journaled without a context" 0
    (List.length (Action.entries t))

let test_journal_nesting () =
  let t = Action.create () in
  let v =
    Action.with_context t (fun () ->
        run_act t ~tag:"pass" ~desc:"outer" (fun () ->
            run_act t ~tag:"pattern" ~desc:"inner" (fun () -> 7)))
  in
  check ci "value threads through" 7 v;
  match Action.entries t with
  | [ outer; inner ] ->
    check cs "outer tag" "pass" outer.Action.e_tag;
    check cs "inner tag" "pattern" inner.Action.e_tag;
    check ci "outer index" 0 outer.Action.e_index;
    check ci "inner index" 1 inner.Action.e_index;
    check ci "outer depth" 0 outer.Action.e_depth;
    check ci "inner depth" 1 inner.Action.e_depth;
    check cb "both executed" true
      (outer.Action.e_outcome = Action.Executed
      && inner.Action.e_outcome = Action.Executed);
    check ci "per-tag totals" 1 (Action.tag_total t "pattern")
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

let test_handler_stack_and_exceptions () =
  let t = Action.create () in
  let events = ref [] in
  let h name =
    {
      Action.h_decide = (fun _ -> true);
      h_enter = (fun _ -> events := (name ^ ":enter") :: !events);
      h_exit =
        (fun _ ~ok -> events := Fmt.str "%s:exit(%b)" name ok :: !events);
    }
  in
  Action.push_handler t (h "a");
  Action.push_handler t (h "b");
  check cb "handlers force sequential scheduling" true
    (Action.with_context t Action.sequential_only);
  (* a normal action brackets through both handlers *)
  ignore (Action.with_context t (fun () -> run_act t ~tag:"x" (fun () -> 1)));
  check cb "handlers bracket the action LIFO" true
    (List.rev !events
    = [ "a:enter"; "b:enter"; "b:exit(true)"; "a:exit(true)" ]);
  (* a raising action is journaled as failed, handlers see ok:false, the
     exception escapes, and the stack unwinds for the next action *)
  events := [];
  (match
     Action.with_context t (fun () ->
         run_act t ~tag:"x" (fun () -> failwith "boom"))
   with
  | exception Failure m -> check cs "exception propagates" "boom" m
  | _ -> Alcotest.fail "expected Failure");
  check cb "handlers saw the failure" true
    (List.exists (fun e -> contains e "exit(false)") !events);
  ignore (Action.with_context t (fun () -> run_act t ~tag:"x" (fun () -> 2)));
  (match List.rev (Action.entries t) with
  | last :: failed :: _ ->
    check ci "stack unwound after exception" 0 last.Action.e_depth;
    check cb "raising action marked failed" true
      (failed.Action.e_outcome = Action.Failed)
  | _ -> Alcotest.fail "expected 3 entries");
  Action.pop_handler t;
  Action.pop_handler t;
  check cb "empty handler stack parallelizes again" false
    (Action.with_context t Action.sequential_only)

let test_revert_since () =
  let t = Action.create () in
  Action.with_context t (fun () ->
      ignore (run_act t ~tag:"transform" (fun () -> 0));
      let cur = Action.cursor () in
      ignore (run_act t ~tag:"transform" (fun () -> 0));
      ignore (run_act t ~tag:"pattern" (fun () -> 0));
      Action.revert_since cur);
  match Action.entries t with
  | [ kept; r1; r2 ] ->
    check cb "pre-cursor action untouched" true
      (kept.Action.e_outcome = Action.Executed);
    check cb "rolled-back actions re-marked" true
      (r1.Action.e_outcome = Action.Reverted
      && r2.Action.e_outcome = Action.Reverted)
  | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* debug counters                                                      *)
(* ------------------------------------------------------------------ *)

let test_parse_counter () =
  (match Action.parse_counter "pattern:2,3" with
  | Ok c ->
    check cs "tag" "pattern" c.Action.cs_tag;
    check ci "skip" 2 c.Action.cs_skip;
    check ci "count" 3 c.Action.cs_count
  | Error e -> Alcotest.fail e);
  (match Action.parse_counter "fold:4" with
  | Ok c ->
    check ci "skip only" 4 c.Action.cs_skip;
    check cb "count defaults to unbounded" true (c.Action.cs_count = max_int)
  | Error e -> Alcotest.fail e);
  check cb "malformed spec rejected" true
    (Result.is_error (Action.parse_counter "nocolon"))

let test_counter_semantics () =
  (* TAG:2,3 over 10 occurrences: indices 2,3,4 execute, the rest skip *)
  let t =
    Action.create
      ~counters:[ { Action.cs_tag = "pat"; cs_skip = 2; cs_count = 3 } ]
      ()
  in
  let results =
    Action.with_context t (fun () ->
        List.init 10 (fun i -> run_act t ~tag:"pat" (fun () -> i)))
  in
  check cb "only the window executes" true
    (results = [ -1; -1; 2; 3; 4; -1; -1; -1; -1; -1 ]);
  let outcomes = List.map (fun e -> e.Action.e_outcome) (Action.entries t) in
  check ci "all ten journaled" 10 (List.length outcomes);
  check ci "three executed" 3
    (List.length (List.filter (fun o -> o = Action.Executed) outcomes));
  check ci "seven skipped" 7
    (List.length (List.filter (fun o -> o = Action.Skipped) outcomes));
  (* a counter on one tag leaves other tags alone *)
  let v =
    Action.with_context t (fun () -> run_act t ~tag:"other" (fun () -> 5))
  in
  check cb "unrelated tag unaffected" true (v <> -1)

(* the dce pass journals one [dce] action per erased op, so a [dce:0,0]
   counter vetoes every erasure *)
let test_dce_pass_counter () =
  let run counters =
    let md, entry = Testutil.dead_chain 10 in
    let t = Action.create ~counters () in
    Action.with_context t (fun () -> Testutil.run_pass "dce" md);
    (t, Ircore.block_num_ops entry - 1)
  in
  let t, left = run [] in
  let dce_entries =
    List.filter (fun e -> e.Action.e_tag = "dce") (Action.entries t)
  in
  check ci "ten dce actions journaled" 10 (List.length dce_entries);
  check ci "chain erased" 0 left;
  let _, left =
    run [ { Action.cs_tag = "dce"; cs_skip = 0; cs_count = 0 } ]
  in
  check ci "dce:0,0 keeps the chain" 10 left

(* ------------------------------------------------------------------ *)
(* IR change snapshots                                                 *)
(* ------------------------------------------------------------------ *)

let test_snapshot_gating () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let snap =
    { Action.sn_tags = [ "pass" ]; sn_mode = Action.Snap_print ppf }
  in
  let md = Builtin.create_module () in
  foldable_func md ~name:"hot" 3;
  identity_func md ~name:"cold";
  let t = Action.create ~snapshot:snap () in
  Action.with_context t (fun () -> canonicalize md);
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  check cb "changed function is dumped" true (contains out "(@hot)");
  check cb "diff shows the change" true (contains out "arith.addi");
  check cb "unchanged function is not dumped" false (contains out "(@cold)");
  (* a second run over the now-canonical module changes nothing: the
     fingerprint gate suppresses every dump *)
  Buffer.clear buf;
  Action.with_context t (fun () -> canonicalize md);
  Format.pp_print_flush ppf ();
  check cs "no-change pass prints nothing" "" (Buffer.contents buf);
  (* nested tagged actions dump each change once, in the innermost
     action: a script's registered pass runs as a [pass] action inside
     its [transform] action, and under [pass,pattern,fold,dce] the folds
     and erasures inside canonicalize leave the pass nothing to dump *)
  let dumps tags run =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let md = Builtin.create_module () in
    foldable_func md ~name:"hot" 3;
    identity_func md ~name:"cold";
    let t =
      Action.create
        ~snapshot:{ Action.sn_tags = tags; sn_mode = Action.Snap_print ppf }
        ()
    in
    Action.with_context t (fun () -> run md);
    Format.pp_print_flush ppf ();
    let out = Buffer.contents buf in
    let headers =
      List.filter
        (fun l -> contains l "IR dump after action")
        (String.split_on_char '\n' out)
    in
    (out, headers)
  in
  let script =
    Result.get_ok (Transform.From_pipeline.script_of_pipeline_str "canonicalize")
  in
  let out, headers =
    dumps Action.default_snapshot_tags (fun md ->
        match Transform.Schedule.run ctx ~script ~payload:md with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Transform.Terror.to_string e))
  in
  check ci "script: one dump" 1 (List.length headers);
  check cb "script: dumped by the pass" true
    (contains out "pass 'canonicalize' (@hot)");
  let _, headers = dumps [ "pass"; "pattern"; "fold"; "dce" ] canonicalize in
  check cb "nested tags: the folds are dumped" true
    (List.exists (fun l -> contains l "fold 'arith.addi'") headers);
  check cb "nested tags: the pass repeats none of them" false
    (List.exists (fun l -> contains l "pass 'canonicalize'") headers)

(* a script's own transforms dump the payload changes they make: each
   [transform] action is anchored at the payload root, not at the script
   op, whose module never changes *)
let test_snapshot_transforms () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let md = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:8 () in
  let script =
    Transform.Build.script (fun rw root ->
        let loop =
          Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root
        in
        let _tiles, points = Transform.Build.loop_tile rw ~sizes:[ 4 ] loop in
        Transform.Build.loop_unroll rw ~factor:2 points)
  in
  let t =
    Action.create
      ~snapshot:
        { Action.sn_tags = Action.default_snapshot_tags;
          sn_mode = Action.Snap_print ppf }
      ()
  in
  Action.with_context t (fun () ->
      match Transform.Schedule.run ctx ~script ~payload:md with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Transform.Terror.to_string e));
  Format.pp_print_flush ppf ();
  let headers =
    List.filter
      (fun l -> contains l "IR dump after action")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let dumped name =
    List.length
      (List.filter (fun l -> contains l ("transform '" ^ name ^ "'")) headers)
  in
  check ci "loop_tile dumps its change" 1 (dumped Transform.Ops.loop_tile_op);
  check ci "loop_unroll dumps its change" 1
    (dumped Transform.Ops.loop_unroll_op);
  check ci "match_op changes nothing" 0 (dumped Transform.Ops.match_op)

(* ------------------------------------------------------------------ *)
(* provenance                                                          *)
(* ------------------------------------------------------------------ *)

let test_provenance_canonicalize () =
  let md = Builtin.create_module () in
  foldable_func md ~name:"hot" 3;
  identity_func md ~name:"cold";
  let t = Action.create ~provenance:true () in
  Action.with_context t (fun () -> canonicalize md);
  let json = Action.provenance_to_json t ~root:md in
  (* every op of the final module resolves to a record *)
  let live = ref 0 in
  Ircore.walk (fun _ -> incr live) md;
  let section name =
    match Ir.Json.member name json with
    | Some l -> Option.get (Ir.Json.to_list l)
    | None -> Alcotest.failf "missing %s section" name
  in
  check ci "every live op has a record" !live (List.length (section "ops"));
  let rendered = Ir.Json.to_line json in
  check cb "folded constant is attributed to its materialization" true
    (contains rendered "fold.materialize");
  check cb "rewritten ops report rewrite origin" true
    (contains rendered "\"origin\":\"rewrite\"");
  check cb "dead constants appear in the erased section" true
    (section "erased" <> []);
  check cb "erased ops name the erasing action" true
    (List.exists
       (fun r -> contains (Ir.Json.to_line r) "\"dce\"")
       (section "erased"))

let test_provenance_squeezenet () =
  (* every op of the canonicalized squeezenet resolves to a record *)
  let spec = List.hd Workloads.Models.paper_models in
  check cs "first paper model is squeezenet" "squeezenet"
    spec.Workloads.Models.sp_name;
  let md = Workloads.Models.build spec in
  let t = Action.create ~provenance:true () in
  Action.with_context t (fun () -> canonicalize md);
  let json = Action.provenance_to_json t ~root:md in
  let live = ref 0 in
  Ircore.walk (fun _ -> incr live) md;
  let ops =
    match Ir.Json.member "ops" json with
    | Some l -> Option.get (Ir.Json.to_list l)
    | None -> Alcotest.fail "missing ops section"
  in
  check ci "every final squeezenet op has a provenance record" !live
    (List.length ops);
  check cb "records carry an origin" true
    (List.for_all
       (fun r ->
         match Ir.Json.member "origin" r with
         | Some (Ir.Json.String ("input" | "rewrite")) -> true
         | _ -> false)
       ops)

(* ------------------------------------------------------------------ *)
(* determinism across job counts                                       *)
(* ------------------------------------------------------------------ *)

let test_jobs_determinism () =
  let build () =
    let md = Builtin.create_module () in
    for i = 0 to 7 do
      foldable_func md ~name:(Fmt.str "f%d" i) (3 + i)
    done;
    md
  in
  let run jobs =
    let md = build () in
    let t = Action.create ~provenance:true () in
    with_jobs jobs (fun () ->
        Action.with_context t (fun () -> canonicalize md));
    let journal =
      List.map
        (fun e -> Ir.Json.to_line (Action.entry_to_json ~timing:false e))
        (Action.entries t)
    in
    (Printer.op_to_string md, journal)
  in
  let ir1, _j1 = run 1 in
  let ir2, j2 = run 2 in
  let ir4, j4 = run 4 in
  let _ir4', j4' = run 4 in
  check cs "payload IR byte-identical at jobs=4" ir1 ir4;
  check cs "payload IR byte-identical at jobs=2" ir1 ir2;
  (* the sequential pass runs one whole-module greedy while the parallel
     schedule runs per-function greedy, so jobs=1 journals differ by
     construction; across parallel degrees and runs the replayed journal
     must be identical *)
  check cb "journal identical across parallel degrees" true (j2 = j4);
  check cb "journal deterministic run-to-run at jobs=4" true (j4 = j4');
  check cb "captured pattern/fold work replays into the journal" true
    (List.exists (fun l -> contains l "\"fold\"") j4);
  check cb "journal non-trivial" true (List.length j4 > 8)

let test_handlers_off_byte_identical () =
  (* a journal+provenance context (no handlers) must not perturb the
     transformation: the five Table-1 model lowerings stay byte-identical *)
  let passes =
    match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
    | Ok ps -> ps
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let lower md =
    match Passes.Pass.run_pipeline ctx passes md with
    | Ok () -> Printer.op_to_string md
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  List.iter
    (fun spec ->
      let bare = lower (Workloads.Models.build spec) in
      let md = Workloads.Models.build spec in
      let t = Action.create ~provenance:true () in
      let journaled = Action.with_context t (fun () -> lower md) in
      check cs
        (Fmt.str "%s: journaled lowering = bare lowering"
           spec.Workloads.Models.sp_name)
        bare journaled;
      check cb
        (Fmt.str "%s: lowering routed through actions"
           spec.Workloads.Models.sp_name)
        true
        (Action.tag_total t "pass" > 0))
    Workloads.Models.paper_models

(* ------------------------------------------------------------------ *)
(* bisection of a deliberately miscompiling pattern                    *)
(* ------------------------------------------------------------------ *)

(* "evil" looks like a benign strength-reduction pattern but miscompiles
   exactly one shape: x * 7 becomes the constant 999 *)
let evil =
  Pattern.make ~root:"arith.muli" ~name:"evil" (fun rw op ->
      let const_operand v =
        match Ircore.defining_op v with
        | Some d when d.Ircore.op_name = "arith.constant" -> (
          match Ircore.attr d "value" with
          | Some (Attr.Int (n, _)) -> Some n
          | _ -> None)
        | _ -> None
      in
      match List.find_map const_operand (Array.to_list op.Ircore.operands) with
      | Some 7 ->
        Rewriter.set_ip rw (Builder.Before op);
        let c = Dutil.const_int rw ~typ:Typ.i32 999 in
        Rewriter.replace_op rw op ~with_:[ c ];
        true
      | _ -> false)

let test_bisect_localizes_miscompile () =
  let build () =
    let md = Builtin.create_module () in
    let f, entry =
      Func.create ~name:"m" ~arg_types:[ Typ.i32 ]
        ~result_types:[ Typ.i32 ] ()
    in
    Ircore.insert_at_end (Builtin.body_block md) f;
    let rw = Dutil.rw_at_end entry in
    let x = List.hd (Ircore.block_args entry) in
    let acc = ref x in
    (* several muli sites; only the *7 one trips the miscompile *)
    List.iter
      (fun k ->
        let c = Dutil.const_int rw ~typ:Typ.i32 k in
        acc := Arith.muli rw !acc c)
      [ 2; 3; 7; 5 ];
    Func.return rw ~operands:[ !acc ] ();
    md
  in
  let apply counters =
    let md = build () in
    let t = Action.create ~counters () in
    Action.with_context t (fun () ->
        ignore (Testutil.greedy ctx ~patterns:[ evil ] md : bool));
    (* the injected 999 constant-folds with the remaining chain (999 * 5 =
       4995), so the miscompile witness is either form *)
    let out = Printer.op_to_string md in
    (t, contains out "999" || contains out "4995")
  in
  let fails counters = snd (apply counters) in
  let total tag = Action.tag_total (fst (apply [])) tag in
  check cb "miscompile reproduces unrestricted" true (fails []);
  match Fuzz.Bisect.localize ~fails ~total () with
  | None -> Alcotest.fail "bisection found no culprit"
  | Some c ->
    check cs "culprit is a pattern application" "pattern" c.Fuzz.Bisect.c_tag;
    let prefix k =
      [ { Action.cs_tag = "pattern"; cs_skip = 0; cs_count = k } ]
    in
    (* the named index is exact: the prefix excluding it is clean, the
       prefix including it reproduces the miscompile *)
    check cb "prefix below the culprit is clean" false
      (fails (prefix c.Fuzz.Bisect.c_index));
    check cb "prefix through the culprit miscompiles" true
      (fails (prefix (c.Fuzz.Bisect.c_index + 1)))

let () =
  Alcotest.run "action"
    [
      ( "context",
        [
          Alcotest.test_case "disabled-noop" `Quick test_disabled_noop;
          Alcotest.test_case "journal-nesting" `Quick test_journal_nesting;
          Alcotest.test_case "handler-stack-exceptions" `Quick
            test_handler_stack_and_exceptions;
          Alcotest.test_case "revert-since" `Quick test_revert_since;
        ] );
      ( "counters",
        [
          Alcotest.test_case "parse" `Quick test_parse_counter;
          Alcotest.test_case "skip-count-window" `Quick test_counter_semantics;
          Alcotest.test_case "dce-pass" `Quick test_dce_pass_counter;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "fingerprint-gated" `Quick test_snapshot_gating;
          Alcotest.test_case "script transforms" `Quick
            test_snapshot_transforms;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "through-canonicalize" `Quick
            test_provenance_canonicalize;
          Alcotest.test_case "squeezenet-resolves" `Quick
            test_provenance_squeezenet;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs-byte-equality" `Quick test_jobs_determinism;
          Alcotest.test_case "handlers-off-identical" `Quick
            test_handlers_off_byte_identical;
        ] );
      ( "bisect",
        [
          Alcotest.test_case "localizes-miscompile" `Quick
            test_bisect_localizes_miscompile;
        ] );
    ]
