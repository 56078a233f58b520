(* Golden outcome corpus for transform-script execution, diffed by dune
   against schedule_outcomes.expected: per case, script id, seed, case,
   outcome ("ok <steps>", or "silenceable"/"definite" and the error text)
   and the fingerprint of the payload after the run. *)

open Ir
module B = Transform.Build

let ctx = Transform.Register.full_context ()

let outcome = function
  | Ok steps -> Fmt.str "ok %d" steps
  | Error e ->
    Fmt.str "%s %s"
      (if Transform.Terror.is_silenceable e then "silenceable" else "definite")
      (String.concat "\\n"
         (String.split_on_char '\n' (Transform.Terror.to_string e)))

let record id ~seed ~case script payload =
  let r = Transform.Schedule.run ctx ~script ~payload in
  Fmt.pr "%s %s %s %s %s@." id seed case (outcome r)
    (Fingerprint.to_hex (Fingerprint.op payload))

let parse text =
  match Parser.parse_module text with Ok m -> m | Error e -> failwith e

let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)
let matmul () = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 ()
let script body () = B.script body
let loops rw root = B.match_op rw ~name:"scf.for" root
let funcs rw root = B.match_op rw ~name:"func.func" root
let annotate name rw h = B.annotate rw ~name h

let split7 rw root =
  ignore (B.split_handle rw ~n:7 (B.match_op rw ~name:"arith.addi" root))

(* @helper takes one argument and yields its loops *)
let include_script ?(target = "helper") operands () =
  let m =
    B.script (fun rw root ->
        let inc =
          B.include_ rw ~target (List.init operands (fun _ -> root)) ~results:1
        in
        annotate "test.outer" rw (Ircore.result ~index:0 inc))
  in
  ignore
    (B.named_sequence m ~name:"helper" ~num_args:1 (fun rw args ->
         let l = loops rw (List.hd args) in
         annotate "test.inner" rw l;
         [ l ]));
  m

let cli_use_after_consume =
  {|"builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %loop = "transform.match_op"(%root) {op_name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiled:2 = "transform.loop_tile"(%loop) {tile_sizes = array<i64: 4>} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.annotate"(%loop) {name = "late"} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
|}

let cs2_script () =
  match
    Transform.From_pipeline.script_of_pipeline_str
      (String.concat "," Workloads.Subview_kernel.naive_pipeline)
  with
  | Ok s -> s
  | Error e -> failwith (Diag.to_string e)

let named_cases =
  [
    ( "cs2-pipeline",
      cs2_script,
      fun () ->
        Workloads.Subview_kernel.build Workloads.Subview_kernel.Static_offset );
    ( "tile-unroll",
      script (fun rw root ->
          let loop = B.match_op rw ~select:"first" ~name:"scf.for" root in
          let outer, _ = B.loop_tile rw ~sizes:[ 4 ] loop in
          B.loop_unroll rw ~factor:2 outer),
      matmul );
    ( "apply-patterns",
      script (fun rw root ->
          B.apply_patterns rw root
            (List.filteri (fun i _ -> i < 3) (Dialects.Shlo_patterns.names ()))),
      matmul );
    ("include", include_script 1, matmul);
    ("split-mismatch", script split7, matmul);
    ( "use-after-consume",
      script (fun rw root ->
          let l = loops rw root in
          ignore (B.loop_tile rw ~sizes:[ 4 ] l);
          B.loop_unroll rw ~factor:2 l),
      matmul );
    ( "alternatives",
      script (fun rw root ->
          annotate "test.pre" rw (funcs rw root);
          B.alternatives rw
            [ (fun brw -> ignore (B.apply_registered_pass brw ~pass_name:"canonicalize" root)) ]),
      matmul );
    ("cli-use-after-consume", (fun () -> parse cli_use_after_consume), matmul);
    ( "stale-loop-handle",
      (fun () ->
        parse_file "../regressions/flowdiff-seed7-stale-loop-handle-script.mlir"),
      fun () -> parse_file "../regressions/flowdiff-seed7-stale-loop-handle.mlir"
    );
    ( "alternatives-all-fail",
      script (fun rw root ->
          B.alternatives rw
            [ (fun brw -> split7 brw root); (fun brw -> split7 brw root) ]),
      matmul );
    ( "foreach-erased",
      script (fun rw root -> B.foreach rw (loops rw root) B.loop_unroll_full),
      matmul );
    ( "sequence-entry",
      (fun () ->
        B.sequence (fun rw root -> annotate "test.seq" rw (funcs rw root))),
      matmul );
    ( "unknown-op",
      script (fun rw root ->
          Rewriter.build0 rw ~operands:[| root |] "transform.no_such_op"),
      matmul );
    ("include-missing", include_script ~target:"nowhere" 1, matmul);
    ("include-arity", include_script 2, matmul);
  ]
  @ List.map
      (fun n ->
        ( "annotate-funcs-" ^ n,
          script (fun rw root -> annotate n rw (funcs rw root)),
          matmul ))
      [ "test.cached"; "test.reparsed" ]
  @ List.map
      (fun n -> ("annotate-root-" ^ n, script (annotate n), matmul))
      [ "a"; "b" ]

let () =
  List.iter
    (fun (id, script, payload) ->
      record id ~seed:"-" ~case:"-" (script ()) (payload ()))
    named_cases;
  List.iter
    (fun seed ->
      for case = 0 to 499 do
        let m = Fuzz.Driver.module_for ~seed ~case () in
        for variant = 0 to Fuzz.Oracle.schedule_script_variants - 1 do
          record (Fmt.str "variant%d" variant) ~seed:(string_of_int seed)
            ~case:(string_of_int case)
            (Fuzz.Oracle.schedule_script ~variant)
            (Ircore.clone_op m)
        done
      done)
    [ 42; 7 ]
