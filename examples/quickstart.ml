(** Quickstart: the paper's Figure 1 worked example.

    We build a payload with loop-invariant code and an inner loop with an
    uneven trip count, then drive the compiler with a Transform script that
    hoists, splits, tiles and unrolls — and first show how the *static*
    script checker ({!Transform.Flowcheck}) rejects a script that unrolls
    the same loop twice (Figure 1a line 11).

    Run with: dune exec examples/quickstart.exe *)

open Ir
open Dialects

(* payload: loop-invariant constants inside an outer loop, an uneven inner
   loop (trip count 2042 = 255*8 + 2) — the shape of Figure 1b *)
let build_payload () =
  let md = Builtin.create_module () in
  let mt = Typ.memref (Typ.static_dims [ 4096; 4096 ]) Typ.f32 in
  let fop, entry =
    Func.create ~name:"myFunc" ~arg_types:[ mt ] ~result_types:[] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) fop;
  let values = Ircore.block_arg entry 0 in
  let rw = Dutil.rw_at_end entry in
  let zero = Dutil.const_int rw 0 in
  let one = Dutil.const_int rw 1 in
  let cn = Dutil.const_int rw 64 in
  ignore
    (Scf.build_for rw ~lb:zero ~ub:cn ~step:one (fun rwj j _ ->
         (* loop-invariant work, to be hoisted *)
         let c1 = Dutil.const_int rwj 1 in
         let inner_ub = Dutil.const_int rwj 42 in
         ignore
           (Scf.build_for rwj ~lb:zero ~ub:inner_ub ~step:one (fun rwi i _ ->
                let v = Memref.load rwi values [ c1; i ] in
                let v2 = Arith.addf rwi v v in
                Memref.store rwi v2 values [ j; i ];
                []));
         []));
  Func.return rw ();
  md

let fig1a_script () =
  Transform.Build.script (fun rw func ->
      (* %outer = match.op "scf.for" {first} in %func *)
      let outer = Transform.Build.match_op rw ~select:"first" ~name:"scf.for" func in
      (* %hoisted = loop.hoist from %outer *)
      let _hoisted = Transform.Build.loop_hoist rw outer in
      (* %inner = match.op "scf.for" {first} in %outer *)
      let inner = Transform.Build.match_op rw ~select:"first" ~name:"scf.for" outer in
      (* %param = param.constant 8 ; %part:2 = loop.split %inner ub_div_by=%param *)
      let param = Transform.Build.param_constant rw 8 in
      let part1, part2 =
        Transform.Build.loop_split rw ~div_by_param:param ~div_by:8 inner
      in
      (* %tiled:2 = loop.tile %part#1 tile_sizes=[%param] *)
      ignore (Transform.Build.loop_tile rw ~size_params:[ param ] ~sizes:[] part1);
      (* %unrolled = loop.unroll %part#2 {full} *)
      Transform.Build.loop_unroll_full rw part2)

(* Figure 1a *with* the deliberate error in line 11: a second unroll of the
   already-consumed %part#2 handle *)
let fig1a_script_with_error () =
  Transform.Build.script (fun rw func ->
      let inner = Transform.Build.match_op rw ~select:"second" ~name:"scf.for" func in
      let _p1, part2 = Transform.Build.loop_split rw ~div_by:8 inner in
      Transform.Build.loop_unroll_full rw part2;
      (* line 11: this statically reports an error! *)
      Transform.Build.loop_unroll_full rw part2)

let () =
  let ctx = Transform.Register.full_context () in
  let payload = build_payload () in
  Fmt.pr "=== initial payload (Figure 1b) ===@.%a@.@." Pretty.pp payload;

  (* static check of both scripts first *)
  let bad = fig1a_script_with_error () in
  let r = Transform.Flowcheck.check bad in
  if Transform.Flowcheck.ok r then Fmt.pr "unexpected: no static error found@."
  else
    Fmt.pr "=== static check of the faulty script ===@.%a@."
      Transform.Flowcheck.pp_report r;

  let script = fig1a_script () in
  if Transform.Flowcheck.ok (Transform.Flowcheck.check script) then
    Fmt.pr "good script: no static errors@.@."
  else Fmt.pr "unexpected problems on the good script@.";

  (* interpret the good script *)
  (match Transform.Schedule.run ctx ~script ~payload with
  | Ok steps -> Fmt.pr "transform interpreter: %d steps@.@." steps
  | Error e -> Fmt.pr "transform failed: %s@." (Transform.Terror.to_string e));
  Verifier.verify_or_fail ctx payload;
  Fmt.pr "=== transformed payload (Figure 1c) ===@.%a@." Pretty.pp payload
