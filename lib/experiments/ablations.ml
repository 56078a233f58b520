(** Ablation benchmarks for the design choices called out in DESIGN.md:

    - transform-IR simplification (inline + fold no-ops) before
      interpretation: interpreter steps with and without;
    - dynamic pre-condition checking overhead (Section 3.3);
    - expensive payload verification after every transform step. *)


(** A script with macro indirection and no-op transforms, exercising the
    simplifier: a named sequence applied through include, tiling by zero
    and unrolling by one. *)
let redundant_script () =
  let md = Transform.Build.script (fun rw root ->
      let loop = Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root in
      (* no-op transforms *)
      let _t, p = Transform.Build.loop_tile rw ~sizes:[ 0; 0 ] loop in
      Transform.Build.loop_unroll rw ~factor:1 p;
      (* a real transform at the end so the script does something *)
      ignore (Transform.Build.loop_tile rw ~sizes:[ 8; 8 ] p))
  in
  md

type row = { config : string; steps : int; seconds : float; ok : bool }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_one ctx ~simplify ~config_name ~iconfig () =
  let script = redundant_script () in
  if simplify then (
    match Transform.Simplify.run script with
    | Ok _ -> ()
    | Error e -> failwith e);
  let md = Workloads.Matmul.build_module ~m:32 ~n:32 ~k:16 () in
  Transform.Schedule.clear_cache ();
  let result, seconds =
    time (fun () ->
        Transform.Schedule.run ~config:iconfig ctx ~script ~payload:md)
  in
  match result with
  | Ok steps -> { config = config_name; steps; seconds; ok = true }
  | Error _ -> { config = config_name; steps = 0; seconds; ok = false }

let run ctx =
  let base = Transform.State.default_config in
  [
    run_one ctx ~simplify:false ~config_name:"no simplification" ~iconfig:base ();
    run_one ctx ~simplify:true ~config_name:"simplified script" ~iconfig:base ();
    run_one ctx ~simplify:false
      ~config_name:"dynamic condition checks"
      ~iconfig:{ base with Transform.State.check_conditions = true }
      ();
    run_one ctx ~simplify:false
      ~config_name:"expensive payload verify"
      ~iconfig:{ base with Transform.State.expensive_checks = true }
      ();
  ]

(* ------------------------------------------------------------------ *)
(* dynamic-check overhead at Case-Study-1 scale                        *)
(* ------------------------------------------------------------------ *)

type check_row = { ck_model : string; ck_off : float; ck_on : float }

(** Cost of the Section-3.3 dynamic pre/post-condition checks on a real
    compilation flow (squeezenet through the TOSA pipeline). *)
let dynamic_check_overhead ctx =
  let spec =
    List.find
      (fun s -> s.Workloads.Models.sp_name = "squeezenet")
      Workloads.Models.paper_models
  in
  let passes =
    match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
    | Ok ps -> ps
    | Error e -> failwith (Ir.Diag.to_string e)
  in
  let compile ~checks =
    let md = Workloads.Models.build spec in
    let script = Transform.From_pipeline.script_of_pipeline passes in
    let config =
      { Transform.State.default_config with
        Transform.State.check_conditions = checks }
    in
    Gc.major ();
    Transform.Schedule.clear_cache ();
    let (), t =
      time (fun () ->
          match Transform.Schedule.run ~config ctx ~script ~payload:md with
          | Ok _ -> ()
          | Error e -> failwith (Transform.Terror.to_string e))
    in
    t
  in
  ignore (compile ~checks:false);
  {
    ck_model = spec.Workloads.Models.sp_name;
    ck_off = compile ~checks:false;
    ck_on = compile ~checks:true;
  }

let pp_check_row fmt r =
  Fmt.pf fmt
    "dynamic condition checks on %s pipeline: off %.1f ms, on %.1f ms \
     (%.2fx)@."
    r.ck_model (r.ck_off *. 1000.) (r.ck_on *. 1000.) (r.ck_on /. r.ck_off)

let pp_rows fmt rows =
  Fmt.pf fmt "%-28s %8s %12s %s@." "Configuration" "steps" "time" "ok";
  List.iter
    (fun r ->
      Fmt.pf fmt "%-28s %8d %10.2f ms %s@." r.config r.steps
        (r.seconds *. 1000.)
        (if r.ok then "yes" else "NO"))
    rows

(* ------------------------------------------------------------------ *)
(* intrusive op lists: O(1) insert/erase regardless of block size       *)
(* ------------------------------------------------------------------ *)

type ilist_row = { block_size : int; ns_per_mutation : float }

(** Measure erase+reinsert of an op in the middle of blocks of growing
    size. With the intrusive doubly-linked design (DESIGN.md) the cost is
    flat; a list-copy representation would grow linearly. *)
let ilist_ablation ?(reps = 50_000) () =
  List.map
    (fun block_size ->
      let block = Ir.Ircore.create_block () in
      let rw = Ir.Rewriter.create ~ip:(Ir.Builder.At_end block) () in
      let ops =
        Array.init block_size (fun i ->
            Ir.Rewriter.build rw ~operands:[||] ~result_types:[||]
              (Fmt.str "test.o%d" (i land 7)))
      in
      let victim = ops.(block_size / 2) in
      let anchor = ops.((block_size / 2) + 1) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        Ir.Ircore.detach victim;
        Ir.Ircore.insert_before ~anchor victim
      done;
      let dt = Unix.gettimeofday () -. t0 in
      { block_size; ns_per_mutation = dt /. float_of_int reps *. 1e9 })
    [ 1_000; 10_000; 100_000 ]

let pp_ilist_rows fmt rows =
  Fmt.pf fmt "intrusive op-list mutation cost (detach + insert_before):@.";
  List.iter
    (fun r ->
      Fmt.pf fmt "  block of %7d ops: %6.1f ns/mutation@." r.block_size
        r.ns_per_mutation)
    rows;
  match rows with
  | first :: _ ->
    let last = List.nth rows (List.length rows - 1) in
    Fmt.pf fmt "  100x larger block costs %.1fx more (O(1) = ~1x)@."
      (last.ns_per_mutation /. first.ns_per_mutation)
  | [] -> ()
