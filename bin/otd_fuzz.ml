(** otd-fuzz: property-based fuzzing and differential testing of the
    whole compiler stack.

    Generates seeded, deterministic, well-typed payload modules and checks
    four oracle families over each one: print→parse→print fixpoint,
    verifier acceptance, clone equivalence, and differential execution of
    [main] before/after each registered pass pipeline. Failures are
    greedily minimized and written as crash-reproducer [.mlir] files that
    [otd-opt] can replay.

    Examples:
    - [otd_fuzz --seed 42 --cases 500]
    - [otd_fuzz --seed 7 --cases 100 --pipeline canonicalize,cse]
    - [otd_fuzz --case 3127 --seed 9 --print] (dump one generated module) *)

open Cmdliner

let run_faults ctx config seed cases prob out_dir quiet =
  let on_case i ~failed =
    if not quiet then
      if failed then Fmt.epr "case %d: fault injected@." i
      else if i mod 50 = 0 then Fmt.epr "case %d...@." i
  in
  let stats =
    Fuzz.Fault.run_campaign ~config ~prob ?out_dir ~on_case ctx ~seed ~cases
      ()
  in
  let nviol = List.length stats.Fuzz.Fault.fs_violations in
  Fmt.pr
    "otd-fuzz faults: %d cases, %d faults injected (%d cases faulted, %d \
     raising), %d byte-identical rollbacks verified, %d violation%s, %.1f s \
     (seed %d, p=%.2f)@."
    stats.Fuzz.Fault.fs_cases stats.Fuzz.Fault.fs_injected
    stats.Fuzz.Fault.fs_faulted_cases stats.Fuzz.Fault.fs_raised
    stats.Fuzz.Fault.fs_rollbacks_verified nviol
    (if nviol = 1 then "" else "s")
    stats.Fuzz.Fault.fs_seconds seed prob;
  List.iter
    (fun v ->
      Fmt.pr "  case %d [%s, %s]: %s%a@." v.Fuzz.Fault.v_case
        v.Fuzz.Fault.v_scenario v.Fuzz.Fault.v_mode v.Fuzz.Fault.v_detail
        (fun fmt -> function
          | Some p -> Fmt.pf fmt " -> %s" p
          | None -> ())
        v.Fuzz.Fault.v_path)
    stats.Fuzz.Fault.fs_violations;
  if nviol = 0 then `Ok ()
  else `Error (false, "fault injection found recovery-invariant violations")

let run_server_faults cases out_dir =
  let s = Fuzz.Server_faults.run ~cases ?reproducer_dir:out_dir () in
  let nviol = List.length s.Fuzz.Server_faults.sf_violations in
  Fmt.pr
    "otd-fuzz server-faults: %d frames (%d poisoned), %d ok, %d contained, \
     %d invalid, %d closed, %d canaries, %d cache hits, %d reproducers, %d \
     violation%s, %.1f s@."
    s.Fuzz.Server_faults.sf_jobs s.Fuzz.Server_faults.sf_poisoned
    s.Fuzz.Server_faults.sf_ok s.Fuzz.Server_faults.sf_contained
    s.Fuzz.Server_faults.sf_invalid s.Fuzz.Server_faults.sf_closed
    s.Fuzz.Server_faults.sf_canaries s.Fuzz.Server_faults.sf_cache_hits
    s.Fuzz.Server_faults.sf_reproducers nviol
    (if nviol = 1 then "" else "s")
    s.Fuzz.Server_faults.sf_seconds;
  List.iter (Fmt.pr "  VIOLATION: %s@.") s.Fuzz.Server_faults.sf_violations;
  if nviol = 0 then `Ok ()
  else `Error (false, "server fault campaign found violations")

let run_flow_diff ctx config seed cases out_dir quiet =
  let on_case i ~failed =
    if not quiet then
      if failed then Fmt.epr "case %d: DIVERGENCE@." i
      else if i mod 50 = 0 then Fmt.epr "case %d...@." i
  in
  let stats =
    Fuzz.Driver.run_flow_diff ~config ?out_dir ~on_case ctx ~seed ~cases ()
  in
  let count c =
    match Ir.Stats.find_counter ~component:"fuzz" c with
    | Some c -> Ir.Stats.value c
    | None -> 0
  in
  let nfail = List.length stats.Fuzz.Driver.s_failures in
  Fmt.pr
    "otd-fuzz flow-diff: %d cases (%d statically accepted, %d rejected), %d \
     divergence%s, %.1f s (seed %d)@."
    stats.Fuzz.Driver.s_cases (count "flow_accepted") (count "flow_rejected")
    nfail
    (if nfail = 1 then "" else "s")
    stats.Fuzz.Driver.s_seconds seed;
  List.iter
    (fun r ->
      Fmt.pr "  case %d: %a%a@." r.Fuzz.Driver.r_case Fuzz.Oracle.pp_failure
        r.Fuzz.Driver.r_failure
        (fun fmt -> function
          | Some p -> Fmt.pf fmt " -> %s" p
          | None -> ())
        r.Fuzz.Driver.r_path)
    stats.Fuzz.Driver.s_failures;
  if nfail = 0 then `Ok ()
  else
    `Error
      (false, "static annotation-flow checker diverged from the dynamic one")

(* [Some 0] auto-sizes; [None] keeps OTD_JOBS (or sequential) *)
let apply_jobs = function
  | None -> Ok ()
  | Some 0 -> Ok (Ir.Pool.set_jobs (Ir.Pool.default_jobs ()))
  | Some n when n >= 1 -> Ok (Ir.Pool.set_jobs n)
  | Some n -> Error (Fmt.str "--jobs must be >= 0 (got %d)" n)

let run seed cases max_ops max_depth pipeline no_shrink no_bisect out_dir
    print_case quiet profile faults flow_diff server_faults jobs =
  Printexc.record_backtrace true;
  (* SIGINT raises Sys.Break: campaigns stop at the next case boundary
     with a clean diagnostic (reproducers written so far stay on disk)
     instead of a bare backtrace *)
  Sys.catch_break true;
  try
  match apply_jobs jobs with
  | Error e -> `Error (false, e)
  | Ok () ->
  if server_faults then run_server_faults cases out_dir
  else
  let ctx = Transform.Register.full_context () in
  let config = { Fuzz.Gen.max_ops; max_depth } in
  match print_case with
  | Some case ->
    let m = Fuzz.Driver.module_for ~config ~seed ~case () in
    Ir.Printer.print_op m;
    `Ok ()
  | None ->
    if flow_diff then run_flow_diff ctx config seed cases out_dir quiet
    else (
    match faults with
    | Some prob when prob < 0.0 || prob > 1.0 ->
      `Error (false, "--faults probability must be within [0, 1]")
    | Some prob -> run_faults ctx config seed cases prob out_dir quiet
    | None ->
    let pipelines =
      match pipeline with
      | Some p -> [ p ]
      | None -> Fuzz.Oracle.default_pipelines
    in
    let on_case i ~failed =
      if not quiet then
        if failed then Fmt.epr "case %d: FAIL@." i
        else if i mod 50 = 0 then Fmt.epr "case %d...@." i
    in
    let profiler = Option.map (fun _ -> Ir.Profiler.create ()) profile in
    let with_profiler f =
      match profiler with
      | None -> f ()
      | Some p -> Ir.Profiler.with_profiler p f
    in
    let stats_r =
      try
        Ok
          (with_profiler (fun () ->
               Fuzz.Driver.run ~config ~pipelines ~shrink:(not no_shrink)
                 ~bisect:(not no_bisect) ?out_dir ~on_case ctx ~seed ~cases ()))
      with Sys.Break -> Error ()
    in
    (* the profiler trace flushes even on an interrupted campaign *)
    (match (profiler, profile) with
    | Some p, Some path -> Ir.Profiler.write p ~path
    | _ -> ());
    match stats_r with
    | Error () ->
      `Error
        ( false,
          "interrupted (SIGINT): partial profiler trace flushed; crash \
           reproducers written so far remain in --out" )
    | Ok stats ->
    let nfail = List.length stats.Fuzz.Driver.s_failures in
    Fmt.pr "otd-fuzz: %d cases, %d failure%s, %.1f s (seed %d)@."
      stats.Fuzz.Driver.s_cases nfail
      (if nfail = 1 then "" else "s")
      stats.Fuzz.Driver.s_seconds seed;
    List.iter
      (fun r ->
        Fmt.pr "  case %d: %a%a%a@." r.Fuzz.Driver.r_case
          Fuzz.Oracle.pp_failure r.Fuzz.Driver.r_failure
          (fun fmt -> function
            | Some c -> Fmt.pf fmt " [bisected: %a]" Fuzz.Bisect.pp_culprit c
            | None -> ())
          r.Fuzz.Driver.r_culprit
          (fun fmt -> function
            | Some p -> Fmt.pf fmt " -> %s" p
            | None -> ())
          r.Fuzz.Driver.r_path)
      stats.Fuzz.Driver.s_failures;
    if nfail = 0 then `Ok () else `Error (false, "fuzzing found failures"))
  with Sys.Break ->
    `Error (false, "interrupted (SIGINT): campaign stopped cleanly")

let flow_diff =
  Arg.(
    value & flag
    & info [ "flow-diff" ]
        ~doc:
          "Run the flow-differential campaign instead of the oracle suite: \
           each case generates a random transform script alongside the \
           payload module and checks that any script the static \
           annotation-flow checker accepts never fails a dynamic \
           annotation-requirement check. \
           Divergence reproducers (the scripts) go to $(b,--out).")

let server_faults =
  Arg.(
    value & flag
    & info [ "server-faults" ]
        ~doc:
          "Run the server fault-injection campaign instead of the oracle \
           suite: boot an in-process $(b,otd-server) daemon on a Unix \
           socket and drive it with a mix of valid jobs, byte-identity \
           canaries, budget busters, crash-poisoned transforms and \
           malformed frames ($(b,--cases) frames total), asserting zero \
           daemon deaths, zero cross-request contamination and a \
           reproducer per contained failure. Reproducers go to $(b,--out).")

let seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let cases =
  Arg.(
    value & opt int 100
    & info [ "cases" ] ~docv:"N" ~doc:"Number of cases to run.")

let max_ops =
  Arg.(
    value
    & opt int Fuzz.Gen.default_config.Fuzz.Gen.max_ops
    & info [ "max-ops" ] ~docv:"N" ~doc:"Op budget per generated function.")

let max_depth =
  Arg.(
    value
    & opt int Fuzz.Gen.default_config.Fuzz.Gen.max_depth
    & info [ "max-depth" ] ~docv:"N" ~doc:"Maximum region-nesting depth.")

let pipeline =
  Arg.(
    value
    & opt (some string) None
    & info [ "pipeline" ] ~docv:"PASSES"
        ~doc:
          "Restrict the differential oracle to this comma-separated \
           pipeline (default: a built-in set ending with the full \
           Case-Study-2 lowering).")

let no_shrink =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")

let no_bisect =
  Arg.(
    value & flag
    & info [ "no-bisect" ]
        ~doc:
          "Skip the action-counter bisection of differential failures. By \
           default each minimized differential failure is replayed under \
           debug counters to name the exact transformation unit (e.g. \
           $(b,pattern index 12 of 40)) whose inclusion flips the outcome; \
           the result is recorded in the reproducer header. Each bisection \
           costs O(log n) pipeline replays.")

let out_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Write minimized crash reproducers into $(docv).")

let print_case =
  Arg.(
    value
    & opt (some int) None
    & info [ "print" ] ~docv:"CASE"
        ~doc:"Print the module generated for (seed, $(docv)) and exit.")

let quiet =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-case progress.")

let profile =
  Arg.(
    value
    & opt ~vopt:(Some "fuzz_profile.json") (some string) None
    & info [ "profile" ] ~docv:"PATH"
        ~doc:"Profile the campaign (pipeline/pass/greedy spans across all \
              cases) and write Chrome trace-event JSON to $(docv).")

let faults =
  Arg.(
    value
    & opt ~vopt:(Some 0.2) (some float) None
    & info [ "faults" ] ~docv:"P"
        ~doc:
          "Run the fault-injection campaign instead of the oracle suite: \
           registered transforms fail or raise $(i,after) mutating the \
           payload with probability $(docv) per application, and every \
           case asserts the recovery invariants (byte-identical rollback, \
           verifier-clean IR, contained exceptions).")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Fan campaign cases over $(docv) domains. $(b,--jobs=1) runs \
              fully sequential (no pool); $(b,--jobs=0) auto-sizes to the \
              runtime's recommended domain count. Defaults to $(b,OTD_JOBS), \
              else 1. Failures, reproducers and case order are identical at \
              every degree.")

let cmd =
  let doc = "property-based IR fuzzer and differential tester" in
  Cmd.v
    (Cmd.info "otd-fuzz" ~doc)
    Term.(
      ret
        (const run $ seed $ cases $ max_ops $ max_depth $ pipeline $ no_shrink
        $ no_bisect $ out_dir $ print_case $ quiet $ profile $ faults
        $ flow_diff $ server_faults $ jobs))

let () = exit (Cmd.eval cmd)
