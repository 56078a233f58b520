(** Passes and the pass manager.

    A pass is a named IR transformation with declared pre-/post-conditions
    (the op kinds it consumes and introduces — Section 3.3 of the paper).
    The registry makes passes available both to classic pass-manager
    pipelines and to [transform.apply_registered_pass].

    The pass manager is instrumented: an {!instrumentation} record exposes
    [before_pass]/[after_pass]/[on_failure] hooks, with built-in
    instrumentations for IR printing after each pass, per-pass op-count
    deltas, and a crash reproducer. Failures are structured {!Ir.Diag.t}
    diagnostics rather than strings or exceptions. Time is measured only by
    the {!Ir.Profiler} span around each pipeline and pass;
    {!Ir.Profiler.timing} renders those spans as a tree. Every pass run,
    in a pipeline or from a transform script, goes through {!run_one};
    the pass manager does not verify between passes, since a job verifies
    its whole input and output.

    Lowering passes declare a conversion {!table} (op name → rewrite) and
    run on the one conversion driver, {!convert}: a single snapshot walk,
    each rewrite a [conversion] action, counted and remarked in one
    place. *)

open Ir

type t = {
  name : string;
  summary : string;
  pre : Opset.t;  (** op kinds consumed/removed by this pass *)
  post : Opset.t;  (** op kinds (potentially) introduced by this pass *)
  function_parallel : bool;
      (** the pass only reads and mutates the subtree it is given, so the
          scheduler may fan it across the isolated-from-above functions of
          a module on the domain pool *)
  run : Context.t -> Ircore.op -> (unit, Diag.t) result;
      (** runs on any op (module or function); must be idempotent on IR that
          contains none of [pre] *)
}

let make ?(summary = "") ?(pre = []) ?(post = []) ?(function_parallel = false)
    ~name run =
  { name; summary; pre; post; function_parallel; run }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let register p =
  if Hashtbl.mem registry p.name then
    invalid_arg (Fmt.str "pass %s already registered" p.name);
  Hashtbl.replace registry p.name p

let lookup name = Hashtbl.find_opt registry name

let lookup_exn name =
  match lookup name with
  | Some p -> p
  | None -> invalid_arg (Fmt.str "unknown pass %s" name)

let all_registered () =
  Hashtbl.fold (fun _ p acc -> p :: acc) registry []
  |> List.sort (fun a b -> compare a.name b.name)

let pipeline_str passes = String.concat "," (List.map (fun p -> p.name) passes)

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type instrumentation = {
  i_before_pass : t -> Ircore.op -> unit;
  i_after_pass : t -> Ircore.op -> unit;
  i_on_failure : t -> Ircore.op -> remaining:t list -> Diag.t -> unit;
      (** [remaining] is the failing pass followed by the passes that did
          not run — exactly the pipeline suffix a reproducer must re-run *)
}

let nop2 _ _ = ()
let nop_failure _ _ ~remaining:_ _ = ()

let instrumentation ?(before_pass = nop2) ?(after_pass = nop2)
    ?(on_failure = nop_failure) () =
  {
    i_before_pass = before_pass;
    i_after_pass = after_pass;
    i_on_failure = on_failure;
  }

(** Print the IR after each pass (mlir-opt's [-print-ir-after-all]). With
    [only_changed], dumps are gated on {!Ir.Fingerprint} inequality: a pass
    that left the module structurally identical prints nothing
    ([--print-ir-after-all=always] restores the old behavior). *)
let print_ir_after_all ?(only_changed = false) () =
  let before = ref None in
  instrumentation
    ~before_pass:(fun _ op ->
      if only_changed then before := Some (Fingerprint.op op))
    ~after_pass:(fun p op ->
      let changed =
        (not only_changed)
        ||
        match !before with
        | Some fp -> not (Fingerprint.equal fp (Fingerprint.op op))
        | None -> true
      in
      if changed then
        Fmt.epr "// -----// IR dump after pass '%s' //----- //@.%a@." p.name
          Printer.pp_op op)
    ()

let count_ops_by_name op =
  let counts = Util.Stbl.create 64 in
  Ircore.walk
    (fun o ->
      match Util.Stbl.find counts o.Ircore.op_name with
      | n -> Util.Stbl.replace counts o.Ircore.op_name (n + 1)
      | exception Not_found -> Util.Stbl.add counts o.Ircore.op_name 1)
    op;
  counts

(** Per-pass op-count deltas: returns the instrumentation plus a getter
    yielding, per executed pass in order, the op kinds whose population
    changed (op name, signed delta). An instance serves one pipeline run:
    the pass manager calls its hooks on one root, and nothing edits the
    root between one pass's [after] hook and the next pass's [before]
    hook, so the count taken after a pass is the count before the next
    one and each pass boundary walks the module once. *)
let op_count_deltas () =
  (* the root and op counts of the last [after] hook *)
  let last = ref None in
  let before = ref (Util.Stbl.create 0) in
  let deltas = ref [] in
  let record p op =
    let after = count_ops_by_name op in
    let delta = ref [] in
    Util.Stbl.iter
      (fun name n ->
        let was =
          match Util.Stbl.find !before name with
          | was -> was
          | exception Not_found -> 0
        in
        if n <> was then delta := (name, n - was) :: !delta)
      after;
    Util.Stbl.iter
      (fun name was ->
        if not (Util.Stbl.mem after name) then delta := (name, -was) :: !delta)
      !before;
    deltas := (p.name, List.sort compare !delta) :: !deltas;
    last := Some (op, after)
  in
  let instr =
    instrumentation
      ~before_pass:(fun _ op ->
        before :=
          match !last with
          | Some (root, counts) when root == op -> counts
          | _ -> count_ops_by_name op)
      ~after_pass:record
      ~on_failure:(fun p op ~remaining:_ _ -> record p op)
      ()
  in
  (instr, fun () -> List.rev !deltas)

let pp_op_deltas fmt deltas =
  List.iter
    (fun (pass, delta) ->
      match delta with
      | [] -> ()
      | _ ->
        Fmt.pf fmt "// pass %s:%a@," pass
          (fun fmt ->
            List.iter (fun (name, d) -> Fmt.pf fmt " %s%+d" name d))
          delta)
    deltas

let pp_op_deltas fmt deltas = Fmt.pf fmt "@[<v>%a@]" pp_op_deltas deltas

let op_deltas_to_json deltas =
  Json.List
    (List.map
       (fun (pass, delta) ->
         Json.Obj
           [
             ("pass", Json.String pass);
             ( "deltas",
               Json.Obj (List.map (fun (n, d) -> (n, Json.Int d)) delta) );
           ])
       deltas)

(** Crash reproducer: snapshots the IR before each pass; when a pass fails,
    dumps the pre-pass IR and the remaining pipeline to [path] so that
    [otd-opt <path>] replays the failure. *)
let reproducer ~path =
  let last_ir = ref None in
  instrumentation
    ~before_pass:(fun _ op -> last_ir := Some (Printer.op_to_string op))
    ~on_failure:(fun p _op ~remaining d ->
      match !last_ir with
      | None -> ()
      | Some ir ->
        Reproducer.write ~path
          (Reproducer.text ~title:"otd-opt crash reproducer"
             [
               "failing pass: " ^ p.name;
               "diagnostic: " ^ Diag.to_string d;
               Reproducer.pipeline_note (pipeline_str remaining);
             ]
             ir))
    ()

(* ------------------------------------------------------------------ *)
(* Pass manager                                                        *)
(* ------------------------------------------------------------------ *)

(** What a successful pipeline returns: nothing; its timing is in the
    {!Ir.Profiler} spans. Named by callers outside this library. *)
type run_result = unit

(* global statistics (Ir.Stats) *)
let stat_pipelines = Stats.counter ~component:"pass" "pipelines_run"
let stat_passes = Stats.counter ~component:"pass" "passes_run"
let stat_failures = Stats.counter ~component:"pass" "failures"

let stat_exceptions_contained =
  Stats.counter ~component:"pass" "exceptions_contained"
    ~desc:"OCaml exceptions converted to pass failures by the barrier"

(** Why one pass run failed: the pass (or the budget) reported an error,
    or the pass raised and the barrier contained the exception. Callers
    that tell recoverable failures from crashes, such as
    [transform.apply_registered_pass], match on it. *)
type failure = Failed of Diag.t | Raised of Diag.t

(** Run a single pass behind an exception barrier: a raised OCaml exception
    becomes a structured pass-failure diagnostic carrying the backtrace as
    notes, so the failure drives the crash-reproducer instrumentation
    instead of unwinding with the IR in an arbitrary state. This is the one
    call of a pass's [run]. *)
let run_contained p ctx op =
  match p.run ctx op with
  | Ok () -> Ok ()
  | Error d -> Stdlib.Error (Failed d)
  | exception e when not (Diag.fatal_exn e) ->
    let bt = Printexc.get_raw_backtrace () in
    Stats.incr stat_exceptions_contained;
    Stdlib.Error
      (Raised (Diag.of_exn ~context:(Fmt.str "pass '%s'" p.name) e bt))

(* ------------------------------------------------------------------ *)
(* Function-at-a-time parallel scheduling                              *)
(* ------------------------------------------------------------------ *)

let stat_parallel_fanouts =
  Stats.counter ~component:"pass" "parallel_fanouts"
    ~desc:"passes fanned across module functions on the domain pool"

(** The isolated-from-above ops a per-function pass may be fanned over:
    the direct children of a [builtin.module] whose single block consists
    solely of [func.func] ops (two or more — one function has nothing to
    overlap with). Any other child shape falls back to the sequential
    whole-module run. *)
let isolated_funcs op =
  if op.Ircore.op_name <> Dialects.Builtin.module_op then None
  else
    match op.Ircore.regions with
    | [ r ] -> (
      match Ircore.region_blocks r with
      | [ b ] ->
        let ops = Ircore.block_ops b in
        if
          List.compare_length_with ops 1 > 0
          && List.for_all (fun o -> o.Ircore.op_name = Dialects.Func.func_op) ops
        then Some ops
        else None
      | _ -> None)
    | _ -> None

(** Fan [p] across [funcs] on the domain pool, one task per function.

    Determinism: each task runs with its own ambient captures — a per-task
    diagnostic buffer ({!Diag.with_domain_capture}) and, under a parent
    action context, an {!Action.capture} holding its journal, trace events
    and remarks — while sharing the parent's budget (atomic counters, so
    limits bind globally and exhaustion on one domain stops the others at
    their next check) and the parent's profiler (domain-sharded, so spans
    land in per-domain Perfetto lanes). After the barrier, the captured
    diagnostics and actions are replayed in source order on the calling
    domain, and the reported failure is the first failing function in
    source order — byte-identical output to the sequential schedule
    regardless of interleaving. *)
let run_parallel p ctx funcs =
  Stats.incr stat_parallel_fanouts;
  let arr = Array.of_list funcs in
  let n = Array.length arr in
  let results = Array.make n (Ok ()) in
  let diags = Array.make n [] in
  let captures = Array.make n None in
  let parent_budget = Budget.active () in
  let parent_profiler = Profiler.active () in
  let parent_action = Action.active () in
  Pool.run n (fun i ->
      let func = arr.(i) in
      let dbuf = ref [] in
      let with_budget f =
        match parent_budget with
        | None -> f ()
        | Some b -> Budget.with_budget b f
      in
      let with_prof f =
        match parent_profiler with
        | None -> f ()
        | Some pr -> Profiler.with_profiler pr f
      in
      let with_action f =
        (* like diagnostics: record actions, notes and provenance into a
           per-task capture, replayed in source order after the barrier *)
        match parent_action with
        | None -> f ()
        | Some a ->
          let c = Action.capture a in
          captures.(i) <- Some c;
          Action.with_context c f
      in
      let r =
        Diag.with_domain_capture (fun d -> dbuf := d :: !dbuf) @@ fun () ->
        with_budget @@ fun () ->
        with_prof @@ fun () ->
        with_action @@ fun () -> run_contained p ctx func
      in
      results.(i) <- r;
      diags.(i) <- List.rev !dbuf);
  (* ordered merge: replay what each function captured, in source order *)
  let eng = Context.diag_engine ctx in
  let first_error = ref None in
  for i = 0 to n - 1 do
    List.iter (Diag.emit eng) diags.(i);
    (match (parent_action, captures.(i)) with
    | Some a, Some c -> Action.replay a c
    | _ -> ());
    match (results.(i), !first_error) with
    | Stdlib.Error d, None -> first_error := Some d
    | _ -> ()
  done;
  match !first_error with Some d -> Stdlib.Error d | None -> Ok ()

(** Run one pass over [op], parallelizing across module functions when the
    pass allows it and more than one domain is configured. *)
let run_scheduled p ctx op =
  match
    (* action handlers (debug counters, snapshots) steer a globally ordered
       action stream; with one installed the fan-out must not happen *)
    if
      p.function_parallel && Pool.jobs () > 1
      && not (Action.sequential_only ())
    then isolated_funcs op
    else None
  with
  | Some funcs -> run_parallel p ctx funcs
  | None -> run_contained p ctx op

(** Run one pass over [op]: the one runner behind both the pass manager
    and [transform.apply_registered_pass], so every pass run is budgeted,
    observed and scheduled the same way. In order:

    - a forced {!Ir.Budget.checkpoint}: a pass boundary is a safe point to
      give up, and an exhausted budget fails the pass before it starts;
    - an {!Ir.Profiler} span named after the pass, around a [pass] action
      ({!Ir.Action.run}) around {!run_scheduled}, which fans the pass
      across a module's functions when it allows it and contains raised
      exceptions;
    - the [pass/passes_run] count of a pass that succeeded.

    It does not verify: a job verifies its whole input and output. *)
let run_one p ctx op : (unit, failure) result =
  match Budget.checkpoint () with
  | Some reason ->
    Stdlib.Error
      (Failed (Diag.error "pass pipeline stopped before '%s': %s" p.name reason))
  | None ->
    let r =
      Profiler.span ~cat:"pass" p.name (fun () ->
          (* the pass-level action: a vetoed pass reports success, exactly
             like a pass that matched nothing *)
          Action.run ~tag:"pass" ~desc:p.name ~loc:op.Ircore.op_loc ~root:op
            ~skipped:(Ok ())
            (fun () -> run_scheduled p ctx op))
    in
    if Result.is_ok r then Stats.incr stat_passes;
    r

(** Run a pipeline of passes over [op] with {!run_one}, driving the given
    instrumentations and reporting to the ambient observability channels:
    an {!Ir.Profiler} span around the pipeline (the passes' spans nest in
    it) and the [pass] statistics of {!Ir.Stats}. Passes declared
    [function_parallel] are fanned across a module's functions on the
    {!Ir.Pool} domain pool (when [Pool.jobs () > 1]) with deterministic,
    source-ordered merging of diagnostics, trace events and remarks.
    Returns the first failure as a structured diagnostic (with a note
    naming the failing pass). *)
let run_pipeline ?(instrumentations = []) ctx passes op
    : (unit, Diag.t) result =
  Stats.incr stat_pipelines;
  Profiler.span ~cat:"pass"
    ~args:[ ("passes", Profiler.Aint (List.length passes)) ]
    "pipeline"
  @@ fun () ->
  let rec go = function
    | [] -> Ok ()
    | p :: rest -> (
      List.iter (fun i -> i.i_before_pass p op) instrumentations;
      match run_one p ctx op with
      | Ok () ->
        List.iter (fun i -> i.i_after_pass p op) instrumentations;
        go rest
      | Error (Failed d | Raised d) ->
        (* the failing pass and the unfinished suffix are exactly what a
           reproducer must re-run *)
        Stats.incr stat_failures;
        let d = Diag.add_note d (Diag.note "while running pass '%s'" p.name) in
        List.iter (fun i -> i.i_on_failure p op ~remaining:(p :: rest) d)
          instrumentations;
        Stdlib.Error d)
  in
  go passes

(** Parse a comma-separated pipeline string, e.g.
    ["convert-scf-to-cf,convert-arith-to-llvm"]. Unknown pass names are all
    accumulated into a single diagnostic carrying one note per bad segment
    with its position in the string. *)
let parse_pipeline str =
  (* split on ',' keeping the offset of each trimmed segment *)
  let segments =
    let out = ref [] in
    let seg_start = ref 0 in
    let flush stop =
      let raw = String.sub str !seg_start (stop - !seg_start) in
      let trimmed = String.trim raw in
      if trimmed <> "" then begin
        (* offset of the trimmed name within [str] *)
        let lead = ref 0 in
        while
          !lead < String.length raw
          && (raw.[!lead] = ' ' || raw.[!lead] = '\t')
        do
          incr lead
        done;
        out := (trimmed, !seg_start + !lead) :: !out
      end;
      seg_start := stop + 1
    in
    String.iteri (fun i c -> if c = ',' then flush i) str;
    flush (String.length str);
    List.rev !out
  in
  let resolved =
    List.map
      (fun (name, off) ->
        match lookup name with
        | Some p -> Ok p
        | None -> Stdlib.Error (name, off))
      segments
  in
  let unknown =
    List.filter_map
      (function Stdlib.Error bad -> Some bad | Ok _ -> None)
      resolved
  in
  match unknown with
  | [] ->
    Ok (List.filter_map (function Ok p -> Some p | Error _ -> None) resolved)
  | bad ->
    Stdlib.Error
      (Diag.error
         ~notes:
           (List.map
              (fun (name, off) ->
                Diag.note "unknown pass '%s' at position %d" name off)
              bad)
         "pipeline contains %d unknown pass%s: %s" (List.length bad)
         (if List.length bad = 1 then "" else "es")
         (String.concat ", " (List.map fst bad)))

(* ------------------------------------------------------------------ *)
(* The conversion driver                                               *)
(* ------------------------------------------------------------------ *)

(** A lowering's conversion table: each op name it handles, with the
    rewrite that replaces or erases one such op (or declines by leaving it
    in place). *)
type table = (string * (Rewriter.t -> Ircore.op -> unit)) list

(** The exact op kinds [table] consumes, in table order: the [~pre] of a
    pass that converts precisely its table's keys. *)
let table_pre (table : table) =
  List.map (fun (name, _) -> Opset.exact name) table

(* global statistics (Ir.Stats): every conversion step that removed its op
   counts it, so `--stats` reports the conversion volume of a lowering *)
let stat_ops_converted = Stats.counter ~component:"conversions" "ops_converted"

(** One conversion step: [rewrite rw op] as a [conversion] action. When
    the rewrite removed [op] it is counted in [conversions/ops_converted]
    and reported by a "converted" remark of [pass]. Returns whether [op]
    was converted ([false] when the rewrite declined or a handler vetoed
    the action). *)
let convert_op ~pass rw rewrite (op : Ircore.op) =
  Action.run ~tag:"conversion" ~desc:op.Ircore.op_name ~loc:op.Ircore.op_loc
    ~root:op ~skipped:false (fun () ->
      rewrite rw op;
      let converted = Option.is_none (Ircore.op_parent op) in
      if converted then begin
        Stats.incr stat_ops_converted;
        if Action.enabled () then
          Action.remark
            (Remark.passed ~pass ~loc:op.Ircore.op_loc "converted %s"
               op.Ircore.op_name)
      end;
      converted)

(** The conversion driver: one pre-order walk of [top]'s subtree (the root
    excluded) snapshots every op whose name is a key of [table]; then each
    snapshotted op that is still attached (an earlier rewrite may have
    erased it) goes through {!convert_op}, in walk order. The ambient
    {!Ir.Budget} deadline is polled per op; an exhausted budget stops the
    conversion with an error, so a half-converted subtree is never
    reported as lowered. *)
let convert ~pass (table : table) top =
  let rewrites = Util.Stbl.create (List.length table) in
  List.iter (fun (name, f) -> Util.Stbl.replace rewrites name f) table;
  let matched = ref [] in
  Ircore.walk
    (fun op ->
      if not (op == top) then
        match Util.Stbl.find_opt rewrites op.Ircore.op_name with
        | Some f -> matched := (op, f) :: !matched
        | None -> ())
    top;
  let rw = Rewriter.create () in
  let rec go = function
    | [] -> Ok ()
    | (op, f) :: rest -> (
      match Budget.poll () with
      | Some reason -> Diag.fail "%s stopped early: %s" pass reason
      | None ->
        if Option.is_some (Ircore.op_parent op) then
          ignore (convert_op ~pass rw f op);
        go rest)
  in
  go (List.rev !matched)

(** A pass that runs {!convert} with [table]; [pre] defaults to the table's
    keys, so an exact consumed set is written once. *)
let conversion ?summary ?pre ?post ?function_parallel ~name table =
  make ?summary
    ~pre:(Option.value pre ~default:(table_pre table))
    ?post ?function_parallel ~name
    (fun _ctx top -> convert ~pass:name table top)
