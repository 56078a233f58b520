(** Action framework: interceptable transformation units.

    Every transformation unit in the system — a pass run, a greedy pattern
    application or fold, a DCE erasure, a constant materialization, a
    conversion rewrite, a transform-op dispatch — is routed through this
    module before executing. Like {!Profiler} the framework is ambient and
    domain-local: {!with_context} installs a context for a dynamic extent,
    and with no context installed every action site is a single
    domain-local read followed by a direct call (the cost is measured by
    [bench … action] into [BENCH_action.json]).

    A context always records a structured journal of the actions that
    flowed through it (rendered as JSONL via {!Json}, correlated with
    {!Profiler} timestamps and surfaced as [action/*] counters in
    {!Stats}) and the {e notes} its units report: {!Trace} events and
    optimization {!Remark}s, in emission order ({!trace}, {!remark}). It
    optionally also:

    - consults a stack of {!handler}s. Handlers can veto execution
      ({!counters_handler} implements MLIR DebugCounter semantics:
      [TAG:skip,count] skips the first [skip] actions of [TAG], executes
      the next [count], and skips the rest — the bisection primitive
      behind [otd_opt --debug-counter] and the fuzz shrinker) and can
      bracket execution ({!snapshot_handler} fingerprints the enclosing
      module's functions before/after each action and emits a line diff of
      the changed ones, behind [--print-ir-after-change] /
      [--snapshot-after-change]).
    - records per-op {e provenance}: which action created, modified,
      replaced or erased each op, fed by the ambient {!Rewriter} listener
      events, dumpable as JSON ([otd_opt --provenance]) and queryable
      ([otd_check --provenance]).

    Handlers observe (and steer) the globally ordered action stream, so
    when any handler is installed the pass manager declines to fan out
    across domains ({!sequential_only}). Journal, note and provenance
    recording are order-independent per task: the parallel pass manager
    gives each task a {!capture} child context and {!replay}s them in
    source order after the barrier, so journals, traces, remarks and
    provenance dumps are deterministic at any [--jobs=N] — the same
    discipline diagnostics use.

    Interaction with transactional execution: when the transform
    interpreter rolls a payload back ([transform.alternatives],
    [sequence failures(suppress)]), the actions whose effects were undone
    are not deleted from the journal — they are re-marked {!Reverted} (see
    {!cursor} / {!revert_since}), so the journal tells the truth about
    both what ran and what survived. *)

type outcome = Executed | Skipped | Failed | Reverted

type entry = {
  mutable e_index : int;  (** global sequence number within the context *)
  e_tag : string;
  mutable e_tag_index : int;  (** sequence number among actions of this tag *)
  e_desc : string;  (** unit description, e.g. pattern or pass name *)
  e_loc : Loc.t;  (** location of the unit's root op *)
  mutable e_depth : int;
      (** action nesting depth at entry; re-based on {!replay} *)
  mutable e_outcome : outcome;
  mutable e_us : float;  (** wall-clock duration, microseconds *)
  e_ts : float;  (** ambient {!Profiler} timestamp at entry; -1 when none *)
}

(** What a handler is shown about a unit before it runs. *)
type info = {
  i_tag : string;
  i_desc : string;
  i_loc : Loc.t;
  i_root : Ircore.op;  (** the op the unit is anchored at *)
  i_index : int;
  i_tag_index : int;
}

type handler = {
  h_decide : info -> bool;  (** [false] vetoes execution (unit is skipped) *)
  h_enter : info -> unit;  (** before the unit runs (outermost first) *)
  h_exit : info -> ok:bool -> unit;
      (** after the unit ran; called even when it raised ([ok = false]) *)
}

type pkind = Created | Modified | Erased | Replaced

type pevent = {
  pe_action : entry option;  (** innermost action active at the event *)
  pe_kind : pkind;
}

type precord = {
  pr_op : string;
  pr_loc : Loc.t;
  mutable pr_events : pevent list;  (** newest first *)
}

(** What a unit reports besides its journal entry. *)
type note = Traced of Trace.event | Remarked of Remark.t

type t = {
  mutable a_entries : entry list;  (** journal, newest first *)
  mutable a_notes : note list;  (** newest first *)
  mutable a_next : int;
  a_tag_counts : (string, int ref) Hashtbl.t;
  mutable a_stack : entry list;  (** currently open actions, innermost first *)
  mutable a_handlers : handler list;  (** top of stack first *)
  a_prov : (int, precord) Hashtbl.t option;  (** op id → provenance *)
}

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stat_executed = Stats.counter ~component:"action" "executed"
let stat_skipped = Stats.counter ~component:"action" "skipped"

let stat_failed =
  Stats.counter ~component:"action" "failed"
    ~desc:"actions whose unit raised (contained by the caller's barrier)"

let stat_reverted =
  Stats.counter ~component:"action" "reverted"
    ~desc:"executed actions undone by a checkpoint rollback"

(* per-tag [action/<tag>] counters, interned lazily on first use *)
let tag_counters : (string, Stats.counter) Hashtbl.t = Hashtbl.create 16
let tag_mu = Mutex.create ()

let tag_counter tag =
  Mutex.lock tag_mu;
  let c =
    match Hashtbl.find_opt tag_counters tag with
    | Some c -> c
    | None ->
      let c =
        Stats.counter ~component:"action" tag
          ~desc:(Printf.sprintf "transformation units tagged '%s'" tag)
      in
      Hashtbl.add tag_counters tag c;
      c
  in
  Mutex.unlock tag_mu;
  c

(* ------------------------------------------------------------------ *)
(* Context construction                                                *)
(* ------------------------------------------------------------------ *)

(** Debug-counter specification for one tag: skip the first [cs_skip]
    actions, execute the next [cs_count], skip the rest. *)
type counter_spec = { cs_tag : string; cs_skip : int; cs_count : int }

(** Parse a [--debug-counter] argument: [TAG:SKIP] (execute everything
    after the first [SKIP]) or [TAG:SKIP,COUNT]. *)
let parse_counter s : (counter_spec, string) result =
  let invalid () =
    Error
      (Printf.sprintf
         "invalid --debug-counter %S (expected TAG:SKIP or TAG:SKIP,COUNT)" s)
  in
  match String.index_opt s ':' with
  | None -> invalid ()
  | Some i -> (
    let tag = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let skip, count =
      match String.index_opt rest ',' with
      | None -> (int_of_string_opt rest, Some max_int)
      | Some j ->
        ( int_of_string_opt (String.sub rest 0 j),
          int_of_string_opt
            (String.sub rest (j + 1) (String.length rest - j - 1)) )
    in
    match (skip, count) with
    | Some sk, Some ct when tag <> "" && sk >= 0 && ct >= 0 ->
      Ok { cs_tag = tag; cs_skip = sk; cs_count = ct }
    | _ -> invalid ())

(** The DebugCounter handler: for tags with a spec, only tag occurrences
    [skip .. skip+count-1] execute; every other occurrence is skipped.
    Tags without a spec always execute. *)
let counters_handler specs =
  let tbl = Hashtbl.create 8 in
  List.iter (fun cs -> Hashtbl.replace tbl cs.cs_tag cs) specs;
  {
    h_decide =
      (fun info ->
        match Hashtbl.find_opt tbl info.i_tag with
        | None -> true
        | Some cs ->
          info.i_tag_index >= cs.cs_skip
          && info.i_tag_index - cs.cs_skip < cs.cs_count);
    h_enter = ignore;
    h_exit = (fun _ ~ok:_ -> ());
  }

type snapshot_mode =
  | Snap_print of Format.formatter  (** diff of changed functions *)
  | Snap_dir of string  (** one .mlir snapshot file per changing action *)

type snapshot_config = {
  sn_tags : string list;  (** action tags to snapshot around *)
  sn_mode : snapshot_mode;
}

let default_snapshot_tags = [ "pass"; "transform" ]

let rec top_op op =
  match Ircore.parent_op op with Some p -> top_op p | None -> op

let unit_key op =
  match Symbol.symbol_name op with
  | Some s -> "@" ^ s
  | None -> op.Ircore.op_name

(* the units we diff independently: the named top-level ops of the
   enclosing module (so only the changed function is shown), or the top op
   itself when it has none *)
let snapshot_units top =
  let named = ref [] in
  Ircore.iter_children
    (fun o -> if Symbol.symbol_name o <> None then named := o :: !named)
    top;
  if !named = [] then [ top ] else List.rev !named

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    s

(** The IR-change snapshot handler: around each action whose tag is in
    [sn_tags], fingerprint every snapshot unit of the enclosing module;
    when an action actually changed one ({!Fingerprint} inequality), emit
    either a line diff of the changed units ([Snap_print]) or a snapshot
    file under the directory ([Snap_dir]). Actions that change nothing
    emit nothing. When tagged actions on one module nest ([pattern] inside
    [pass] under custom tags), each change is emitted once, by the
    innermost action that made it: a nested dump re-bases the enclosing
    open actions on the units it showed. *)
let snapshot_handler cfg =
  let stack = ref [] in
  let matches info = List.mem info.i_tag cfg.sn_tags in
  let capture root =
    let top = top_op root in
    ( top,
      List.map
        (fun u -> (unit_key u, Fingerprint.op u, Printer.op_to_string u))
        (snapshot_units top) )
  in
  let has k units = List.exists (fun (k0, _, _) -> String.equal k0 k) units in
  (* the units [after] changed or added, and the units it removed *)
  let changes before after =
    ( List.filter
        (fun (k, fp, _) ->
          match List.find_opt (fun (k0, _, _) -> String.equal k0 k) before with
          | Some (_, fp0, _) -> not (Fingerprint.equal fp fp0)
          | None -> true)
        after,
      List.filter (fun (k, _, _) -> not (has k after)) before )
  in
  (* an enclosing frame, re-based on a nested action's dump: the units the
     dump showed take their dumped state, so the enclosing action shows only
     what it changed besides *)
  let rebase (changed, removed) (top, before) =
    ( top,
      List.filter (fun (k, _, _) -> not (has k changed || has k removed)) before
      @ changed )
  in
  let emit info before (changed_or_new, removed) =
    if changed_or_new <> [] || removed <> [] then begin
      let label =
        if info.i_desc = "" then info.i_tag
        else Printf.sprintf "%s '%s'" info.i_tag info.i_desc
      in
      match cfg.sn_mode with
      | Snap_print ppf ->
        List.iter
          (fun (k, _, text) ->
            Format.fprintf ppf
              "// -----// IR dump after action #%d %s (%s) //----- //@\n"
              info.i_index label k;
            let body =
              match
                List.find_opt (fun (k0, _, _) -> String.equal k0 k) before
              with
              | Some (_, _, text0) -> (
                match Diffp.diff text0 text with
                | Some d -> d
                (* fingerprints differed but the printed text did not
                   (e.g. a location-only change): show the full unit *)
                | None -> text ^ "\n")
              | None -> text ^ "\n"
            in
            Format.fprintf ppf "%s" body)
          changed_or_new;
        List.iter
          (fun (k, _, _) ->
            Format.fprintf ppf
              "// -----// IR dump after action #%d %s (%s erased) //----- //@\n"
              info.i_index label k)
          removed;
        Format.pp_print_flush ppf ()
      | Snap_dir dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path =
          Filename.concat dir
            (Printf.sprintf "act-%06d-%s.mlir" info.i_index
               (sanitize
                  (if info.i_desc = "" then info.i_tag
                   else info.i_tag ^ "-" ^ info.i_desc)))
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Printf.fprintf oc "// IR snapshot after action #%d %s\n"
              info.i_index label;
            List.iter
              (fun (k, _, text) ->
                Printf.fprintf oc "// changed: %s\n%s\n" k text)
              changed_or_new;
            List.iter
              (fun (k, _, _) -> Printf.fprintf oc "// erased: %s\n" k)
              removed)
    end
  in
  {
    h_decide = (fun _ -> true);
    h_enter =
      (fun info -> if matches info then stack := capture info.i_root :: !stack);
    h_exit =
      (fun info ~ok ->
        if matches info then
          match !stack with
          | [] -> ()
          | (top, before) :: rest ->
            stack := rest;
            if ok then begin
              let after =
                List.map
                  (fun u ->
                    (unit_key u, Fingerprint.op u, Printer.op_to_string u))
                  (snapshot_units top)
              in
              let ch = changes before after in
              emit info before ch;
              (* each change is dumped once, by the innermost tagged action
                 that made it *)
              stack :=
                List.map
                  (fun ((top', _) as frame) ->
                    if top' == top then rebase ch frame else frame)
                  !stack
            end);
  }

let create ?(counters = []) ?snapshot ?(provenance = false) () =
  let handlers =
    (match snapshot with Some cfg -> [ snapshot_handler cfg ] | None -> [])
    @ (if counters = [] then [] else [ counters_handler counters ])
  in
  {
    a_entries = [];
    a_notes = [];
    a_next = 0;
    a_tag_counts = Hashtbl.create 8;
    a_stack = [];
    a_handlers = handlers;
    a_prov = (if provenance then Some (Hashtbl.create 64) else None);
  }

(** Push a custom handler on top of [t]'s stack (consulted first). *)
let push_handler t h = t.a_handlers <- h :: t.a_handlers

(** Pop the most recently pushed handler. *)
let pop_handler t =
  match t.a_handlers with [] -> () | _ :: rest -> t.a_handlers <- rest

(* ------------------------------------------------------------------ *)
(* Ambient context (domain-local)                                      *)
(* ------------------------------------------------------------------ *)

let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(** This domain's ambient context, if any. *)
let active () = Domain.DLS.get current

(** True when a context is installed. Emission sites guard trace-event
    and remark construction with this so the disabled path allocates
    nothing. *)
let enabled () = Domain.DLS.get current <> None

(** Handlers steer a globally ordered action stream: when any is
    installed the pass manager must not fan out across domains. Journal
    and provenance recording parallelise through {!capture}/{!replay}. *)
let sequential_only () =
  match Domain.DLS.get current with
  | None -> false
  | Some t -> t.a_handlers <> []

(* provenance listener: attributes rewriter events to the innermost open
   action of [t] (or to no action, for mutations outside any unit) *)
let prov_listener t tbl =
  let record kind (op : Ircore.op) =
    let pr =
      match Hashtbl.find_opt tbl op.Ircore.op_id with
      | Some pr -> pr
      | None ->
        let pr =
          { pr_op = op.Ircore.op_name; pr_loc = op.Ircore.op_loc;
            pr_events = [] }
        in
        Hashtbl.add tbl op.Ircore.op_id pr;
        pr
    in
    pr.pr_events <-
      {
        pe_action = (match t.a_stack with e :: _ -> Some e | [] -> None);
        pe_kind = kind;
      }
      :: pr.pr_events
  in
  {
    Rewriter.on_inserted = record Created;
    on_replaced = (fun op _ -> record Replaced op);
    on_erased = record Erased;
    on_modified = record Modified;
  }

(** Install [t] as this domain's ambient action context while [f] runs.
    When [t] records provenance, an ambient rewriter listener is installed
    for the same extent. *)
let with_context t f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set current saved)
    (fun () ->
      match t.a_prov with
      | None -> f ()
      | Some tbl -> Rewriter.with_listener (prov_listener t tbl) f)

(** Run [f] with no ambient context (benchmarks measure the disabled path
    under an outer context this way). *)
let with_disabled f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current None;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

(* ------------------------------------------------------------------ *)
(* Routing units                                                       *)
(* ------------------------------------------------------------------ *)

let next_tag_index t tag =
  match Hashtbl.find_opt t.a_tag_counts tag with
  | Some r ->
    let i = !r in
    r := i + 1;
    i
  | None ->
    Hashtbl.add t.a_tag_counts tag (ref 1);
    0

(** Route one unit through context [t]. Prefer {!run} at instrumentation
    sites; hot paths that want a zero-allocation disabled branch match on
    {!active} themselves and call this on the context. *)
let run_on t ~tag ~desc ~loc ~root ~skipped f =
  let index = t.a_next in
  t.a_next <- index + 1;
  let tag_index = next_tag_index t tag in
  let info =
    { i_tag = tag; i_desc = desc; i_loc = loc; i_root = root;
      i_index = index; i_tag_index = tag_index }
  in
  let execute = List.for_all (fun h -> h.h_decide info) t.a_handlers in
  let e =
    {
      e_index = index;
      e_tag = tag;
      e_tag_index = tag_index;
      e_desc = desc;
      e_loc = loc;
      e_depth = List.length t.a_stack;
      e_outcome = Skipped;
      e_us = 0.;
      e_ts = (match Profiler.timestamp () with Some ts -> ts | None -> -1.);
    }
  in
  t.a_entries <- e :: t.a_entries;
  Stats.incr (tag_counter tag);
  if not execute then begin
    Stats.incr stat_skipped;
    skipped
  end
  else begin
    Stats.incr stat_executed;
    List.iter (fun h -> h.h_enter info) (List.rev t.a_handlers);
    t.a_stack <- e :: t.a_stack;
    let t0 = Unix.gettimeofday () in
    let finish ok =
      (match t.a_stack with _ :: rest -> t.a_stack <- rest | [] -> ());
      e.e_us <- (Unix.gettimeofday () -. t0) *. 1e6;
      e.e_outcome <- (if ok then Executed else Failed);
      if not ok then Stats.incr stat_failed;
      List.iter (fun h -> h.h_exit info ~ok) t.a_handlers
    in
    match f () with
    | v ->
      finish true;
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      finish false;
      Printexc.raise_with_backtrace exn bt
  end

(** [run ~tag ~desc ~loc ~root ~skipped f] routes the unit [f] through the
    ambient context: with none installed this is exactly [f ()] after one
    domain-local read; otherwise the context journals the unit, handlers
    may veto it (in which case [skipped] is returned without running [f]),
    and snapshot/provenance machinery brackets it. *)
let run ~tag ~desc ~loc ~root ~skipped f =
  match Domain.DLS.get current with
  | None -> f ()
  | Some t -> run_on t ~tag ~desc ~loc ~root ~skipped f

(* ------------------------------------------------------------------ *)
(* Notes                                                               *)
(* ------------------------------------------------------------------ *)

(** Append a trace event to the ambient context; a no-op without one. *)
let trace e =
  match Domain.DLS.get current with
  | None -> ()
  | Some t -> t.a_notes <- Traced e :: t.a_notes

(** Append a remark to the ambient context; a no-op without one. *)
let remark r =
  match Domain.DLS.get current with
  | None -> ()
  | Some t -> t.a_notes <- Remarked r :: t.a_notes

(** Trace events recorded in [t], oldest first. *)
let traces t =
  List.fold_left
    (fun acc -> function Traced e -> e :: acc | Remarked _ -> acc)
    [] t.a_notes

(** Remarks recorded in [t], oldest first. *)
let remarks t =
  List.fold_left
    (fun acc -> function Remarked r -> r :: acc | Traced _ -> acc)
    [] t.a_notes

(* ------------------------------------------------------------------ *)
(* Checkpoint-rollback interaction                                     *)
(* ------------------------------------------------------------------ *)

(** Journal position for {!revert_since} — take one before establishing a
    payload checkpoint. *)
let cursor () =
  match Domain.DLS.get current with None -> 0 | Some t -> t.a_next

(** Mark every action journaled at or after [c] as {!Reverted}: its unit
    executed, but a checkpoint rollback undid its effects. *)
let revert_since c =
  match Domain.DLS.get current with
  | None -> ()
  | Some t ->
    let rec go = function
      | e :: rest when e.e_index >= c ->
        if e.e_outcome = Executed then begin
          e.e_outcome <- Reverted;
          Stats.incr stat_reverted
        end;
        go rest
      | _ -> ()
    in
    (* newest first: entries before the cursor terminate the scan *)
    go t.a_entries

(* ------------------------------------------------------------------ *)
(* Parallel capture / replay                                           *)
(* ------------------------------------------------------------------ *)

(** A per-task child context for the parallel pass manager: workers record
    into their own capture and the parent {!replay}s them in source order,
    so journals, notes and provenance are deterministic at any job count. *)
let capture parent : t =
  {
    a_entries = [];
    a_notes = [];
    a_next = 0;
    a_tag_counts = Hashtbl.create 8;
    a_stack = [];
    (* captures only exist when no ordering-sensitive handler is
       installed (see sequential_only) *)
    a_handlers = [];
    a_prov =
      (match parent.a_prov with
      | Some _ -> Some (Hashtbl.create 32)
      | None -> None);
  }

(** Merge [c]'s journal, notes and provenance into [parent], re-assigning
    global and per-tag indices in arrival order. Call once per task, in
    source order, after the parallel barrier. *)
let replay parent c =
  (* captured entries ran with an empty stack; re-base their depth under
     whatever the parent has open (the enclosing pass action), so replayed
     journals match what a sequential run would have recorded *)
  let base = List.length parent.a_stack in
  List.iter
    (fun e ->
      e.e_index <- parent.a_next;
      parent.a_next <- parent.a_next + 1;
      e.e_tag_index <- next_tag_index parent e.e_tag;
      e.e_depth <- e.e_depth + base;
      parent.a_entries <- e :: parent.a_entries)
    (List.rev c.a_entries);
  (* both newest first: the task's notes follow the parent's *)
  parent.a_notes <- c.a_notes @ parent.a_notes;
  match (parent.a_prov, c.a_prov) with
  | Some ptbl, Some ctbl ->
    Hashtbl.iter
      (fun id pr ->
        match Hashtbl.find_opt ptbl id with
        | None -> Hashtbl.add ptbl id pr
        | Some existing ->
          (* both newest-first: task events happened after any the parent
             already holds for this op *)
          existing.pr_events <- pr.pr_events @ existing.pr_events)
      ctbl
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Journal access and rendering                                        *)
(* ------------------------------------------------------------------ *)

(** Journaled actions, oldest first. *)
let entries t = List.rev t.a_entries

(** Total occurrences of [tag] routed through [t] (executed or not). *)
let tag_total t tag =
  match Hashtbl.find_opt t.a_tag_counts tag with Some r -> !r | None -> 0

let outcome_to_string = function
  | Executed -> "executed"
  | Skipped -> "skipped"
  | Failed -> "failed"
  | Reverted -> "reverted"

(** One journal entry as JSON. [timing:false] drops wall-clock fields, for
    determinism-sensitive comparisons. *)
let entry_to_json ?(timing = true) e =
  Json.Obj
    ([
       ("index", Json.Int e.e_index);
       ("tag", Json.String e.e_tag);
       ("tag_index", Json.Int e.e_tag_index);
     ]
    @ (if e.e_desc = "" then [] else [ ("desc", Json.String e.e_desc) ])
    @ (match e.e_loc with
      | Loc.Unknown -> []
      | l -> [ ("loc", Json.String (Loc.to_string l)) ])
    @ [
        ("depth", Json.Int e.e_depth);
        ("outcome", Json.String (outcome_to_string e.e_outcome));
      ]
    @ (if timing && e.e_outcome <> Skipped then
         [ ("us", Json.Float e.e_us) ]
       else [])
    @
    if timing && e.e_ts >= 0. then [ ("ts", Json.Float e.e_ts) ] else [])

(** Write the journal as JSONL (one action per line, oldest first). *)
let write_journal t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Json.to_line (entry_to_json e));
          output_char oc '\n')
        (entries t))

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let pkind_to_string = function
  | Created -> "created"
  | Modified -> "modified"
  | Erased -> "erased"
  | Replaced -> "replaced"

let pevent_to_json pe =
  Json.Obj
    (("kind", Json.String (pkind_to_string pe.pe_kind))
    ::
    (match pe.pe_action with
    | None -> []
    | Some e ->
      [
        ("action", Json.Int e.e_index);
        ("tag", Json.String e.e_tag);
        ("desc", Json.String e.e_desc);
        ("outcome", Json.String (outcome_to_string e.e_outcome));
      ]))

(** The provenance of every op reachable from [root], plus the record of
    ops that no longer exist there ([erased]). Every live op resolves: ops
    untouched since parsing report [origin = "input"] with an empty chain;
    ops a rewriter created report [origin = "rewrite"] and the action
    chain that produced them. *)
let provenance_to_json t ~root =
  let tbl =
    match t.a_prov with Some tbl -> tbl | None -> Hashtbl.create 1
  in
  let seen = Hashtbl.create 256 in
  let ops = ref [] in
  let rec collect enclosing (op : Ircore.op) =
    let enclosing =
      match Symbol.symbol_name op with
      | Some s -> Some ("@" ^ s)
      | None -> enclosing
    in
    let chain, created =
      match Hashtbl.find_opt tbl op.Ircore.op_id with
      | None -> ([], false)
      | Some pr ->
        let evs = List.rev pr.pr_events in
        ( List.map pevent_to_json evs,
          List.exists (fun pe -> pe.pe_kind = Created) evs )
    in
    Hashtbl.replace seen op.Ircore.op_id ();
    ops :=
      Json.Obj
        ([ ("op", Json.String op.Ircore.op_name) ]
        @ (match op.Ircore.op_loc with
          | Loc.Unknown -> []
          | l -> [ ("loc", Json.String (Loc.to_string l)) ])
        @ (match enclosing with
          | Some f -> [ ("func", Json.String f) ]
          | None -> [])
        @ [
            ("origin", Json.String (if created then "rewrite" else "input"));
            ("chain", Json.List chain);
          ])
      :: !ops;
    Ircore.iter_children (collect enclosing) op
  in
  collect None root;
  let erased = ref [] in
  Hashtbl.iter
    (fun id pr ->
      if not (Hashtbl.mem seen id) then
        erased :=
          Json.Obj
            ([ ("op", Json.String pr.pr_op) ]
            @ (match pr.pr_loc with
              | Loc.Unknown -> []
              | l -> [ ("loc", Json.String (Loc.to_string l)) ])
            @ [
                ( "chain",
                  Json.List (List.rev_map pevent_to_json pr.pr_events) );
              ])
          :: !erased)
    tbl;
  (* Hashtbl iteration order is unspecified: sort the erased section by its
     rendered text so dumps are deterministic at any job count *)
  let erased =
    List.sort
      (fun a b -> String.compare (Json.to_string a) (Json.to_string b))
      !erased
  in
  Json.Obj
    [
      ("ops", Json.List (List.rev !ops));
      ("erased", Json.List erased);
      ("actions", Json.Int t.a_next);
    ]

(** Write the provenance dump for the payload rooted at [root]. *)
let write_provenance t ~root ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (provenance_to_json t ~root));
      output_char oc '\n')
