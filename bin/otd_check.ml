(** otd-check: the static pre-/post-condition pipeline checker of Case
    Study 2. Checks a comma-separated pass pipeline (or a transform script)
    against an initial and final op-kind set, printing the abstract trace
    and any phase-ordering / incomplete-lowering problems. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** What the schedule compiler makes of the script: instruction and
    handle-slot counts, the content-address, and any static
    use-after-consume diagnostics. *)
let pp_schedule_report s =
  Fmt.pr "@.// -----// schedule compilation //----- //@.";
  Fmt.pr "fingerprint:   %s@."
    (Ir.Fingerprint.to_hex (Transform.Schedule.fingerprint s));
  Fmt.pr "instructions:  %d@." (Transform.Schedule.instr_count s);
  Fmt.pr "handle slots:  %d@." (Transform.Schedule.slot_count s);
  match Transform.Schedule.static_diags s with
  | [] -> ()
  | ds ->
    Fmt.pr "static use-after-consume diagnostics:@.";
    List.iter (fun d -> Fmt.pr "  %a@." Transform.Invalidation.pp_diagnostic d) ds

(** Annotation-flow check of a transform script: per-handle property
    propagation ([requires]/[ensures] of every registered transform)
    threaded with the op-kind layer. *)
let pp_flow_report ~initial ~final script =
  let r = Transform.Flowcheck.check ~initial ~final script in
  Fmt.pr "@.// -----// annotation flow //----- //@.";
  (match r.Transform.Flowcheck.fr_final with
  | Some present -> Fmt.pr "final op kinds: %a@." Ir.Opset.pp present
  | None -> ());
  Fmt.pr "%a" Transform.Flowcheck.pp_report r;
  r

(* ------------------------------------------------------------------ *)
(* Provenance queries                                                  *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0

let str_field key j =
  match Ir.Json.member key j with
  | Some v -> Ir.Json.to_string_opt v
  | None -> None

let pp_chain chain =
  match Ir.Json.to_list chain with
  | None | Some [] -> Fmt.pr "    (no recorded events: op came from the input)@."
  | Some evs ->
    List.iter
      (fun ev ->
        let f k = Option.value ~default:"?" (str_field k ev) in
        match Ir.Json.member "action" ev with
        | Some (Ir.Json.Int idx) ->
          Fmt.pr "    %-8s by action #%d %s (%s) [%s]@." (f "kind") idx
            (f "tag") (f "desc") (f "outcome")
        | _ -> Fmt.pr "    %-8s (unattributed)@." (f "kind"))
      evs

(** Query a provenance dump written by [otd-opt --provenance]: print the
    event chain of every op whose name, location or enclosing function
    contains [query] as a substring. *)
let query_provenance ~file ~query =
  match read_file file with
  | exception Sys_error e -> `Error (false, e)
  | src -> (
    match Ir.Json.parse src with
    | Error e -> `Error (false, Fmt.str "%s: %s" file e)
    | Ok json ->
      let records section =
        match Ir.Json.member section json with
        | Some l -> Option.value ~default:[] (Ir.Json.to_list l)
        | None -> []
      in
      let matches r =
        List.exists
          (fun k ->
            match str_field k r with
            | Some s -> contains s query
            | None -> false)
          [ "op"; "loc"; "func" ]
      in
      let hits = ref 0 in
      let show ~erased r =
        incr hits;
        let f k = str_field k r in
        Fmt.pr "%s%s%s%s@."
          (Option.value ~default:"?" (f "op"))
          (match f "loc" with Some l -> " (" ^ l ^ ")" | None -> "")
          (match f "func" with Some fn -> " in " ^ fn | None -> "")
          (if erased then "  [erased]"
           else
             match f "origin" with
             | Some o -> "  origin: " ^ o
             | None -> "");
        match Ir.Json.member "chain" r with
        | Some chain -> pp_chain chain
        | None -> ()
      in
      List.iter
        (fun r -> if matches r then show ~erased:false r)
        (records "ops");
      List.iter
        (fun r -> if matches r then show ~erased:true r)
        (records "erased");
      if !hits = 0 then
        `Error (false, Fmt.str "no op matching %S in %s" query file)
      else `Ok ())

let run pipeline script_file initial final schedule flow provenance
    provenance_file =
  match provenance with
  | Some query -> query_provenance ~file:provenance_file ~query
  | None ->
  let ctx = Transform.Register.full_context () in
  let initial = Ir.Opset.parse initial in
  let final = Ir.Opset.parse final in
  let report =
    match (pipeline, script_file) with
    | Some str, _ -> (
      match Passes.Pass.parse_pipeline str with
      | Error d -> Error (Ir.Diag.to_string d)
      | Ok passes ->
        Ok (Transform.Conditions.check_passes ~initial ~final passes, None))
    | None, Some f -> (
      match Ir.Parser.parse_module (read_file f) with
      | Error e -> Error (Fmt.str "parse error: %s" e)
      | Ok script ->
        Ok
          ( Transform.Conditions.check_script ~initial ~final script,
            Some script ))
    | None, None -> Error "provide --pass-pipeline or a transform script"
  in
  match report with
  | Error e -> `Error (false, e)
  | Ok (report, script) ->
    Fmt.pr "%a" Transform.Conditions.pp_report report;
    (match (schedule, script) with
    | true, Some script ->
      pp_schedule_report (Transform.Schedule.of_script ctx script)
    | true, None ->
      Fmt.epr "note: --schedule needs a transform script, not a pipeline@."
    | false, _ -> ());
    let flow_report =
      match (flow, script) with
      | true, Some script -> Some (pp_flow_report ~initial ~final script)
      | true, None ->
        Fmt.epr "note: --flow needs a transform script, not a pipeline@.";
        None
      | false, _ -> None
    in
    let flow_ok =
      match flow_report with
      | Some r -> Transform.Flowcheck.ok r
      | None -> true
    in
    if Transform.Conditions.ok report && flow_ok then `Ok ()
    else if not (Transform.Conditions.ok report) then
      `Error (false, "pipeline violates its conditions")
    else `Error (false, "script fails the annotation-flow check")

let pipeline =
  Arg.(
    value
    & opt (some string) None
    & info [ "pass-pipeline"; "p" ] ~docv:"PASSES"
        ~doc:"Comma-separated pass pipeline to check.")

let script_file =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"SCRIPT" ~doc:"Transform script to check instead.")

let initial =
  Arg.(
    value
    & opt string
        "{func.*, scf.*, arith.*, memref.subview, memref.load, memref.store}"
    & info [ "initial" ] ~docv:"OPSET" ~doc:"Op kinds possibly present in the input.")

let final =
  Arg.(
    value
    & opt string "{llvm.*}"
    & info [ "final" ] ~docv:"OPSET" ~doc:"Op kinds allowed after the pipeline.")

let schedule =
  Arg.(
    value & flag
    & info [ "schedule" ]
        ~doc:"Also report how the schedule compiler lowers the script: \
              instruction count, statically numbered handle slots, static \
              use-after-consume diagnostics, and the content-address \
              (structural fingerprint) under which applications would be \
              cached.")

let flow =
  Arg.(
    value & flag
    & info [ "flow" ]
        ~doc:"Also run the static annotation-flow checker over the \
              transform script: propagate declared payload properties \
              along handle SSA values (through includes, foreach and \
              alternatives) and report any transform whose requires-clause \
              cannot be met, plus flow-sensitive use-after-consume and \
              op-kind problems. Exits non-zero on any problem.")

let provenance =
  Arg.(
    value
    & opt (some string) None
    & info [ "provenance" ] ~docv:"QUERY"
        ~doc:"Query a provenance dump written by $(b,otd-opt --provenance) \
              instead of checking a pipeline: print the action chain \
              (created/modified/replaced/erased, by which action) of every \
              op whose name, source location or enclosing function \
              contains $(docv). Exits non-zero when nothing matches.")

let provenance_file =
  Arg.(
    value
    & opt string "provenance.json"
    & info [ "provenance-file" ] ~docv:"PATH"
        ~doc:"Provenance dump to query with $(b,--provenance).")

let cmd =
  let doc = "static pre-/post-condition checker for lowering pipelines" in
  Cmd.v
    (Cmd.info "otd-check" ~doc)
    Term.(
      ret
        (const run $ pipeline $ script_file $ initial $ final $ schedule
       $ flow $ provenance $ provenance_file))

let () = exit (Cmd.eval cmd)
