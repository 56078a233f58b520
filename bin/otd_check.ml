(** otd-check: the static checker. A comma-separated pass pipeline is
    checked against an initial and final op-kind set (Case Study 2),
    printing the abstract trace and any phase-ordering /
    incomplete-lowering problems. A transform script goes through
    {!Transform.Flowcheck}: use after consume, unmet annotation
    requirements and the op-kind conditions, along the script's control
    flow. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** What the schedule compiler makes of the script: instruction and
    handle-slot counts and the content-address. *)
let pp_schedule_report s =
  Fmt.pr "@.// -----// schedule compilation //----- //@.";
  Fmt.pr "fingerprint:   %s@."
    (Ir.Fingerprint.to_hex (Transform.Schedule.fingerprint s));
  Fmt.pr "instructions:  %d@." (Transform.Schedule.instr_count s);
  Fmt.pr "handle slots:  %d@." (Transform.Schedule.slot_count s)

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

let check_pipeline ~initial ~final str =
  match Passes.Pass.parse_pipeline str with
  | Error d -> `Error (false, Ir.Diag.to_string d)
  | Ok passes ->
    let r = Transform.Conditions.check_passes ~initial ~final passes in
    Fmt.pr "%a" Transform.Conditions.pp_report r;
    if Transform.Conditions.ok r then `Ok ()
    else `Error (false, "pipeline violates its conditions")

let check_transform ctx ~initial ~final ~schedule file =
  match Ir.Parser.parse_module (read_file file) with
  | Error e -> `Error (false, Fmt.str "parse error: %s" e)
  | Ok script ->
    let r = Transform.Flowcheck.check ~initial ~final script in
    (match r.Transform.Flowcheck.fr_final with
    | Some present -> Fmt.pr "final op kinds: %a@." Ir.Opset.pp present
    | None -> ());
    Fmt.pr "%a" Transform.Flowcheck.pp_report r;
    if schedule then
      pp_schedule_report (Transform.Schedule.of_script ctx script);
    if Transform.Flowcheck.ok r then `Ok ()
    else `Error (false, "script fails the static check")

let run pipeline script_file initial final schedule provenance
    provenance_file =
  match provenance with
  | Some query -> query_provenance ~file:provenance_file ~query
  | None -> (
    let ctx = Transform.Register.full_context () in
    let initial = Ir.Opset.parse initial in
    let final = Ir.Opset.parse final in
    match (pipeline, script_file) with
    | Some str, _ ->
      if schedule then
        Fmt.epr "note: --schedule needs a transform script, not a pipeline@.";
      check_pipeline ~initial ~final str
    | None, Some f -> check_transform ctx ~initial ~final ~schedule f
    | None, None -> `Error (false, "provide --pass-pipeline or a transform script"))

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
    & info [] ~docv:"SCRIPT" ~doc:"Transform script to check instead. Exits non-zero on any \
              problem: use after consume, an unmet annotation requirement, \
              a phase-ordering violation or an incomplete lowering.")

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
              instruction count, statically numbered handle slots, and the \
              content-address (structural fingerprint) under which \
              applications would be cached.")

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
  let doc = "static checker for lowering pipelines and transform scripts" in
  Cmd.v
    (Cmd.info "otd-check" ~doc)
    Term.(
      ret
        (const run $ pipeline $ script_file $ initial $ final $ schedule
       $ provenance $ provenance_file))

let () = exit (Cmd.eval cmd)
