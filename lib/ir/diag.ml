(** Structured compiler diagnostics, mirroring MLIR's diagnostics engine.

    A diagnostic carries a severity, a source {!Loc.t}, a primary message and
    a list of attached notes (themselves diagnostics). Diagnostics flow to a
    per-context {!engine} holding a stack of handlers; the innermost handler
    receives each emitted diagnostic, so a scoped handler (see {!capture})
    can observe everything the compiler reports during a region of code —
    the mechanism behind [--diagnostics=json] and the expect-diagnostic
    style of testing. *)

type severity = Error | Warning | Remark | Note

type t = {
  severity : severity;
  loc : Loc.t;
  message : string;
  notes : t list;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Remark -> "remark"
  | Note -> "note"

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make ?(loc = Loc.Unknown) ?(notes = []) severity message =
  { severity; loc; message; notes }

let error ?loc ?notes fmt =
  Fmt.kstr (fun m -> make ?loc ?notes Error m) fmt

let warning ?loc ?notes fmt =
  Fmt.kstr (fun m -> make ?loc ?notes Warning m) fmt

let remark ?loc ?notes fmt =
  Fmt.kstr (fun m -> make ?loc ?notes Remark m) fmt

let note ?loc fmt = Fmt.kstr (fun m -> make ?loc Note m) fmt

(** Build an [Error _] result directly — the common shape for pass and
    verifier failures. *)
let fail ?loc ?notes fmt =
  Fmt.kstr (fun m -> Stdlib.Error (make ?loc ?notes Error m)) fmt

(** Exceptions that must never be swallowed by a containment barrier. *)
let fatal_exn = function
  | Sys.Break | Out_of_memory -> true
  | _ -> false

(** Convert a caught exception (plus its raw backtrace) into an error
    diagnostic: the exception text becomes the message, the first few
    backtrace frames become notes. Used by the exception barriers in the
    interpreter, the pass manager and the greedy driver to contain raised
    exceptions as structured failures. *)
let of_exn ?loc ~context exn bt =
  let frames =
    match Printexc.backtrace_slots bt with
    | None -> []
    | Some slots ->
      Array.to_list slots
      |> List.filter_map (fun slot ->
             Printexc.Slot.format 0 slot
             |> Option.map (fun line -> make Note line))
  in
  let max_frames = 8 in
  let frames =
    if List.length frames <= max_frames then frames
    else List.filteri (fun i _ -> i < max_frames) frames
  in
  let notes =
    match frames with
    | [] -> [ make Note "backtrace unavailable (OCAMLRUNPARAM=b to record)" ]
    | fs -> fs
  in
  make ?loc ~notes Error
    (Fmt.str "%s raised an exception: %s" context (Printexc.to_string exn))

let add_note d n = { d with notes = d.notes @ [ n ] }
let with_loc d loc = { d with loc }

(** Attach [loc] only when the diagnostic does not already carry one. *)
let with_loc_if_unknown d loc =
  match d.loc with Loc.Unknown -> { d with loc } | _ -> d

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let severity d = d.severity
let loc d = d.loc
let message d = d.message
let notes d = d.notes
let is_error d = d.severity = Error

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_headline fmt d =
  (match d.loc with
  | Loc.Unknown -> ()
  | l -> Fmt.pf fmt "%a: " Loc.pp l);
  Fmt.pf fmt "%s: %s" (severity_to_string d.severity) d.message

(** Multi-line rendering: headline plus indented notes. *)
let rec pp fmt d =
  pp_headline fmt d;
  List.iter (fun n -> Fmt.pf fmt "@,  %a" pp n) d.notes

let pp fmt d = Fmt.pf fmt "@[<v>%a@]" pp d
let to_string d = Fmt.str "%a" pp d

let rec to_json d =
  let fields =
    [ ("severity", Json.String (severity_to_string d.severity)) ]
    @ (match d.loc with
      | Loc.Unknown -> []
      | l -> [ ("loc", Json.String (Loc.to_string l)) ])
    @ [ ("message", Json.String d.message) ]
    @
    match d.notes with
    | [] -> []
    | ns -> [ ("notes", Json.List (List.map to_json ns)) ]
  in
  Json.Obj fields

(* ------------------------------------------------------------------ *)
(* Handler engine                                                      *)
(* ------------------------------------------------------------------ *)

type handler = t -> unit

type engine = { mutable handlers : handler list }

let engine () = { handlers = [] }

(** Default when no handler is installed: print to stderr. *)
let default_handler d = Fmt.epr "%a@." pp d

(* Domain-local capture, consulted before the engine's handler stack. The
   engine's stack is shared mutable state, so parallel workers must not
   push/pop on it; instead the pass manager wraps each worker task in
   [with_domain_capture], which routes everything the task emits — on any
   engine — into a per-task buffer replayed in source order. *)
let domain_capture : handler option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(** Route every diagnostic this domain emits (to any engine) to [h] while
    [f] runs, bypassing the engine's shared handler stack. *)
let with_domain_capture h f =
  let saved = Domain.DLS.get domain_capture in
  Domain.DLS.set domain_capture (Some h);
  Fun.protect ~finally:(fun () -> Domain.DLS.set domain_capture saved) f

(* serialize emissions that do reach the shared stack (or stderr), so
   untracked emissions from concurrent domains don't interleave *)
let emit_mu = Mutex.create ()

let emit eng d =
  match Domain.DLS.get domain_capture with
  | Some h -> h d
  | None ->
    Mutex.lock emit_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock emit_mu)
      (fun () ->
        match eng.handlers with h :: _ -> h d | [] -> default_handler d)

let push_handler eng h = eng.handlers <- h :: eng.handlers

let pop_handler eng =
  match eng.handlers with [] -> () | _ :: rest -> eng.handlers <- rest

(** Run [f] with [h] installed as the innermost handler. *)
let with_handler eng h f =
  push_handler eng h;
  Fun.protect ~finally:(fun () -> pop_handler eng) f

(** Scoped capture: run [f] collecting every diagnostic emitted to [eng]
    while it executes; returns [f]'s result and the diagnostics in emission
    order. *)
let capture eng f =
  let acc = ref [] in
  let result = with_handler eng (fun d -> acc := d :: !acc) f in
  (result, List.rev !acc)
