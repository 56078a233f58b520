(** Containment cell: one compilation job, fully isolated.

    A job is parsed once, by {!parse}, on the connection domain before
    admission: the engine keys its result cache by the fingerprints that
    parse computes, and hands the parsed module to {!run} on a worker.
    {!parse} is the server's only parse site; only a budget retry calls
    it again, because the failed attempt mutated the module.

    {!run} starts at input verify, under a fresh context, a job-local
    diagnostic capture and a per-job {!Ir.Budget} (the request's limits
    clamped by server policy), inside the existing exception barriers
    ({!Passes.Pass.run_pipeline} and the transform interpreter already
    convert raises into structured errors; anything that still escapes is
    caught here). A failing job produces a structured {!outcome} plus an
    on-disk crash reproducer replayable with [otd-opt]; the daemon keeps
    serving.

    The cell never touches shared mutable state except the deliberately
    shared caches (compiled schedules, results), both content-addressed.
    Cross-job contamination is policed by the engine's sentinel
    fingerprint (see [Engine]). *)

open Ir

type job = {
  jb_payload : string;  (** module text *)
  jb_script : string option;  (** transform script text *)
  jb_pipeline : string option;  (** comma-separated pass pipeline *)
  jb_max_steps : int option;  (** already clamped by policy *)
  jb_max_rewrites : int option;
  jb_deadline_ms : int option;
}

type parsed = {
  pa_payload : Ircore.op;
  pa_script : Ircore.op option;
  pa_fps : Protocol.fingerprints;
}

type outcome = {
  oc_result : (string, Protocol.error_class * string) result;
      (** printed output module, or (class, message) *)
  oc_reproducer : string option;
}

(* global statistics (Ir.Stats) *)
let stat_jobs = Stats.counter ~component:"server" "jobs_run"

let stat_contained =
  Stats.counter ~component:"server" "contained_failures"
    ~desc:"jobs that failed inside a containment cell"

let stat_crashes =
  Stats.counter ~component:"server" "exceptions_contained"
    ~desc:"OCaml exceptions converted to error responses by the cell"

let stat_reproducers = Stats.counter ~component:"server" "reproducers"
let stat_run_ms = Stats.histogram ~component:"server" "job_ms"

(** Key of the whole job: payload/script structure, pipeline text and the
    effective limits. Everything that can change the response must be in
    here — the result cache and the reproducer filenames are addressed by
    it. *)
let job_fingerprint (j : job) (fps : Protocol.fingerprints) : Fingerprint.t =
  let opt = function Some n -> n + 1 | None -> 0 in
  Fingerprint.combine fps.Protocol.fp_payload
    (Fingerprint.combine
       (Option.value fps.Protocol.fp_script ~default:17)
       (Fingerprint.combine
          (Option.value fps.Protocol.fp_pipeline ~default:19)
          (Fingerprint.combine (opt j.jb_max_steps)
             (Fingerprint.combine (opt j.jb_max_rewrites)
                (opt j.jb_deadline_ms)))))

(** Parse a job's payload and script and fingerprint them. The error is
    the response message of a [parse]-class failure. *)
let parse (j : job) : (parsed, string) result =
  let ( let* ) = Result.bind in
  let* payload =
    match Parser.parse_module j.jb_payload with
    | Ok op -> Ok op
    | Error e -> Error ("payload parse error: " ^ e)
    | exception ex when not (Diag.fatal_exn ex) ->
      Error ("payload parse raised: " ^ Printexc.to_string ex)
  in
  let* script =
    match j.jb_script with
    | None -> Ok None
    | Some s -> (
      match Parser.parse_module s with
      | Ok op -> Ok (Some op)
      | Error e -> Error ("script parse error: " ^ e)
      | exception ex when not (Diag.fatal_exn ex) ->
        Error ("script parse error: " ^ Printexc.to_string ex))
  in
  Ok
    {
      pa_payload = payload;
      pa_script = script;
      pa_fps =
        {
          Protocol.fp_payload = Fingerprint.op payload;
          fp_script = Option.map Fingerprint.op script;
          fp_pipeline = Option.map Fingerprint.string j.jb_pipeline;
        };
    }

(* ------------------------------------------------------------------ *)
(* Crash reproducers                                                   *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(** Content-addressed reproducer: the filename is derived from the job
    fingerprint, so retries and identical jobs write the same file once
    and the response stays deterministic. The main file replays under
    [otd-opt] (the [// configuration:] header carries the pipeline); a
    script job gets a [-script.mlir] sibling for [--transform]. *)
let write_reproducer ~dir ~job_fp (j : job) ~cls ~detail =
  mkdir_p dir;
  let base = Fmt.str "job-%s" (Fingerprint.to_hex job_fp) in
  let path = Filename.concat dir (base ^ ".mlir") in
  let script_path = Filename.concat dir (base ^ "-script.mlir") in
  (try
     if not (Sys.file_exists path) then begin
       let pipeline_note =
         match j.jb_pipeline with
         | Some p -> [ Passes.Reproducer.pipeline_note p ]
         | None -> []
       in
       let script_note =
         match j.jb_script with
         | Some _ ->
           [
             Fmt.str "transform script: %s (pass via --transform)"
               (Filename.basename script_path);
           ]
         | None -> []
       in
       Passes.Reproducer.write ~path
         (Passes.Reproducer.text ~title:"otd-server crash reproducer"
            ([
               Fmt.str "job: %s  class: %s"
                 (Fingerprint.to_hex job_fp)
                 (Protocol.class_to_string cls);
               "detail: " ^ detail;
             ]
            @ pipeline_note @ script_note)
            j.jb_payload);
       (match j.jb_script with
       | Some s ->
         Passes.Reproducer.write ~path:script_path
           (Passes.Reproducer.text
              ~title:("otd-server reproducer script for " ^ base)
              [] s)
       | None -> ());
       Stats.incr stat_reproducers
     end;
     Some path
   with Sys_error _ -> None)

(* ------------------------------------------------------------------ *)
(* The cell                                                            *)
(* ------------------------------------------------------------------ *)

let diag_messages diags =
  String.concat "; " (List.map Diag.message diags)

(** Run one parsed job to completion inside the cell, from input verify
    to printed output. The cell mutates [p]'s payload, so a retry needs a
    fresh {!parse}. Total: every exception short of
    [Sys.Break]/[Out_of_memory] is converted into a structured outcome. *)
let run ?reproducer_dir (j : job) (p : parsed) : outcome =
  Stats.incr stat_jobs;
  let t0 = Unix.gettimeofday () in
  let finish result reproducer =
    Stats.observe stat_run_ms ((Unix.gettimeofday () -. t0) *. 1000.);
    (match result with Error _ -> Stats.incr stat_contained | Ok _ -> ());
    { oc_result = result; oc_reproducer = reproducer }
  in
  let payload = p.pa_payload in
  let job_fp = job_fingerprint j p.pa_fps in
  let ctx = Transform.Register.full_context () in
  let diags = ref [] in
  let collect d = diags := d :: !diags in
  let budget =
    Budget.create ?max_steps:j.jb_max_steps ?max_rewrites:j.jb_max_rewrites
      ?deadline_ms:j.jb_deadline_ms ()
  in
  (* reclassify any failure as transient once the budget tripped: the
     retry ladder keys on this *)
  let classify cls =
    match Budget.exhausted budget with Some _ -> Protocol.Budget | None -> cls
  in
  let body () =
    match Verifier.verify ctx payload with
    | Error ds -> Error (Protocol.Verify, diag_messages ds)
    | Ok () -> (
      let pipeline_r =
        match j.jb_pipeline with
        | None -> Ok ()
        | Some str -> (
          match Passes.Pass.parse_pipeline str with
          | Error d -> Error (Protocol.Pipeline, Diag.message d)
          | Ok passes -> (
            match Passes.Pass.run_pipeline ctx passes payload with
            | Ok () -> Ok ()
            | Error d -> Error (classify Protocol.Pipeline, Diag.message d)))
      in
      match pipeline_r with
      | Error _ as e -> e
      | Ok () -> (
        let script_r =
          match p.pa_script with
          | None -> Ok ()
          | Some script -> (
            match Transform.Schedule.run ctx ~script ~payload with
            | Ok (_ : int) -> Ok ()
            | Error e ->
              Error (classify Protocol.Transform, Transform.Terror.message e))
        in
        match script_r with
        | Error _ as e -> e
        | Ok () -> (
          match Verifier.verify ctx payload with
          | Error ds ->
            Error
              ( Protocol.Verify,
                Fmt.str "output verification failed: %s" (diag_messages ds) )
          | Ok () -> Ok (Printer.op_to_string payload))))
  in
  let result =
    Context.with_diag_handler ctx collect (fun () ->
        Budget.with_budget budget (fun () ->
            try body ()
            with ex when not (Diag.fatal_exn ex) ->
              Stats.incr stat_crashes;
              Error
                ( classify Protocol.Crash,
                  Fmt.str "contained exception: %s" (Printexc.to_string ex) )))
  in
  match result with
  | Ok output -> finish (Ok output) None
  | Error (cls, msg) ->
    let reproducer =
      match reproducer_dir with
      | None -> None
      | Some dir -> write_reproducer ~dir ~job_fp j ~cls ~detail:msg
    in
    finish (Error (cls, msg)) reproducer
