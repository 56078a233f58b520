(** One compile job along the path a request takes through the compiler:
    parse → fingerprint → verify → pipeline or schedule → verify → print.
    Every stage is one call of a layer's public function, wrapped in a
    benchmark span so a traced run can attribute time to it. *)

type action =
  | Pipeline of string  (** comma-separated pass pipeline *)
  | Script of string  (** transform script text *)

type outcome = {
  o_output : string;  (** printed output module *)
  o_total_s : float;  (** whole job *)
  o_compile_s : float;
      (** the pipeline or schedule stage: pipeline parse plus
          [run_pipeline], or [Schedule.of_script] plus [Schedule.apply] *)
  o_verify_out_s : float;
}

(** The transform script equivalent to a pass pipeline, as text. *)
let script_of_pipeline pipeline =
  match Transform.From_pipeline.script_of_pipeline_str pipeline with
  | Ok script -> Ir.Printer.op_to_string script
  | Error d -> failwith (Ir.Diag.to_string d)

exception Failed of string

let fail fmt = Fmt.kstr (fun m -> raise (Failed m)) fmt

let timed name f =
  let t = Common.now () in
  let r = Common.span name f in
  (r, Common.now () -. t)

let parse what text =
  match Ir.Parser.parse_module text with
  | Ok m -> m
  | Error e -> fail "%s parse error: %s" what e

let verify ctx what md =
  match Ir.Verifier.verify ctx md with
  | Ok () -> ()
  | Error ds ->
    fail "%s verification failed: %s" what
      (String.concat "; " (List.map Ir.Diag.message ds))

let run_stages ctx ~payload action =
  let t0 = Common.now () in
  let md = Common.span "parser" (fun () -> parse "payload" payload) in
  ignore (Common.span "fingerprint" (fun () -> Ir.Fingerprint.op md));
  Common.span "verifier.input" (fun () -> verify ctx "input" md);
  let (), compile_s =
    match action with
    | Pipeline str ->
      timed "pass" (fun () ->
          match Passes.Pass.parse_pipeline str with
          | Error d -> fail "bad pipeline: %s" (Ir.Diag.message d)
          | Ok passes -> (
            match Passes.Pass.run_pipeline ctx passes md with
            | Ok (_ : Passes.Pass.run_result) -> ()
            | Error d -> fail "pipeline failed: %s" (Ir.Diag.message d)))
    | Script text ->
      let script = Common.span "parser" (fun () -> parse "script" text) in
      timed "schedule" (fun () ->
          let s =
            Common.span "schedule.of_script" (fun () ->
                Transform.Schedule.of_script ctx script)
          in
          match Transform.Schedule.apply s ~payload:md with
          | Ok (_ : int) -> ()
          | Error e -> fail "transform failed: %s" (Transform.Terror.message e))
  in
  let (), verify_out_s =
    timed "verifier.output" (fun () -> verify ctx "output" md)
  in
  let output = Common.span "printer" (fun () -> Ir.Printer.op_to_string md) in
  {
    o_output = output;
    o_total_s = Common.now () -. t0;
    o_compile_s = compile_s;
    o_verify_out_s = verify_out_s;
  }

(** Run one job. Diagnostics are captured, not printed; any failure is
    returned as a message. *)
let run ctx ~payload action =
  let diags = ref [] in
  match
    Ir.Context.with_diag_handler ctx
      (fun d -> diags := d :: !diags)
      (fun () -> Common.span "job" (fun () -> run_stages ctx ~payload action))
  with
  | o -> Ok o
  | exception Failed m -> Error m
  | exception e -> Error (Printexc.to_string e)
