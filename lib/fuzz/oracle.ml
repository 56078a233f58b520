(** Property oracles run over each generated module.

    Each oracle checks one invariant the compiler must preserve on every
    well-typed module:

    - {b roundtrip}: print → parse → print reaches a fixpoint (the textual
      form is stable and the parser accepts everything the printer emits);
    - {b verify}: the verifier accepts generator output (which is
      well-typed by construction);
    - {b clone}: [Ircore.clone_op] produces a structurally identical,
      independently verifiable module;
    - {b differential}: executing [main] before and after a registered pass
      pipeline yields the same observable results — any miscompiling pass
      is caught by construction (the paper's soundness claim, Section 3,
      applied to our own passes). *)

open Ir

type failure = {
  f_oracle : string;  (** which invariant broke *)
  f_pipeline : string option;  (** pipeline under test, for differential *)
  f_detail : string;
  f_module : string;  (** printed module that witnesses the failure *)
}

let fail ?pipeline ~oracle ~module_text fmt =
  Fmt.kstr
    (fun detail ->
      Error
        { f_oracle = oracle; f_pipeline = pipeline; f_detail = detail;
          f_module = module_text })
    fmt

let pp_failure fmt f =
  Fmt.pf fmt "oracle %s%a: %s" f.f_oracle
    (fun fmt -> function
      | None -> ()
      | Some p -> Fmt.pf fmt " [pipeline %s]" p)
    f.f_pipeline f.f_detail

(* ------------------------------------------------------------------ *)
(* Structural oracles                                                  *)
(* ------------------------------------------------------------------ *)

let roundtrip _ctx m =
  let s1 = Printer.op_to_string m in
  match Parser.parse_module s1 with
  | Error e -> fail ~oracle:"roundtrip" ~module_text:s1 "reparse failed: %s" e
  | Ok m2 ->
    let s2 = Printer.op_to_string m2 in
    if String.equal s1 s2 then Ok ()
    else
      fail ~oracle:"roundtrip" ~module_text:s1
        "print->parse->print is not a fixpoint; reprinted:\n%s" s2

let verifies ctx m =
  match Verifier.verify ctx m with
  | Ok () -> Ok ()
  | Error diags ->
    fail ~oracle:"verify" ~module_text:(Printer.op_to_string m)
      "verifier rejected generated module: %a"
      Fmt.(list ~sep:(any "; ") Diag.pp_headline)
      diags

let clone_equiv ctx m =
  let c = Ircore.clone_op m in
  let s = Printer.op_to_string m and sc = Printer.op_to_string c in
  if not (String.equal s sc) then
    fail ~oracle:"clone" ~module_text:s "clone prints differently:\n%s" sc
  else
    match Verifier.verify ctx c with
    | Ok () -> Ok ()
    | Error diags ->
      fail ~oracle:"clone" ~module_text:s "clone fails verification: %a"
        Fmt.(list ~sep:(any "; ") Diag.pp_headline)
        diags

(* ------------------------------------------------------------------ *)
(* Differential execution                                              *)
(* ------------------------------------------------------------------ *)

(** NaNs compare equal (both sides computed the same way or not at all) and
    floats get a small relative tolerance: pipelines may legitimately
    reassociate nothing today, but the machine model's float path is shared,
    so observable drift beyond noise is a miscompile. *)
let rvalue_eq a b =
  let feq x y =
    (Float.is_nan x && Float.is_nan y)
    || x = y
    || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  in
  match (a, b) with
  | Interp.Rvalue.Int x, Interp.Rvalue.Int y -> x = y
  | Interp.Rvalue.Bool x, Interp.Rvalue.Bool y -> x = y
  | Interp.Rvalue.Float x, Interp.Rvalue.Float y -> feq x y
  | Interp.Rvalue.Bool x, Interp.Rvalue.Int y
  | Interp.Rvalue.Int y, Interp.Rvalue.Bool x ->
    (* i1 results may legally come back as 0/1 after lowering *)
    (if x then 1 else 0) = y
  | _ -> false

let run_main ctx m =
  Interp.Compile.run_function ~ir_ctx:ctx ~module_:m ~name:Gen.entry_name []

(** Pipelines the differential oracle exercises by default. The last entry
    is the full Case-Study-2 lowering (passes ①–⑦ of the paper). *)
let default_pipelines =
  [
    "canonicalize";
    "cse";
    "licm";
    "dce";
    "canonicalize,cse,licm";
    "inline";
    "convert-scf-to-cf";
    "lower-affine";
    String.concat "," Workloads.Subview_kernel.naive_pipeline;
  ]

(** The LLVM lowering pipelines only claim to cover arith/scf/cf/func/
    memref payloads; tensor ops have no lowering in this repository, so
    running ①–⑦ over a module that contains them fails by design (casts
    feeding never-converted ops survive to reconcile). That is a
    precondition violation, not a compiler bug — skip, don't flag. *)
let applicable ~pipeline m =
  let contains ~needle hay =
    let n = String.length needle and l = String.length hay in
    let rec go i =
      i + n <= l && (String.equal (String.sub hay i n) needle || go (i + 1))
    in
    go 0
  in
  if not (contains ~needle:"to-llvm" pipeline) then true
  else begin
    let has_tensor = ref false in
    Ircore.walk
      (fun op -> if Ircore.op_dialect op = "tensor" then has_tensor := true)
      m;
    not !has_tensor
  end

let differential ctx ~pipeline m =
  let module_text = Printer.op_to_string m in
  match Passes.Pass.parse_pipeline pipeline with
  | Error d ->
    fail ~pipeline ~oracle:"differential" ~module_text "bad pipeline: %s"
      (Diag.to_string d)
  | Ok passes -> (
    match run_main ctx m with
    | Error e ->
      fail ~pipeline ~oracle:"differential" ~module_text
        "reference execution failed: %s" e
    | Ok (ref_results, _) -> (
      let m2 = Ircore.clone_op m in
      match Passes.Pass.run_pipeline ctx passes m2 with
      | Error d ->
        fail ~pipeline ~oracle:"differential" ~module_text
          "pipeline failed on valid IR: %s" (Diag.to_string d)
      | Ok () -> (
        match Verifier.verify ctx m2 with
        | Error diags ->
          fail ~pipeline ~oracle:"differential" ~module_text
            "IR invalid after pipeline: %a"
            Fmt.(list ~sep:(any "; ") Diag.pp_headline)
            diags
        | Ok () -> (
          match run_main ctx m2 with
          | Error e ->
            fail ~pipeline ~oracle:"differential" ~module_text
              "execution failed after pipeline: %s\ntransformed:\n%s" e
              (Printer.op_to_string m2)
          | Ok (new_results, _) ->
            if
              List.length ref_results = List.length new_results
              && List.for_all2 rvalue_eq ref_results new_results
            then Ok ()
            else
              fail ~pipeline ~oracle:"differential" ~module_text
                "results differ: before %a, after %a\ntransformed:\n%s"
                Fmt.(list ~sep:comma Interp.Rvalue.pp)
                ref_results
                Fmt.(list ~sep:comma Interp.Rvalue.pp)
                new_results (Printer.op_to_string m2)))))

(* ------------------------------------------------------------------ *)
(* Orchestration                                                       *)
(* ------------------------------------------------------------------ *)

(** Run every oracle; returns the first failure. Structural oracles run
    first so a parse/verify bug is reported as itself rather than as a
    downstream differential mismatch. *)
let run_all ctx ?(pipelines = default_pipelines) m =
  let ( let* ) = Result.bind in
  let* () = verifies ctx m in
  let* () = roundtrip ctx m in
  let* () = clone_equiv ctx m in
  List.fold_left
    (fun acc pipeline ->
      let* () = acc in
      if applicable ~pipeline m then differential ctx ~pipeline m else Ok ())
    (Ok ()) pipelines

(* ------------------------------------------------------------------ *)
(* Schedule scripts: one per slice of the schedule compiler               *)
(* ------------------------------------------------------------------ *)

(** Transform scripts the golden outcome corpus
    ([test/golden/schedule_outcomes.expected]) applies to generated
    payloads. Each variant targets a distinct slice of the schedule
    compiler: straight-line dispatch, handle fan-out, consuming pass
    application, transactional constructs ([alternatives], nested suppress
    sequences), [include] of a named sequence, pre-frozen pattern sets and
    loop transforms that fail silenceably on loop-free payloads. *)
let schedule_script_variants = 8

let schedule_script ~variant =
  let module B = Transform.Build in
  match variant mod schedule_script_variants with
  | 0 ->
    (* straight-line dispatch: match, annotate, params *)
    B.script (fun rw root ->
        let funcs = B.match_op rw ~name:"func.func" root in
        B.annotate rw ~name:"fuzz.visited" funcs;
        ignore (B.param_constant rw 42);
        let all = B.match_op rw ~dialect:"arith" root in
        B.annotate rw ~name:"fuzz.arith" all)
  | 1 ->
    (* handle fan-out: split a two-op match; fails silenceably when the
       payload has a different arith.addi count *)
    B.script (fun rw root ->
        let adds = B.match_op rw ~name:"arith.addi" root in
        match B.split_handle rw ~n:2 adds with
        | [ a; _ ] -> B.annotate rw ~name:"fuzz.first" a
        | _ -> ())
  | 2 ->
    (* consuming dispatch: registered pass application *)
    B.script (fun rw root ->
        let next = B.apply_registered_pass rw ~pass_name:"canonicalize" root in
        ignore (B.apply_registered_pass rw ~pass_name:"cse" next))
  | 3 ->
    (* transactional alternatives *)
    B.script (fun rw root ->
        B.alternatives rw
          [
            (fun brw ->
              ignore (B.apply_registered_pass brw ~pass_name:"licm" root));
            (fun brw -> ignore (B.match_op brw ~name:"func.func" root));
          ])
  | 4 ->
    (* nested suppress sequence *)
    B.script (fun rw _root ->
        ignore
          (B.nested_sequence rw ~failure_propagation:"suppress"
             (fun brw seq_root ->
               ignore
                 (B.apply_registered_pass brw ~pass_name:"canonicalize"
                    seq_root))))
  | 5 ->
    (* include of a named sequence yielding a handle *)
    let m =
      B.script (fun rw root ->
          let inc = B.include_ rw ~target:"helper" [ root ] ~results:1 in
          B.annotate rw ~name:"fuzz.included" (Ircore.result ~index:0 inc))
    in
    ignore
      (B.named_sequence m ~name:"helper" ~num_args:1 (fun rw args ->
           let funcs = B.match_op rw ~name:"func.func" (List.hd args) in
           B.annotate rw ~name:"fuzz.helper" funcs;
           [ funcs ]));
    m
  | 6 ->
    (* pre-frozen pattern sets (names resolved at compile time) *)
    B.script (fun rw root ->
        B.apply_patterns rw root
          (match Dialects.Shlo_patterns.names () with
          | a :: b :: _ -> [ a; b ]
          | names -> names))
  | _ ->
    (* loop transform: silenceable failure on loop-free payloads *)
    B.script (fun rw root ->
        let loops = B.match_op rw ~name:"scf.for" root in
        B.loop_unroll rw ~factor:2 loops)

(* ------------------------------------------------------------------ *)
(* Flow differential: static annotation-flow checker vs the dynamic one *)
(* ------------------------------------------------------------------ *)

type flow_outcome =
  | Flow_rejected  (** statically rejected: nothing to compare *)
  | Flow_agreed
      (** statically accepted, and the run raised no definite
          annotation-requirement error *)

let annot_config =
  {
    Transform.State.default_config with
    Transform.State.check_annotations = true;
  }

(* the dynamic outcome classes the static checker makes a promise about:
   only a *definite* error carrying the annotation-requirement tag counts
   — silenceable failures (missing payload, pattern mismatch) and other
   definite classes (use-after-consume reported by the dynamic state) are
   outside the static-accept contract *)
let dynamic_requirement_error = function
  | Ok _ -> None
  | Error e ->
    if Transform.Terror.is_silenceable e then None
    else
      let d = Transform.Terror.diag e in
      if Transform.Annot.is_requirement_diag d then Some (Diag.message d)
      else None

(** The differential property of the annotation-flow checker: a script the
    static checker accepts must never fail a {e dynamic} annotation
    requirement. One case = one (script, payload) pair; the reproducer
    text is the script, not the payload. *)
let flow_diff ctx ~script m : (flow_outcome, failure) result =
  let script_text = Printer.op_to_string script in
  let r = Transform.Flowcheck.check script in
  if not (Transform.Flowcheck.ok r) then Ok Flow_rejected
  else
    match
      dynamic_requirement_error
        (Transform.Schedule.run ~config:annot_config ctx ~script
           ~payload:(Ircore.clone_op m))
    with
    | None -> Ok Flow_agreed
    | Some detail ->
      fail ~oracle:"flow-diff" ~module_text:script_text
        "statically accepted script failed a dynamic annotation \
         requirement: %s"
        detail

(** Re-runnable check for the shrinker: does [m] still exhibit a failure of
    the same oracle (and pipeline, if any)? *)
let recheck ctx ?(pipelines = default_pipelines) ~(witness : failure) m =
  let outcome =
    match witness.f_pipeline with
    | Some pipeline ->
      if applicable ~pipeline m then differential ctx ~pipeline m else Ok ()
    | None -> (
      match witness.f_oracle with
      | "roundtrip" -> roundtrip ctx m
      | "verify" -> verifies ctx m
      | "clone" -> clone_equiv ctx m
      | _ -> run_all ctx ~pipelines m)
  in
  match outcome with
  | Error f when f.f_oracle = witness.f_oracle -> Some f
  | _ -> None
