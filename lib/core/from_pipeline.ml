(** Automatic conversion of a classic pass pipeline into a Transform script
    of [transform.apply_registered_pass] ops — the mechanism used in Case
    Study 1 to compare the MLIR pass manager against the transform
    interpreter on identical compilation flows. *)

open Ir

(** [script_of_pipeline passes] builds a transform module equivalent to
    running [passes] in order on the payload root. *)
let script_of_pipeline (passes : Passes.Pass.t list) =
  Build.script (fun rw root ->
      ignore
        (List.fold_left
           (fun target pass ->
             Build.apply_registered_pass rw
               ~pass_name:pass.Passes.Pass.name target)
           root passes))

(** [script_of_pipeline_str "a,b,c"] parses the pipeline then converts. *)
let script_of_pipeline_str str =
  Result.map script_of_pipeline (Passes.Pass.parse_pipeline str)

(** Extract the pass list back out of a generated script (used by the static
    checker and for round-trip tests). *)
let passes_of_script script =
  let out = ref [] in
  Ircore.walk
    (fun op ->
      if op.Ircore.op_name = Ops.apply_registered_pass_op then
        match Ircore.attr op "pass_name" with
        | Some (Attr.String name) -> (
          match Passes.Pass.lookup name with
          | Some p -> out := p :: !out
          | None -> ())
        | _ -> ())
    script;
  List.rev !out
