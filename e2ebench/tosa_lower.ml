(** [tosa-lower]: the paper's E1 workload. The five Table-1 models at the
    paper's op counts ([Workloads.Models]) are printed to text during
    setup, then compiled through the Case-Study-1 pipeline by the pass
    manager and by the equivalent [Transform.From_pipeline] script.

    Oracle: both paths produce byte-identical output that verifies and
    holds no [tosa.*] op. *)

let pipeline = Workloads.Models.tosa_pipeline_str

(** The output holds no [tosa.*] op; [Job.run] already verified it. *)
let check output =
  if Common.contains ~needle:"\"tosa." output then
    Error "output still holds tosa ops"
  else Ok ()

let workload =
  {
    Rounds.w_inputs =
      (fun () ->
        let script = Job.script_of_pipeline pipeline in
        List.map
          (fun spec ->
            {
              Rounds.i_key = spec.Workloads.Models.sp_name;
              i_payload = Ir.Printer.op_to_string (Workloads.Models.build spec);
              i_pipeline = pipeline;
              i_script = script;
            })
          Workloads.Models.paper_models);
    w_check = (fun _ctx _input output -> check output);
    w_params =
      [
        ( "models",
          String.concat ","
            (List.map
               (fun s -> s.Workloads.Models.sp_name)
               Workloads.Models.paper_models) );
        ("pipeline", pipeline);
      ];
    w_doubling = None;
  }
