(** End-to-end benchmark of the compile-job path.

    {v
    main.exe --workload tosa-lower|flat-block|server-mix --seed N
             --seconds S --trace 0|1 [--commit SHA] [--source-digest HEX]
    v}

    Generates the workload's inputs from the seed, runs jobs for [S]
    seconds, checks every output and prints two lines: the run's
    provenance (commit, core count, OCaml version, seed, workload
    parameters, counted metrics, oracle notes), then the result object
    [{"correct", "attempted", "failed", "metrics"}]. With [--trace 0] the
    metrics are the end-to-end ones, with [--trace 1] the per-layer ones.
    [e2ebench/run.py] builds this program and wraps it. *)

open Common

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  commit : string;
  digest : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload tosa-lower|flat-block|server-mix --seed N \
     --seconds S --trace 0|1 [--commit SHA] [--source-digest HEX]";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> usage ()
  in
  let opt k = Option.value (List.assoc_opt k kv) ~default:"unknown" in
  {
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    traced = int "trace" <> 0;
    commit = opt "commit";
    digest = opt "source-digest";
  }

let rounds_workload a (w : Rounds.workload) =
  let ctx = Transform.Register.full_context () in
  let inputs, setup_s =
    repeat_setup ~times:5 (fun () ->
        let inputs = w.Rounds.w_inputs () in
        Rounds.warm_up ctx inputs;
        inputs)
  in
  let r =
    Rounds.run ctx w inputs ~seed:a.seed ~seconds:a.seconds ~traced:a.traced
  in
  Metrics.of_rounds ~traced:a.traced ~setup_s ~params:w.Rounds.w_params
    ?doubling:w.Rounds.w_doubling r

let run a =
  Ir.Pool.set_jobs 1;
  match a.workload with
  | "tosa-lower" -> rounds_workload a Tosa_lower.workload
  | "flat-block" -> rounds_workload a (Flat_block.workload ~seed:a.seed)
  | "server-mix" ->
    Server_mix.run ~seed:a.seed ~seconds:a.seconds ~traced:a.traced
  | w ->
    Printf.eprintf "unknown workload %S\n" w;
    exit 2

let json_metric m =
  ( m.m_name,
    Ir.Json.Obj
      [ ("value", Ir.Json.Float m.m_value); ("unit", Ir.Json.String m.m_unit) ]
  )

let () =
  let a = parse_args () in
  let r = run a in
  let expected = if a.traced then Metrics.per_layer else Metrics.end_to_end in
  if List.sort compare (List.map (fun m -> m.m_name) r.r_metrics)
     <> List.sort compare expected
  then failwith "workload reported another metric set than BENCHMARK.json";
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) r.r_metrics in
  let ordered =
    List.map (fun n -> List.find (fun m -> m.m_name = n) r.r_metrics) expected
  in
  let provenance =
    Ir.Json.Obj
      [
        ( "provenance",
          Ir.Json.Obj
            [
              ("commit", Ir.Json.String a.commit);
              ("source_digest", Ir.Json.String a.digest);
              ("nproc", Ir.Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Ir.Json.String Sys.ocaml_version);
              ("workload", Ir.Json.String a.workload);
              ("seed", Ir.Json.Int a.seed);
              ("seconds", Ir.Json.Float a.seconds);
              ("trace", Ir.Json.Bool a.traced);
              ( "params",
                Ir.Json.Obj
                  (List.map (fun (k, v) -> (k, Ir.Json.String v)) r.r_params) );
            ] );
        ( "counts",
          Ir.Json.Obj (List.map (fun (k, v) -> (k, Ir.Json.Int v)) r.r_counts) );
        ( "notes",
          Ir.Json.List (List.map (fun s -> Ir.Json.String s) r.r_notes) );
      ]
  in
  print_endline (Ir.Json.to_line provenance);
  let result =
    Ir.Json.Obj
      [
        ("correct", Ir.Json.Bool (r.r_failed = 0 && finite));
        ("attempted", Ir.Json.Int r.r_attempted);
        ("failed", Ir.Json.Int r.r_failed);
        ("metrics", Ir.Json.Obj (List.map json_metric ordered));
      ]
  in
  print_endline (Ir.Json.to_line result)
