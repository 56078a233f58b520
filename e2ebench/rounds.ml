(** Closed-loop runner shared by [tosa-lower] and [flat-block]: one caller
    thread runs rounds of jobs until the run's time is used up. In every
    round each input is compiled twice, in seeded order: once through the
    pass manager ([Passes.Pass.run_pipeline]) and once through the
    equivalent [Transform.From_pipeline] script ([Transform.Schedule]).

    A traced run alternates traced and untraced rounds, so the tracing
    overhead is measured on interleaved jobs; end-to-end numbers always
    come from untraced rounds. Output oracles run outside the timed
    region. *)

type input = {
  i_key : string;  (** model name or block size *)
  i_payload : string;  (** module text *)
  i_pipeline : string;
  i_script : string;  (** the pipeline as a transform script, as text *)
}

(** What a workload gives the runner. *)
type workload = {
  w_inputs : unit -> input list;  (** generates the inputs, during set-up *)
  w_check : Ir.Context.t -> input -> string -> (unit, string) result;
      (** full oracle, run once on each input's first output *)
  w_params : (string * string) list;
  w_doubling : (string list * string list) option;
      (** inputs at N and at 2N, for [verifier.doubling_ratio] *)
}

type result = {
  r_untraced : (float * float) list;
      (** untraced jobs: (end of the job in seconds of untraced job time,
          latency in ms) *)
  r_traced_ms : float list;
  r_ratios : float list;  (** transform / pass-manager stage time, per pair *)
  r_verify_out_ms : (string * float list) list;  (** per input, untraced *)
  r_busy_s : float;  (** summed duration of the untraced jobs *)
  r_attempted : int;
  r_failed : int;
  r_notes : string list;
  r_round_ops : int;  (** ops in the printed outputs of one round *)
  r_counts : (string * int) list;  (** counter deltas of one round *)
  r_profile : Ir.Profiler.t;
  r_traced_jobs : int;
  r_parsed_bytes : int;  (** payload and script bytes of traced jobs *)
  r_printed_bytes : int;  (** output bytes of traced jobs *)
  r_alloc_words : float;  (** allocated by untraced rounds *)
  r_major_collections : int;  (** during untraced rounds *)
}

(** The jobs of round [k]: inputs shuffled, each pair's order a coin
    flip, all drawn from the workload seed. *)
let round_jobs ~seed inputs k =
  let rng = Random.State.make [| 0x0e1; seed; k |] in
  let arr = Array.of_list inputs in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  List.concat_map
    (fun inp ->
      let pm = (inp, `Pm) and tf = (inp, `Tf) in
      if Random.State.bool rng then [ pm; tf ] else [ tf; pm ])
    (Array.to_list arr)

let action inp = function
  | `Pm -> Job.Pipeline inp.i_pipeline
  | `Tf -> Job.Script inp.i_script

(** Warm-up: the smallest input through both paths fills the schedule
    cache and the heap. *)
let warm_up ctx inputs =
  let smallest =
    List.fold_left
      (fun acc i ->
        if String.length i.i_payload < String.length acc.i_payload then i
        else acc)
      (List.hd inputs) inputs
  in
  List.iter
    (fun path ->
      match Job.run ctx ~payload:smallest.i_payload (action smallest path) with
      | Ok _ -> ()
      | Error e -> failwith ("warm-up job failed: " ^ e))
    [ `Pm; `Tf ]

(** Run [inputs] of workload [w] for [seconds]. *)
let run ctx w inputs ~seed ~seconds ~traced =
  let profile = Ir.Profiler.create () in
  let first_output : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let verify_out = Hashtbl.create 8 in
  let notes = ref [] and attempted = ref 0 and failed = ref 0 in
  let note fmt = Fmt.kstr (fun m -> notes := m :: !notes) fmt in
  let untraced = ref [] and traced_ms = ref [] and ratios = ref [] in
  let traced_jobs = ref 0 and parsed = ref 0 and printed = ref 0 in
  let busy = ref 0.0 and alloc = ref 0.0 and majors = ref 0 in
  (* outside the timed region: the full oracle on an input's first output,
     a byte comparison against it afterwards *)
  let check inp out =
    match Hashtbl.find_opt first_output inp.i_key with
    | Some first when String.equal first out -> Ok ()
    | Some _ -> Error "output differs from the first output"
    | None ->
      Hashtbl.replace first_output inp.i_key out;
      w.w_check ctx inp out
  in
  let run_round k ~trace =
    let jobs = round_jobs ~seed inputs k in
    let a0 = Common.allocated_words () and m0 = Common.major_collections () in
    let exec () =
      List.map
        (fun (inp, path) ->
          (inp, path, Job.run ctx ~payload:inp.i_payload (action inp path)))
        jobs
    in
    let results =
      if trace then Ir.Profiler.with_profiler profile exec else exec ()
    in
    if not trace then begin
      alloc := !alloc +. (Common.allocated_words () -. a0);
      majors := !majors + (Common.major_collections () - m0)
    end;
    let stage = Hashtbl.create 8 in
    List.iter
      (fun (inp, path, r) ->
        incr attempted;
        match r with
        | Error e ->
          incr failed;
          note "%s/%s: %s" inp.i_key
            (match path with `Pm -> "pass-manager" | `Tf -> "transform")
            e
        | Ok o ->
          Result.iter_error
            (fun e ->
              incr failed;
              note "%s: %s" inp.i_key e)
            (check inp o.Job.o_output);
          let ms = o.Job.o_total_s *. 1000. in
          if trace then begin
            traced_ms := ms :: !traced_ms;
            incr traced_jobs;
            parsed :=
              !parsed + String.length inp.i_payload
              + (match path with `Tf -> String.length inp.i_script | `Pm -> 0);
            printed := !printed + String.length o.Job.o_output
          end
          else begin
            busy := !busy +. o.Job.o_total_s;
            untraced := (!busy, ms) :: !untraced;
            let prev =
              Option.value (Hashtbl.find_opt verify_out inp.i_key) ~default:[]
            in
            Hashtbl.replace verify_out inp.i_key
              ((o.Job.o_verify_out_s *. 1000.) :: prev);
            match Hashtbl.find_opt stage inp.i_key with
            | None -> Hashtbl.replace stage inp.i_key (path, o.Job.o_compile_s)
            | Some (`Pm, pm) -> ratios := (o.Job.o_compile_s /. pm) :: !ratios
            | Some (`Tf, tf) -> ratios := (tf /. o.Job.o_compile_s) :: !ratios
          end)
      results
  in
  let k = ref 0 in
  let t_start = Common.now () in
  (* at least two rounds, so a traced run has an untraced one too *)
  while !k < 2 || Common.now () -. t_start < seconds do
    run_round !k ~trace:(traced && !k mod 2 = 0);
    incr k
  done;
  (* counted metrics of a traced run: the jobs of round 0, twice, outside
     the timed region; the program is deterministic, so they must agree *)
  let count_round () =
    snd
      (Common.count_deltas (fun () ->
           List.iter
             (fun (inp, path) ->
               ignore (Job.run ctx ~payload:inp.i_payload (action inp path)))
             (round_jobs ~seed inputs 0)))
  in
  let counts = if traced then count_round () else [] in
  if traced && counts <> count_round () then begin
    incr failed;
    note "counted metrics differ between two identical rounds"
  end;
  let round_ops =
    List.fold_left
      (fun acc (inp, _) ->
        match Hashtbl.find_opt first_output inp.i_key with
        | Some out -> acc + Common.count_ops out
        | None -> acc)
      0 (round_jobs ~seed inputs 0)
  in
  {
    r_untraced = !untraced;
    r_traced_ms = !traced_ms;
    r_ratios = !ratios;
    r_verify_out_ms =
      List.filter_map
        (fun inp ->
          Option.map (fun l -> (inp.i_key, l))
            (Hashtbl.find_opt verify_out inp.i_key))
        inputs;
    r_busy_s = !busy;
    r_attempted = !attempted;
    r_failed = !failed;
    r_notes = List.rev !notes;
    r_round_ops = round_ops;
    r_counts = counts;
    r_profile = profile;
    r_traced_jobs = !traced_jobs;
    r_parsed_bytes = !parsed;
    r_printed_bytes = !printed;
    r_alloc_words = !alloc;
    r_major_collections = !majors;
  }
