(** [server-mix]: a seeded request stream sent to an in-process
    [Server.Engine] over the Unix-socket transport, by 2 client
    connections in closed loop, served by 2 workers. [run.py] keeps the
    process on one core (see [ONE_CORE] there).

    Jobs: about 60% small fuzz modules ([Fuzz.Driver.module_for]) through
    [canonicalize,cse,licm]; 15% the Case-Study-2 robust lowering of fuzz
    modules [Fuzz.Oracle.applicable] accepts for it; 20% matmul payloads
    of varied sizes under the one CS4 microkernel script; 5% whisper- or
    bert-sized TOSA lowerings, sent as a pass-manager request and its
    transform-script twin back to back. A fixed 25% of requests exactly
    repeat a recent earlier one, so the result cache hits at a known
    ratio. Every other request is a distinct job: it carries its own step
    budget, which is part of the job key but far above what any job
    needs.

    Oracles, outside the timed region: fuzz and CS2 outputs must compute
    what their input computes ([Fuzz.Oracle] differential execution);
    matmul outputs must match [Workloads.Matmul.reference]; TOSA outputs
    must hold no [tosa.*] op and both paths must print the same bytes;
    every output of one payload must be byte-identical, and every repeat
    must get the same response bytes as its original. *)

open Common

let fuzz_pipeline = "canonicalize,cse,licm"
let cs2_pipeline = String.concat "," Workloads.Subview_kernel.robust_pipeline
let clients = 2
let workers = 2

(* repeats pick among the distinct requests at least [repeat_lag] and at
   most [repeat_lag + repeat_window] units back *)
let repeat_lag = 4
let repeat_window = 64

(** The corpus comes from this fixed seed; the run's seed draws the
    request stream. *)
let corpus_seed = 1

let max_units = 50_000
let sock = Filename.concat "_build" "e2ebench-server.sock"

type cls = Fuzz | Cs2 | Matmul | Tosa

let cls_name = function
  | Fuzz -> "fuzz"
  | Cs2 -> "cs2"
  | Matmul -> "matmul"
  | Tosa -> "tosa"

(** One payload of the corpus. TOSA entries have both a pipeline and a
    script; the others one of them. *)
type entry = {
  e_cls : cls;
  e_payload : string;
  e_pipeline : string option;
  e_script : string option;
  e_check : Ir.Context.t -> string -> (unit, string) result;
}

type path = Pm | Tf

type request = {
  q_id : int;  (** position in the stream *)
  q_job : int;  (** the distinct job; picks the step budget *)
  q_entry : int;
  q_path : path;
  q_repeat_of : int option;  (** [q_id] of the original *)
}

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

(* the differential oracle: the output computes what the input computes *)
let differential_check reference ctx output =
  match Ir.Parser.parse_module output with
  | Error e -> Error ("output does not parse: " ^ e)
  | Ok md -> (
    match Fuzz.Oracle.run_main ctx md with
    | Error e -> Error ("output does not execute: " ^ e)
    | Ok (got, _) ->
      if
        List.length got = List.length reference
        && List.for_all2 Fuzz.Oracle.rvalue_eq reference got
      then Ok ()
      else Error "output computes other results than its input")

let fuzz_entries ctx ~seed ~count ~cls ~pipeline ~accept =
  let rec go case acc n =
    if n = count then List.rev acc
    else
      let m = Fuzz.Driver.module_for ~seed ~case () in
      match (accept m, Fuzz.Oracle.run_main ctx m) with
      | true, Ok (reference, _) ->
        let e =
          {
            e_cls = cls;
            e_payload = Ir.Printer.op_to_string m;
            e_pipeline = Some pipeline;
            e_script = None;
            e_check = differential_check reference;
          }
        in
        go (case + 1) (e :: acc) (n + 1)
      | _ -> go (case + 1) acc n
  in
  go 0 [] 0

let matmul_entries ~seed ~count =
  let rng = Random.State.make [| 0x3a7; seed |] in
  let script = Ir.Printer.op_to_string (Experiments.Cs4.microkernel_script ()) in
  List.init count (fun _ ->
      let m = 33 + Random.State.int rng 64
      and n = 32 * (1 + Random.State.int rng 2)
      and k = 4 * (1 + Random.State.int rng 4) in
      {
        e_cls = Matmul;
        e_payload =
          Ir.Printer.op_to_string (Workloads.Matmul.build_module ~m ~n ~k ());
        e_pipeline = None;
        e_script = Some script;
        e_check =
          (fun ctx output ->
            match Ir.Parser.parse_module output with
            | Error e -> Error ("output does not parse: " ^ e)
            | Ok md -> (
              match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k md with
              | Error e -> Error ("output does not execute: " ^ e)
              | Ok (a, b, c_init, c_out, _) ->
                let expected = Workloads.Matmul.reference ~m ~n ~k a b c_init in
                if Workloads.Matmul.max_abs_diff expected c_out < 1e-3 then
                  Ok ()
                else
                  Error (Fmt.str "matmul %dx%dx%d computes wrong values" m n k)
            ));
      })

let tosa_entries ~variants =
  let pipeline = Workloads.Models.tosa_pipeline_str in
  let script = Job.script_of_pipeline pipeline in
  List.concat_map
    (fun name ->
      let spec =
        List.find
          (fun s -> s.Workloads.Models.sp_name = name)
          Workloads.Models.paper_models
      in
      List.init variants (fun j ->
          {
            e_cls = Tosa;
            e_payload =
              Ir.Printer.op_to_string
                (Workloads.Models.build
                   {
                     spec with
                     Workloads.Models.sp_ops = spec.Workloads.Models.sp_ops + j;
                   });
            e_pipeline = Some pipeline;
            e_script = Some script;
            e_check = (fun _ctx output -> Tosa_lower.check output);
          }))
    [ "whisper-decoder"; "bert-base-uncased" ]

let corpus ctx =
  let seed = corpus_seed in
  Array.of_list
    (fuzz_entries ctx ~seed ~count:192 ~cls:Fuzz ~pipeline:fuzz_pipeline
       ~accept:(fun _ -> true)
    @ fuzz_entries ctx ~seed:(seed + 0x10000) ~count:48 ~cls:Cs2
        ~pipeline:cs2_pipeline
        ~accept:(Fuzz.Oracle.applicable ~pipeline:cs2_pipeline)
    @ matmul_entries ~seed ~count:16
    @ tosa_entries ~variants:4)

(** One round: every corpus payload once by each path it has. Its
    outputs give [output_ops], its jobs the counted metrics. *)
let round (entries : entry array) =
  List.concat
    (List.init (Array.length entries) (fun i ->
         (if entries.(i).e_pipeline <> None then [ (i, Pm) ] else [])
         @ if entries.(i).e_script <> None then [ (i, Tf) ] else []))

(** Unit kinds of one block of the stream ([None] repeats an earlier
    request), shuffled anew for every block. Fixed counts make each run's
    class mix and repeat share exact: of all jobs 60% fuzz, 15% CS2, 20%
    matmul and 5% TOSA (a TOSA unit is a pair of jobs), and 25% of units
    are repeats. *)
let block =
  Array.of_list
    (List.concat_map
       (fun (kind, n) -> List.init n (fun _ -> kind))
       [ (None, 40); (Some Fuzz, 74); (Some Cs2, 18); (Some Matmul, 25);
         (Some Tosa, 3) ])

let repeat_share =
  let repeats = Array.fold_left (fun n k -> if k = None then n + 1 else n) 0 block in
  float_of_int repeats /. float_of_int (Array.length block)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** The request stream: units of one request, or of a TOSA pair. A class
    deals its payloads from a deck, reshuffled when it runs out, so every
    payload comes equally often and the seed changes the order of the work,
    not its amount: the TOSA payloads alone differ 1.5x in cost. *)
let stream (entries : entry array) ~seed =
  let rng = Random.State.make [| 0x5e7; seed |] in
  let decks =
    List.map
      (fun c ->
        ( c,
          ( Array.of_list
              (List.filter
                 (fun i -> entries.(i).e_cls = c)
                 (List.init (Array.length entries) Fun.id)),
            ref 0 ) ))
      [ Fuzz; Cs2; Matmul; Tosa ]
  in
  let pick c =
    let deck, next = List.assoc c decks in
    if !next mod Array.length deck = 0 then shuffle rng deck;
    let i = deck.(!next mod Array.length deck) in
    incr next;
    i
  in
  let next_id = ref 0 in
  let fresh entry path =
    let id = !next_id in
    incr next_id;
    { q_id = id; q_job = id; q_entry = entry; q_path = path; q_repeat_of = None }
  in
  let deck = Array.copy block in
  let distinct = ref [] (* (unit index, request), most recent first *) in
  Array.init max_units (fun u ->
      if u mod Array.length deck = 0 then shuffle rng deck;
      let recent = List.filter (fun (v, _) -> u - v >= repeat_lag) !distinct in
      match deck.(u mod Array.length deck) with
      | None when recent <> [] ->
        let _, orig =
          List.nth recent (Random.State.int rng (List.length recent))
        in
        let id = !next_id in
        incr next_id;
        [ { orig with q_id = id; q_repeat_of = Some orig.q_id } ]
      | kind ->
        (* a repeat with nothing to repeat yet, at the stream's start,
           becomes a fuzz job *)
        let reqs =
          match Option.value kind ~default:Fuzz with
          | Tosa ->
            let e = pick Tosa in
            [ fresh e Pm; fresh e Tf ]
          | Matmul -> [ fresh (pick Matmul) Tf ]
          | c -> [ fresh (pick c) Pm ]
        in
        distinct :=
          List.filteri
            (fun i _ -> i < repeat_lag + repeat_window)
            (List.map (fun r -> (u, r)) reqs @ !distinct);
        reqs)

(** The request line of each payload and path up to its budget,
    serialised once during set-up so clients spend no time on payload
    text. *)
let line_prefixes (entries : entry array) =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun (i, path) ->
      let e = entries.(i) in
      let action =
        match path with
        | Pm -> ("pipeline", Ir.Json.String (Option.get e.e_pipeline))
        | Tf -> ("script", Ir.Json.String (Option.get e.e_script))
      in
      let line =
        Ir.Json.to_line
          (Ir.Json.Obj
             [
               ("kind", Ir.Json.String "compile");
               ("payload", Ir.Json.String e.e_payload);
               action;
             ])
      in
      (* without the closing brace: the budget follows *)
      Hashtbl.replace tbl (i, path) (String.sub line 0 (String.length line - 1)))
    (round entries);
  tbl

(** The request's JSON line: every distinct job carries its own step
    budget; [~cache:false] keeps the request out of the result cache. *)
let request_line ?(cache = true) prefixes q =
  Printf.sprintf "%s,\"budget\":{\"max_steps\":%d}%s}"
    (Hashtbl.find prefixes (q.q_entry, q.q_path))
    (1_000_000 - q.q_job)
    (if cache then "" else ",\"cache\":false")

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type server = {
  sv_engine : Server.Engine.t;
  sv_listener : Server.Transport.listener;
  sv_fds : Unix.file_descr list;
}

let policy =
  {
    Server.Engine.default_policy with
    Server.Engine.p_jobs = workers;
    p_backoff_ms = 0;
    p_reproducer_dir = None;
  }

let start () =
  let engine = Server.Engine.create ~policy () in
  let listener = Server.Transport.serve_unix engine ~path:sock ~conns:clients in
  let fds = List.init clients (fun _ -> Server.Transport.connect_retry sock) in
  { sv_engine = engine; sv_listener = listener; sv_fds = fds }

let stop sv =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) sv.sv_fds;
  Server.Transport.stop_listener sv.sv_listener;
  Server.Engine.close sv.sv_engine

(** One round trip; the raw response bytes, or a transport error. *)
let rpc fd line =
  match Server.Protocol.write_frame fd line with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> (
    match Server.Protocol.read_frame fd with
    | Ok body -> Ok body
    | Error fe -> Error (Server.Protocol.frame_error_message fe)
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* warm-up: one uncached job of every class on every connection *)
let warm_up sv entries prefixes =
  List.iter
    (fun fd ->
      List.iter
        (fun c ->
          match
            List.find_opt
              (fun i -> entries.(i).e_cls = c)
              (List.init (Array.length entries) Fun.id)
          with
          | None -> ()
          | Some i ->
            let path = if c = Matmul then Tf else Pm in
            let q =
              { q_id = 0; q_job = 0; q_entry = i; q_path = path;
                q_repeat_of = None }
            in
            ignore (rpc fd (request_line ~cache:false prefixes q)))
        [ Fuzz; Cs2; Matmul; Tosa ])
    sv.sv_fds

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_req : request;
  s_unit : int;
  s_ms : float;
  s_end : float;  (** completion, in seconds since the load started *)
  s_digest : (Digest.t, string) result;
      (** of the response bytes, or the transport error; a long run keeps
          no response bodies *)
}

let status_and_output body =
  match Ir.Json.parse body with
  | Error e -> Error ("response is not JSON: " ^ e)
  | Ok j -> (
    let str k = Option.bind (Ir.Json.member k j) Ir.Json.to_string_opt in
    match (str "status", str "output") with
    | Some "ok", Some out -> Ok out
    | Some s, _ ->
      let msg =
        Option.bind (Ir.Json.member "error" j) (fun e ->
            Option.bind (Ir.Json.member "message" e) Ir.Json.to_string_opt)
      in
      Error (Fmt.str "status %s: %s" s (Option.value msg ~default:""))
    | None, _ -> Error "response without status")

(** Drive the stream from every connection until [seconds] are used up.
    The first response of each payload and path is kept whole in
    [firsts], for the oracle. *)
let run_load sv prefixes units ~seconds firsts =
  let next = Atomic.make 0 and mu = Mutex.create () in
  let keep_first q body =
    Mutex.lock mu;
    if not (Hashtbl.mem firsts (q.q_entry, q.q_path)) then
      Hashtbl.replace firsts (q.q_entry, q.q_path) body;
    Mutex.unlock mu
  in
  let t0 = now () in
  let client fd () =
    let samples = ref [] in
    let rec loop () =
      if now () -. t0 < seconds then begin
        let u = Atomic.fetch_and_add next 1 in
        if u < Array.length units then begin
          List.iter
            (fun q ->
              let line = request_line prefixes q in
              let t = now () in
              let r = rpc fd line in
              let t1 = now () in
              let ms = (t1 -. t) *. 1000. in
              let digest =
                Result.map
                  (fun body ->
                    keep_first q body;
                    Digest.string body)
                  r
              in
              samples :=
                { s_req = q; s_unit = u; s_ms = ms; s_end = t1 -. t0;
                  s_digest = digest }
                :: !samples)
            units.(u);
          loop ()
        end
      end
    in
    loop ();
    !samples
  in
  (* threads, not domains: the engine already runs four domains on the
     machine's two cores, and every further domain joins each of its minor
     collections *)
  let results = List.map (fun fd -> (ref [], fd)) sv.sv_fds in
  let threads =
    List.map
      (fun (r, fd) -> Thread.create (fun () -> r := client fd ()) ())
      results
  in
  List.iter Thread.join threads;
  List.concat_map (fun (r, _) -> !r) results

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let hist component name =
  Ir.Stats.hist_totals (Ir.Stats.histogram ~component name)

let run ~seed ~seconds ~traced : report =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ctx = Transform.Register.full_context () in
  (* set-up: corpus, stream, request lines, engine start, warm-up *)
  let (sv, entries, units, prefixes), setup_s =
    repeat_setup ~times:3
      ~discard:(fun (sv, _, _, _) -> stop sv)
      (fun () ->
        let entries = corpus ctx in
        let units = stream entries ~seed in
        let prefixes = line_prefixes entries in
        let sv = start () in
        warm_up sv entries prefixes;
        (sv, entries, units, prefixes))
  in
  let c0 name = counter "server" name in
  let hits0 = c0 "cache_hits" and misses0 = c0 "cache_misses" in
  let tasks0 = counter "pool" "tasks" in
  let cell_n0, cell_sum0, _, _ = hist "server" "job_ms" in
  let majors0 = major_collections () in
  let firsts = Hashtbl.create 512 in
  let samples = run_load sv prefixes units ~seconds firsts in
  let majors = major_collections () - majors0 in
  let hits = c0 "cache_hits" - hits0 and misses = c0 "cache_misses" - misses0 in
  let tasks = counter "pool" "tasks" - tasks0 in
  let cell_n1, cell_sum1, _, _ = hist "server" "job_ms" in
  let round = round entries in
  (* outside the timed region: each payload and path the stream did not
     reach gets one request, so every run checks and counts the whole
     corpus *)
  let unreached = List.filter (fun k -> not (Hashtbl.mem firsts k)) round in
  List.iter
    (fun (i, path) ->
      let q =
        { q_id = -1; q_job = (2 * max_units) + 1 + i; q_entry = i;
          q_path = path; q_repeat_of = None }
      in
      Result.iter
        (Hashtbl.replace firsts (i, path))
        (rpc (List.hd sv.sv_fds) (request_line prefixes q)))
    unreached;
  stop sv;
  (* oracles: the first response of each payload and path is checked in
     full, and both paths of a payload must print the same output; every
     other response, repeats included, must be byte-identical to it *)
  let notes = ref [] and failed = ref 0 in
  let note fmt =
    Fmt.kstr (fun m -> if List.length !notes < 20 then notes := m :: !notes) fmt
  in
  let fail fmt =
    Fmt.kstr
      (fun m ->
        incr failed;
        note "%s" m)
      fmt
  in
  let outputs = Hashtbl.create 512 and verdicts = Hashtbl.create 512 in
  List.iter
    (fun (i, path) ->
      let e = entries.(i) in
      let verdict =
        match Hashtbl.find_opt firsts (i, path) with
        | None -> Error "no response"
        | Some body -> (
          match (status_and_output body, Hashtbl.find_opt outputs i) with
          | (Error _ as err), _ -> err
          | Ok out, Some first when String.equal out first -> Ok ()
          | Ok _, Some _ -> Error "the two paths print different outputs"
          | Ok out, None ->
            Hashtbl.replace outputs i out;
            e.e_check ctx out)
      in
      Result.iter_error
        (fun err ->
          note "%s entry %d: %s" (cls_name e.e_cls) i err;
          (* a payload only the unreached pass requested fails once *)
          if List.mem (i, path) unreached then incr failed)
        verdict;
      Hashtbl.replace verdicts (i, path)
        ( Result.is_ok verdict,
          Option.map Digest.string (Hashtbl.find_opt firsts (i, path)) ))
    round;
  List.iter
    (fun s ->
      let id = s.s_req.q_id in
      let verdict = Hashtbl.find verdicts (s.s_req.q_entry, s.s_req.q_path) in
      match (s.s_digest, verdict) with
      | Error e, _ -> fail "request %d: transport: %s" id e
      | Ok _, (false, _) -> incr failed
      | Ok d, (true, Some first) when d = first -> ()
      | Ok _, (true, _) ->
        fail "request %d: response differs from its payload's first" id)
    samples;
  let attempted = List.length samples in
  let ms l = List.map (fun s -> s.s_ms) l in
  let round_ops =
    List.fold_left
      (fun acc (i, _) ->
        match Hashtbl.find_opt outputs i with
        | Some out -> acc + count_ops out
        | None -> acc)
      0 round
  in
  let pairs =
    let by_unit = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if entries.(s.s_req.q_entry).e_cls = Tosa && s.s_req.q_repeat_of = None
        then
          let pm, tf =
            Option.value (Hashtbl.find_opt by_unit s.s_unit) ~default:(None, None)
          in
          Hashtbl.replace by_unit s.s_unit
            (match s.s_req.q_path with
            | Pm -> (Some s.s_ms, tf)
            | Tf -> (pm, Some s.s_ms)))
      samples;
    Hashtbl.fold
      (fun _ v acc ->
        match v with Some pm, Some tf -> (tf /. pm) :: acc | _ -> acc)
      by_unit []
  in
  let metrics, counts =
    if not traced then
      ( Metrics.end_to_end_of
          ~latency:
            (Metrics.windowed_latency ~span:seconds
               (List.map (fun s -> (s.s_end, s.s_ms)) samples))
          ~attempted ~failed:!failed ~ratios:pairs ~output_ops:round_ops
          ~setup_s,
        [] )
    else begin
      (* counted metrics, job-path layers and the tracing overhead: the jobs
         of one round, run sequentially through the job path with a fresh
         context each, as a cell does. Each job runs traced and then
         untraced; the counts of the two rounds must agree. *)
      let jobs = round in
      let job_profile = Ir.Profiler.create () in
      let run_job (i, path) =
        let e = entries.(i) in
        let action =
          match path with
          | Pm -> Job.Pipeline (Option.get e.e_pipeline)
          | Tf -> Job.Script (Option.get e.e_script)
        in
        let ctx = Transform.Register.full_context () in
        match Job.run ctx ~payload:e.e_payload action with
        | Ok o -> o.Job.o_total_s *. 1000.
        | Error err ->
          fail "%s entry %d: %s" (cls_name e.e_cls) i err;
          nan
      in
      let add = List.map2 (fun (m, a) (_, b) -> (m, a + b)) in
      let zero = List.map (fun (m, _) -> (m, 0)) (snapshot ()) in
      let traced_ms, untraced_ms, counts, again, alloc =
        List.fold_left
          (fun (tms, ums, counts, again, alloc) job ->
            let a0 = allocated_words () in
            let t, c =
              count_deltas (fun () ->
                  Ir.Profiler.with_profiler job_profile (fun () -> run_job job))
            in
            let alloc = alloc +. (allocated_words () -. a0) in
            let u, c' = count_deltas (fun () -> run_job job) in
            (t :: tms, u :: ums, add counts c, add again c', alloc))
          ([], [], zero, zero, 0.0) jobs
      in
      if counts <> again then
        fail "counted metrics differ between two identical rounds";
      let parsed =
        List.fold_left
          (fun acc (i, path) ->
            let e = entries.(i) in
            let script =
              match path with Tf -> Option.get e.e_script | Pm -> ""
            in
            acc + String.length e.e_payload + String.length script)
          0 jobs
      in
      let printed =
        List.fold_left
          (fun acc (i, _) ->
            match Hashtbl.find_opt outputs i with
            | Some out -> acc + String.length out
            | None -> acc)
          0 jobs
      in
      let repeats = List.filter (fun s -> s.s_req.q_repeat_of <> None) samples in
      let fresh = List.filter (fun s -> s.s_req.q_repeat_of = None) samples in
      let cell_ms =
        Metrics.ratio (cell_sum1 -. cell_sum0) (float_of_int (cell_n1 - cell_n0))
      in
      let n = float_of_int attempted in
      ( Metrics.job_layers ~spans:(self_times job_profile)
          ~jobs:(List.length jobs) ~parsed_bytes:parsed ~printed_bytes:printed
          ~counts
        @ [
            metric "gc.alloc_mb_per_job" "MB"
              (Metrics.ratio (words_to_mb alloc)
                 (float_of_int (List.length jobs)));
            metric "gc.major_collections" "1/job"
              (Metrics.ratio (float_of_int majors) n);
            metric "verifier.doubling_ratio" "ratio" 0.0;
            metric "rcache.hit_share" "ratio"
              (Metrics.ratio (float_of_int hits) (float_of_int (hits + misses)));
            metric "rcache.hit_ms.p50" "ms" (median (ms repeats));
            metric "cell.job_ms.mean" "ms" cell_ms;
            metric "engine.overhead_ms" "ms" (mean (ms fresh) -. cell_ms);
            metric "pool.tasks" "1/job" (Metrics.ratio (float_of_int tasks) n);
            metric "trace.overhead_ratio" "ratio"
              (Metrics.ratio (median traced_ms) (median untraced_ms));
          ],
        counts )
    end
  in
  {
    r_attempted = attempted;
    r_failed = !failed;
    r_metrics = metrics;
    r_counts =
      ("output_ops", round_ops)
      :: List.filter (fun (k, _) -> List.mem k Metrics.counted) counts;
    r_params =
      [
        ("clients", string_of_int clients);
        ("workers", string_of_int workers);
        ("entries", string_of_int (Array.length entries));
        ("repeat_share", Fmt.str "%g" repeat_share);
        ("fuzz_pipeline", fuzz_pipeline);
        ("cs2_pipeline", cs2_pipeline);
        ("requests", string_of_int attempted);
      ];
    r_notes = List.rev !notes;
  }
