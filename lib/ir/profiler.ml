(** Trace-event profiler: timestamped begin/end spans with nesting, plus
    counter samples, exported as Chrome trace-event JSON loadable in
    Perfetto ([ui.perfetto.dev]) or [chrome://tracing].

    Like {!Action}, the profiler is ambient: {!with_profiler} installs one
    for a dynamic extent and deeply nested components (a greedy rewrite
    inside a canonicalize pass inside a transform script) report spans
    without threading the profiler through every signature. The ambient
    slot is domain-local, so the parallel pass manager installs the same
    profiler instance in every worker and each domain records into its own
    shard: one [(tid, event buffer, depth)] record per domain, created
    lazily under the profiler's mutex and cached in domain-local storage so
    the hot path stays lock-free. Exported events carry the shard's real
    domain id as [tid], which Perfetto renders as per-domain lanes. When no
    profiler is installed every entry point is a cheap no-op — a single
    domain-local read — so instrumentation can stay on in hot paths (the
    cost is measured by [bench … profiler] into [BENCH_profiler.json]).

    Spans nest strictly {e per domain}: {!span} emits a [B] (begin) event,
    runs its body and emits the matching [E] (end) event even on
    exceptions, so each shard's stream is always balanced and Perfetto
    renders each lane as a flame graph: pass pipeline → pass → greedy
    driver, and transform op spans. {!counter} emits a [C]
    (counter sample) event. {!timing} reads the pass and schedule spans
    back as a tree. *)

type arg = Aint of int | Afloat of float | Astr of string

type event =
  | Begin of {
      b_name : string;
      b_cat : string;  (** trace-event category, e.g. [pass], [greedy] *)
      b_ts : float;  (** microseconds since profiler creation *)
      b_args : (string * arg) list;
    }
  | End of { e_ts : float }
  | Counter of { c_name : string; c_ts : float; c_value : float }

type shard = {
  sh_tid : int;  (** the recording domain's id *)
  mutable sh_rev_events : event list;
  mutable sh_depth : int;  (** currently open spans on this domain *)
  mutable sh_max_depth : int;
  mutable sh_spans : int;  (** completed spans on this domain *)
}

type t = {
  mutable shards : shard list;  (** guarded by [mu]; one per domain *)
  mu : Mutex.t;
  t0 : float;  (** creation time, the trace's timestamp origin *)
}

let now () = Unix.gettimeofday ()
let create () = { shards = []; mu = Mutex.create (); t0 = now () }

(* last (profiler, shard) this domain touched — avoids the mutex on every
   event when one profiler stays installed, the overwhelmingly common case *)
let shard_cache : (t * shard) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let shard_for p =
  match Domain.DLS.get shard_cache with
  | Some (p', s) when p' == p -> s
  | _ ->
    let tid = (Domain.self () :> int) in
    Mutex.lock p.mu;
    let s =
      match List.find_opt (fun s -> s.sh_tid = tid) p.shards with
      | Some s -> s
      | None ->
        let s =
          { sh_tid = tid; sh_rev_events = []; sh_depth = 0; sh_max_depth = 0;
            sh_spans = 0 }
        in
        p.shards <- s :: p.shards;
        s
    in
    Mutex.unlock p.mu;
    Domain.DLS.set shard_cache (Some (p, s));
    s

(* shards sorted by domain id, so merged views are deterministic *)
let sorted_shards p =
  Mutex.lock p.mu;
  let shards = p.shards in
  Mutex.unlock p.mu;
  List.sort (fun a b -> compare a.sh_tid b.sh_tid) shards

(** All recorded events, grouped by recording domain (ascending domain id),
    in recording order within each domain. *)
let events p =
  List.concat_map (fun s -> List.rev s.sh_rev_events) (sorted_shards p)

let span_count p =
  List.fold_left (fun acc s -> acc + s.sh_spans) 0 (sorted_shards p)

let max_depth p =
  List.fold_left (fun acc s -> max acc s.sh_max_depth) 0 (sorted_shards p)

(** All begin spans closed on every domain — always true outside {!span}
    bodies. *)
let balanced p =
  List.for_all (fun s -> s.sh_depth = 0) (sorted_shards p)

(* ------------------------------------------------------------------ *)
(* Ambient profiler (domain-local)                                     *)
(* ------------------------------------------------------------------ *)

let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(** Install [p] as this domain's ambient profiler while [f] runs. Worker
    domains start with no profiler; the pass manager re-installs the
    parent's instance around each parallel task. *)
let with_profiler p f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some p);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

(** Run [f] with no ambient profiler (benchmarks use this to measure the
    disabled-path overhead under an outer [--profile]). *)
let with_disabled f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current None;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

(** This domain's ambient profiler, for schedulers that propagate it to
    worker domains. *)
let active () = Domain.DLS.get current

let profiling () = Domain.DLS.get current <> None

(** Microseconds since the ambient profiler's creation, or [None] with no
    profiler installed — lets other journals (e.g. {!Action}) stamp their
    records on the same timebase as the exported trace spans. *)
let timestamp () =
  match Domain.DLS.get current with
  | None -> None
  | Some p -> Some ((now () -. p.t0) *. 1e6)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let ts p = (now () -. p.t0) *. 1e6

let begin_on p ~cat ~args name =
  let s = shard_for p in
  s.sh_depth <- s.sh_depth + 1;
  if s.sh_depth > s.sh_max_depth then s.sh_max_depth <- s.sh_depth;
  s.sh_rev_events <-
    Begin { b_name = name; b_cat = cat; b_ts = ts p; b_args = args }
    :: s.sh_rev_events

let end_on p =
  let s = shard_for p in
  s.sh_depth <- s.sh_depth - 1;
  s.sh_spans <- s.sh_spans + 1;
  s.sh_rev_events <- End { e_ts = ts p } :: s.sh_rev_events

(** [span name f] runs [f] inside a profiler span named [name]. With no
    ambient profiler this is exactly [f ()] after one domain-local read.
    The end event is emitted even when [f] raises, so the stream stays
    balanced. *)
let span ?(cat = "") ?(args = []) name f =
  match Domain.DLS.get current with
  | None -> f ()
  | Some p ->
    begin_on p ~cat ~args name;
    Fun.protect ~finally:(fun () -> end_on p) f

(** Emit a counter sample, e.g. the greedy driver's worklist size. *)
let counter name value =
  match Domain.DLS.get current with
  | None -> ()
  | Some p ->
    let s = shard_for p in
    s.sh_rev_events <-
      Counter { c_name = name; c_ts = ts p; c_value = value }
      :: s.sh_rev_events

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let arg_to_json = function
  | Aint n -> Json.Int n
  | Afloat f -> Json.Float f
  | Astr s -> Json.String s

(* every event carries pid/tid: the viewers group events by both; tid is
   the recording domain's id, giving Perfetto one lane per domain *)
let event_to_json ~tid = function
  | Begin { b_name; b_cat; b_ts; b_args } ->
    Json.Obj
      ([
         ("name", Json.String b_name);
         ("cat", Json.String (if b_cat = "" then "otd" else b_cat));
         ("ph", Json.String "B");
         ("ts", Json.Float b_ts);
         ("pid", Json.Int 1);
         ("tid", Json.Int tid);
       ]
      @
      match b_args with
      | [] -> []
      | args ->
        [
          ( "args",
            Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) args) );
        ])
  | End { e_ts } ->
    Json.Obj
      [
        ("ph", Json.String "E");
        ("ts", Json.Float e_ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
      ]
  | Counter { c_name; c_ts; c_value } ->
    Json.Obj
      [
        ("name", Json.String c_name);
        ("ph", Json.String "C");
        ("ts", Json.Float c_ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("value", Json.Float c_value) ]);
      ]

(** The profile as a Chrome trace-event JSON object (the "JSON object
    format": a [traceEvents] array plus metadata), loadable in Perfetto
    and [chrome://tracing]. Events are grouped per recording domain with
    real [tid]s, so parallel pass runs show one lane per domain. *)
let to_json p =
  let shards = sorted_shards p in
  let trace_events =
    List.concat_map
      (fun s ->
        List.rev_map (event_to_json ~tid:s.sh_tid) s.sh_rev_events)
      shards
  in
  Json.Obj
    [
      ("traceEvents", Json.List trace_events);
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("producer", Json.String "otd-opt profiler");
            ("spans", Json.Int (span_count p));
            ("max_depth", Json.Int (max_depth p));
            ("domains", Json.Int (List.length shards));
          ] );
    ]

(** Write the profile to [path]. *)
let write p ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json p));
      output_string oc "\n")

(* ------------------------------------------------------------------ *)
(* Timing view                                                         *)
(* ------------------------------------------------------------------ *)

(** A node of the timing view: one span and the spans it contains. *)
type timing = { name : string; seconds : float; children : timing list }

(** The calling domain's [pass] and [schedule] spans, nested by
    containment: pipeline → pass, and schedule compile and apply.
    Spans of other categories are skipped and their kept descendants
    attach to the nearest kept ancestor. The pass manager records these
    spans on the domain that runs the pipeline, while a fanned-out pass's
    per-function tasks record only finer spans, so the view's names and
    nesting are the same at every pool size. This is [otd-opt --timing]. *)
let timing p =
  let tid = (Domain.self () :> int) in
  let events =
    match List.find_opt (fun s -> s.sh_tid = tid) (sorted_shards p) with
    | Some s -> List.rev s.sh_rev_events
    | None -> []
  in
  let roots = ref [] in
  (* one frame per open span; [Some (name, start, children)] if kept *)
  let attach node frames =
    match List.find_map Fun.id frames with
    | Some (_, _, children) -> children := node :: !children
    | None -> roots := node :: !roots
  in
  let step frames = function
    | Begin { b_name; b_cat; b_ts; _ } ->
      let kept = b_cat = "pass" || b_cat = "schedule" in
      (if kept then Some (b_name, b_ts, ref []) else None) :: frames
    | End { e_ts } -> (
      match frames with
      | Some (name, b_ts, children) :: rest ->
        attach
          { name; seconds = (e_ts -. b_ts) /. 1e6;
            children = List.rev !children }
          rest;
        rest
      | None :: rest -> rest
      | [] -> [])
    | Counter _ -> frames
  in
  ignore (List.fold_left step [] events);
  List.rev !roots

let rec pp_timing_at ~total ~depth fmt t =
  Fmt.pf fmt "%s%8.3f ms (%5.1f%%)  %s@,"
    (String.make (2 * depth) ' ')
    (t.seconds *. 1000.)
    (if total > 0. then 100. *. t.seconds /. total else 100.)
    t.name;
  List.iter (pp_timing_at ~total ~depth:(depth + 1) fmt) t.children

(** One line per node, indented by depth, with its share of the roots'
    total time. *)
let pp_timing fmt roots =
  let total = List.fold_left (fun acc t -> acc +. t.seconds) 0. roots in
  Fmt.pf fmt "@[<v>%a@]"
    (fun fmt -> List.iter (pp_timing_at ~total ~depth:0 fmt))
    roots

let rec timing_node_to_json t =
  Json.Obj
    ([ ("name", Json.String t.name); ("seconds", Json.Float t.seconds) ]
    @
    match t.children with
    | [] -> []
    | cs -> [ ("children", Json.List (List.map timing_node_to_json cs)) ])

let timing_to_json roots = Json.List (List.map timing_node_to_json roots)
