(** Shared helpers of the end-to-end benchmark: clocks and percentiles,
    benchmark-side spans, span self-time analysis, counter snapshots and
    the metric list every workload returns. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Nearest-rank percentile of an ascending array, [p] in (0, 1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile (sorted xs) 0.5

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(** What one workload run reports. [r_counts] are the counted metrics that
    two runs with the same seed must reproduce exactly. *)
type report = {
  r_attempted : int;
  r_failed : int;
  r_metrics : metric list;
  r_counts : (string * int) list;
  r_params : (string * string) list;  (** workload parameters *)
  r_notes : string list;  (** oracle failures, one line each *)
}

(** Run set-up [times] times and report its median duration; the last
    set-up's product is kept, each earlier one is [discard]ed outside the
    timing. *)
let repeat_setup ?(discard = ignore) ~times f =
  let rec go k acc last =
    if k = 0 then (Option.get last, median acc)
    else begin
      Option.iter discard last;
      Gc.compact ();
      let t0 = now () in
      let x = f () in
      go (k - 1) ((now () -. t0) :: acc) (Some x)
    end
  in
  go times [] None

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(** A benchmark-side span around one public layer call. Spans go to the
    ambient [Ir.Profiler]: with none installed (untraced runs) this is one
    domain-local read. *)
let span name f = Ir.Profiler.span ~cat:"bench" name f

type agg = { mutable a_total : float; mutable a_self : float; mutable a_n : int }

(** Per span name: total duration, self duration (minus child spans) and
    count, in milliseconds. Each domain's event stream is balanced, so one
    stack walk over the concatenated streams is exact. *)
let self_times (p : Ir.Profiler.t) : (string, agg) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
      let a = { a_total = 0.0; a_self = 0.0; a_n = 0 } in
      Hashtbl.replace tbl name a;
      a
  in
  let stack = ref [] in
  List.iter
    (function
      | Ir.Profiler.Begin { b_name; b_ts; _ } ->
        stack := (b_name, b_ts, ref 0.0) :: !stack
      | Ir.Profiler.End { e_ts } -> (
        match !stack with
        | (name, t0, child) :: rest ->
          let dur = (e_ts -. t0) /. 1000. in
          let a = get name in
          a.a_total <- a.a_total +. dur;
          a.a_self <- a.a_self +. (dur -. !child);
          a.a_n <- a.a_n + 1;
          stack := rest;
          (match rest with (_, _, pc) :: _ -> pc := !pc +. dur | [] -> ())
        | [] -> ())
      | Ir.Profiler.Counter _ -> ())
    (Ir.Profiler.events p);
  tbl

let find_agg tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None -> { a_total = 0.0; a_self = 0.0; a_n = 0 }

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counter component name =
  match Ir.Stats.find_counter ~component name with
  | Some c -> Ir.Stats.value c
  | None -> 0

(** The program's own counters behind the counted metrics, by metric
    name. *)
let counted_keys =
  [
    ("pass.passes_run", ("pass", "passes_run"));
    ("greedy.match_attempts", ("greedy", "match_attempts"));
    ("greedy.rewrites", ("greedy", "rewrites"));
    ("greedy.folds", ("greedy", "folds"));
    ("greedy.worklist_pushes", ("greedy", "worklist_pushes"));
    ("schedule.fallbacks", ("schedule", "fallbacks"));
    ("checkpoint.ops_captured", ("checkpoint", "ops_captured"));
    ("schedule.cache_hits", ("schedule", "cache_hits"));
    ("schedule.cache_misses", ("schedule", "cache_misses"));
  ]

let snapshot () =
  List.map (fun (m, (c, n)) -> (m, counter c n)) counted_keys

(** Counter deltas of [f ()], by metric name. *)
let count_deltas f =
  let before = snapshot () in
  let r = f () in
  let after = snapshot () in
  (r, List.map2 (fun (m, a) (_, b) -> (m, b - a)) before after)

let delta deltas name = float_of_int (List.assoc name deltas)

(* ------------------------------------------------------------------ *)
(* GC                                                                  *)
(* ------------------------------------------------------------------ *)

(** Words allocated by this domain so far. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* Output inspection (independent of the compiler under test)          *)
(* ------------------------------------------------------------------ *)

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.'

(** Ops in a module printed in generic form: every op is written as a
    quoted dotted name followed by an opening parenthesis. *)
let count_ops text =
  let n = String.length text in
  let count = ref 0 in
  for i = 1 to n - 2 do
    if text.[i] = '"' && text.[i + 1] = '(' then begin
      let j = ref (i - 1) in
      while !j >= 0 && is_name_char text.[!j] do
        decr j
      done;
      if !j >= 0 && text.[!j] = '"' && !j < i - 1
         && String.contains (String.sub text (!j + 1) (i - !j - 1)) '.'
      then incr count
    end
  done;
  !count

let contains ~needle hay =
  let n = String.length needle and l = String.length hay in
  let rec matches i k =
    k = n || (hay.[i + k] = needle.[k] && matches i (k + 1))
  in
  let rec go i = i + n <= l && (matches i 0 || go (i + 1)) in
  go 0
