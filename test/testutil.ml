(* Helpers shared by the test suites: context construction, pass/pipeline
   running, transform-script application, and small structural queries.
   Every test executable links this module (the dune [tests] stanza links
   all modules in the directory), so suites stay declaration-free. *)

open Ir

let ctx = Transform.Register.full_context ()
let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ---------------- passes ---------------- *)

let run_pass name md =
  match (Passes.Pass.lookup_exn name).Passes.Pass.run ctx md with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pass %s: %s" name (Diag.to_string e)

let run_pipeline names md =
  match
    Passes.Pass.run_pipeline ctx (List.map Passes.Pass.lookup_exn names) md
  with
  | Ok () -> Ok ()
  | Error d -> Error (Diag.to_string d)

(* Freeze [patterns] and run the greedy driver on [root] with the arith
   constant materializer, as the canonicalize pass does. *)
let greedy ?stats ctx ~patterns root =
  Greedy.apply ~materialize:Dialects.Dutil.materialize_arith_constant ?stats
    ctx ~patterns:(Frozen_patterns.freeze patterns) root

(* ---------------- IR construction ---------------- *)

(* A detached op built by [Ircore.make], which owns [operands]; the parts
   not given are empty. *)
let mkop ?(operands = [||]) ?(result_types = [||]) ?(attrs = []) ?(regions = [])
    name =
  Ircore.make ~operands ~result_types ~attrs ~regions ~successors:[||]
    ~loc:Loc.unknown name

(* A module with one function that returns its argument [x] after a dead
   chain of [n] arith.addi ops (a_1 = x + x, a_i = a_{i-1} + x), and the
   function's entry block. *)
let dead_chain n =
  let open Dialects in
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"chain" ~arg_types:[ Typ.i32 ] ~result_types:[ Typ.i32 ]
      ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let x = Ircore.block_arg entry 0 in
  let acc = ref x in
  for _ = 1 to n do
    acc := Arith.addi rw !acc x
  done;
  Func.return rw ~operands:[ x ] ();
  (md, entry)

(* ---------------- structural queries ---------------- *)

let count name md = List.length (Symbol.collect_ops ~op_name:name md)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let dialect_gone d md =
  Symbol.collect md ~f:(fun o -> Ircore.op_dialect o = d) = []

let check_verifies ?(ctx = ctx) what m =
  match Verifier.verify ctx m with
  | Ok () -> ()
  | Error diags ->
    Alcotest.failf "%s: verification failed: %a" what
      (Fmt.list ~sep:Fmt.comma Diag.pp)
      diags

(* Run [passes] over [md] one pipeline per pass, verifying the whole
   module after each: the pass manager itself verifies nothing. *)
let run_verifying ctx passes md =
  List.iter
    (fun p ->
      let name = p.Passes.Pass.name in
      (match Passes.Pass.run_pipeline ctx [ p ] md with
      | Ok () -> ()
      | Error d -> Alcotest.failf "pass %s: %s" name (Diag.to_string d));
      check_verifies ~ctx ("after pass " ^ name) md)
    passes

(* ---------------- counted allocation ---------------- *)

(* The words [f ()] allocates on this domain, on the minor heap and
   directly on the major heap (large arrays). A minor collection on each
   side makes the GC counters exact; counted, so no wall clock enters. *)
let alloc_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = Sys.opaque_identity (f ()) in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* ---------------- transform scripts ---------------- *)

let apply ?config script payload =
  Transform.Schedule.run ?config ctx ~script ~payload

let apply_ok ?config script payload =
  match apply ?config script payload with
  | Ok steps -> steps
  | Error e -> Alcotest.failf "transform failed: %s" (Transform.Terror.to_string e)

let apply_err ?config script payload =
  match apply ?config script payload with
  | Ok _ -> Alcotest.fail "expected transform error"
  | Error e -> e

let matmul () = Workloads.Matmul.build_module ~m:8 ~n:8 ~k:4 ()

(* ---------------- remarks ---------------- *)

(** Run [f] under a fresh action context; returns [f]'s result and the
    remarks it recorded, in emission order. *)
let with_captured_remarks f =
  let actions = Action.create () in
  let result = Action.with_context actions f in
  (result, Action.remarks actions)

(* ---------------- files ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match Parser.parse_module (read_file path) with
  | Ok m -> m
  | Error e -> Alcotest.failf "%s: parse error: %s" path e
