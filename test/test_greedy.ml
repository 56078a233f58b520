(* Worklist-driven greedy engine: pattern indexing, listener push-back,
   the dce pass, folder uniquing and convergence diagnostics. The driver's
   output on the canonicalize set is pinned by
   test/golden/greedy_outcomes.expected. *)

open Ir
open Dialects

let ctx = Transform.Register.full_context ()

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let count_ops name md = List.length (Symbol.collect_ops ~op_name:name md)

(* A function whose body is a chain of [n] foldable arith.addi ops:
   a_1 = 1 + 1, a_i = a_{i-1} + 1. Everything folds to constants. *)
let addi_chain n =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"chain" ~arg_types:[] ~result_types:[ Typ.i32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let one = Dutil.const_int rw ~typ:Typ.i32 1 in
  let acc = ref one in
  for _ = 1 to n do
    acc := Arith.addi rw !acc one
  done;
  Func.return rw ~operands:[ !acc ] ();
  md

(* ------------------------------------------------------------------ *)
(* sub-quadratic work on foldable chains                               *)
(* ------------------------------------------------------------------ *)

let attempts_for n =
  let md = addi_chain n in
  let stats = Greedy.create_stats () in
  let converged = Testutil.greedy ~stats ctx ~patterns:[] md in
  check cb (Fmt.str "chain %d converges" n) true converged;
  check ci (Fmt.str "chain %d fully folded" n) 0 (count_ops "arith.addi" md);
  stats.Greedy.match_attempts

let test_subquadratic_attempts () =
  let a100 = attempts_for 100 in
  let a200 = attempts_for 200 in
  check cb "some matching happened" true (a100 > 0);
  (* linear worklist growth: doubling the chain must not quadruple work *)
  check cb
    (Fmt.str "attempts grow sub-quadratically (%d -> %d)" a100 a200)
    true
    (a200 < 4 * a100)

(* ------------------------------------------------------------------ *)
(* root-indexed pattern sets                                           *)
(* ------------------------------------------------------------------ *)

(* A pattern rooted at an absent op name must cost zero match attempts. *)
let test_root_index_skips_foreign_ops () =
  let b = Ircore.create_block () in
  for _ = 1 to 50 do
    Ircore.insert_at_end b (Testutil.mkop "t.other")
  done;
  let top = Testutil.mkop ~regions:[ Ircore.region_with_block b ] "t.top" in
  let p =
    Pattern.make ~root:"t.target" ~name:"never" (fun _ _ -> false)
  in
  let stats = Greedy.create_stats () in
  ignore
    (Greedy.apply ~stats ctx ~patterns:(Frozen_patterns.freeze [ p ]) top);
  check ci "no candidates, no attempts" 0 stats.Greedy.match_attempts

(* ------------------------------------------------------------------ *)
(* listener push-back                                                  *)
(* ------------------------------------------------------------------ *)

(* The user of a replaced op must be revisited: t.user is visited once
   while its operand still comes from t.a, then t.marker triggers an
   in-place poke, t.a is replaced by t.b, and the push-back must revisit
   t.user so it can finally fire on the t.b-defined operand. *)
let test_pushback_revisits_users_after_replace () =
  let b = Ircore.create_block () in
  let a = Testutil.mkop ~result_types:[| Typ.i32 |] "t.a" in
  let user = Testutil.mkop ~operands:[| Ircore.result a |] "t.user" in
  let marker = Testutil.mkop "t.marker" in
  List.iter (Ircore.insert_at_end b) [ a; user; marker ];
  let top = Testutil.mkop ~regions:[ Ircore.region_with_block b ] "t.top" in
  let armed = ref false in
  let user_saw = ref [] in
  let p_user =
    Pattern.make ~root:"t.user" ~name:"user" (fun rw op ->
        let def_name =
          match Ircore.defining_op (Ircore.operand op) with
          | Some d -> d.Ircore.op_name
          | None -> "<arg>"
        in
        user_saw := def_name :: !user_saw;
        if def_name = "t.b" then begin
          Rewriter.erase_op rw op;
          true
        end
        else false)
  in
  let p_a =
    Pattern.make ~root:"t.a" ~name:"a-to-b" (fun rw op ->
        if !armed then begin
          let result_types = Array.map Ircore.value_typ op.Ircore.results in
          ignore
            (Rewriter.replace_op_with rw op ~operands:[||] ~result_types "t.b");
          true
        end
        else false)
  in
  let p_marker =
    Pattern.make ~root:"t.marker" ~name:"marker" (fun rw op ->
        armed := true;
        (* in-place poke: on_modified must push t.a back on the worklist *)
        Rewriter.modify_in_place rw a (fun () -> ());
        Rewriter.erase_op rw op;
        true)
  in
  let converged =
    Greedy.apply ctx
      ~patterns:(Frozen_patterns.freeze [ p_user; p_a; p_marker ])
      top
  in
  check cb "converged" true converged;
  let saw = List.rev !user_saw in
  check cb
    (Fmt.str "user revisited after replacement (saw %a)"
       Fmt.(Dump.list string)
       saw)
    true
    (List.length saw >= 2 && List.mem "t.b" saw && List.hd saw = "t.a");
  check ci "user finally rewritten away" 0 (count_ops "t.user" top);
  check ci "t.a replaced" 0 (count_ops "t.a" top)

(* Erasing a dead user must enqueue the defs of its operands, so an entire
   dead pure chain is collected from a single post-order seeding. *)
let test_pushback_collects_newly_dead_defs () =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"f" ~arg_types:[ Typ.i32 ] ~result_types:[ Typ.i32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let x = Ircore.block_arg entry 0 in
  let m = Arith.muli rw x x in
  let u = Arith.muli rw m m in
  ignore u;
  (* u is unused: erasing it makes m newly dead *)
  Func.return rw ~operands:[ x ] ();
  let stats = Greedy.create_stats () in
  ignore (Testutil.greedy ~stats ctx ~patterns:[] md);
  check ci "whole dead chain erased" 0 (count_ops "arith.muli" md);
  check ci "two dce erasures" 2 stats.Greedy.dce

(* The dce pass is the greedy driver with no patterns: a dead chain is
   collected from one seeding, one erasure per op, and the worklist grows
   linearly with the chain. *)
let test_dce_pass_dead_chains () =
  let counter name =
    match Stats.find_counter ~component:"greedy" name with
    | Some c -> Stats.value c
    | None -> Alcotest.failf "greedy/%s not registered" name
  in
  let pushes_for n =
    let md, entry = Testutil.dead_chain n in
    let dce0 = counter "dce" and pushes0 = counter "worklist_pushes" in
    Testutil.run_pass "dce" md;
    check ci (Fmt.str "chain %d: only the return is left" n) 1
      (Ircore.block_num_ops entry);
    check ci (Fmt.str "chain %d: one erasure per op" n) n
      (counter "dce" - dce0);
    counter "worklist_pushes" - pushes0
  in
  let p2k = pushes_for 2000 in
  let p4k = pushes_for 4000 in
  check cb
    (Fmt.str "pushes grow at most 2.5x per doubling (%d -> %d)" p2k p4k)
    true
    (2 * p4k <= 5 * p2k)

(* ------------------------------------------------------------------ *)
(* folder-level constant uniquing                                      *)
(* ------------------------------------------------------------------ *)

let test_folder_uniques_constants () =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"f" ~arg_types:[]
      ~result_types:[ Typ.i32; Typ.i32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let mk () =
    let a = Dutil.const_int rw ~typ:Typ.i32 20 in
    let b = Dutil.const_int rw ~typ:Typ.i32 22 in
    Arith.addi rw a b
  in
  let r1 = mk () in
  let r2 = mk () in
  Func.return rw ~operands:[ r1; r2 ] ();
  ignore (Testutil.greedy ctx ~patterns:[] md);
  check ci "both addi folded" 0 (count_ops "arith.addi" md);
  (* one uniqued 42, not one per folded op; the 20/22 operands are dce'd *)
  check ci "single uniqued constant" 1 (count_ops "arith.constant" md);
  (* and it was hoisted to the start of the entry block *)
  (match Ircore.block_first_op entry with
  | Some op ->
    check Alcotest.string "hoisted constant first" "arith.constant"
      op.Ircore.op_name;
    check cb "holds the folded value" true
      (Ircore.attr op "value" = Some (Attr.Int (42, Typ.i32)))
  | None -> Alcotest.fail "entry block is empty")

(* MLIR compares float attributes bitwise: 0.0 and -0.0 are different
   constants, so uniquing must not merge them. *)
let test_folder_keeps_signed_zeros_apart () =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"f" ~arg_types:[]
      ~result_types:[ Typ.f32; Typ.f32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let pos = Arith.constant rw (Attr.Float (0.0, Typ.f32)) Typ.f32 in
  let neg = Arith.constant rw (Attr.Float (-0.0, Typ.f32)) Typ.f32 in
  Func.return rw ~operands:[ pos; neg ] ();
  ignore (Testutil.greedy ctx ~patterns:[] md);
  check ci "both constants kept" 2 (count_ops "arith.constant" md);
  match Symbol.collect_ops ~op_name:"func.return" md with
  | [ ret ] ->
    let bits v =
      match Ircore.defining_op v with
      | Some def -> (
        match Ircore.attr def "value" with
        | Some (Attr.Float (x, _)) -> Int64.bits_of_float x
        | _ -> Alcotest.fail "operand is not a float constant")
      | None -> Alcotest.fail "operand has no defining op"
    in
    check cb "returns 0.0 then -0.0" true
      (List.map bits (Ircore.operands ret)
      = [ Int64.bits_of_float 0.0; Int64.bits_of_float (-0.0) ])
  | _ -> Alcotest.fail "expected one func.return"

(* ------------------------------------------------------------------ *)
(* non-convergence diagnostic                                          *)
(* ------------------------------------------------------------------ *)

let test_warns_on_max_iterations () =
  let p =
    Pattern.make ~root:"t.spin" ~name:"spin2" (fun rw op ->
        let result_types = Array.map Ircore.value_typ op.Ircore.results in
        ignore
          (Rewriter.replace_op_with rw op ~operands:[||] ~result_types "t.spin");
        true)
  in
  let b = Ircore.create_block () in
  Ircore.insert_at_end b (Testutil.mkop "t.spin");
  let top = Testutil.mkop ~regions:[ Ircore.region_with_block b ] "t.top" in
  let converged, diags =
    Context.capture_diags ctx (fun () ->
        Greedy.apply ctx
          ~patterns:(Frozen_patterns.freeze [ p ])
          top)
  in
  check cb "did not converge" false converged;
  check ci "one diagnostic" 1 (List.length diags);
  let d = List.hd diags in
  check cb "is a warning" true (Diag.severity d = Diag.Warning);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check cb "mentions convergence" true (contains (Diag.message d) "converge")

let () =
  Alcotest.run "greedy"
    [
      ( "worklist",
        [
          Alcotest.test_case "sub-quadratic fold attempts" `Quick
            test_subquadratic_attempts;
          Alcotest.test_case "root index skips foreign ops" `Quick
            test_root_index_skips_foreign_ops;
          Alcotest.test_case "push-back revisits users" `Quick
            test_pushback_revisits_users_after_replace;
          Alcotest.test_case "push-back collects dead defs" `Quick
            test_pushback_collects_newly_dead_defs;
          Alcotest.test_case "dce pass on dead chains" `Quick
            test_dce_pass_dead_chains;
        ] );
      ( "folder",
        [
          Alcotest.test_case "constants uniqued and hoisted" `Quick
            test_folder_uniques_constants;
          Alcotest.test_case "signed zeros kept apart" `Quick
            test_folder_keeps_signed_zeros_apart;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "warns at max_iterations" `Quick
            test_warns_on_max_iterations;
        ] );
    ]
