(* Rewriter, patterns, greedy driver, CSE, canonicalize. *)

open Ir
open Dialects

let ctx = Transform.Register.full_context ()

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* simple function with arithmetic to rewrite *)
let arith_func body =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"f" ~arg_types:[ Typ.i32; Typ.i32 ]
      ~result_types:[ Typ.i32 ] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let r = body rw (Ircore.block_arg entry 0) (Ircore.block_arg entry 1) in
  Func.return rw ~operands:[ r ] ();
  md

let count_ops name md = List.length (Symbol.collect_ops ~op_name:name md)

(* ------------------------------------------------------------------ *)
(* listeners                                                           *)
(* ------------------------------------------------------------------ *)

let test_listener_events () =
  let inserted = ref [] and replaced = ref [] and erased = ref [] in
  let modified = ref [] in
  let rw = Rewriter.create () in
  Rewriter.add_listener rw
    {
      Rewriter.on_inserted = (fun o -> inserted := o.Ircore.op_name :: !inserted);
      on_replaced = (fun o _ -> replaced := o.Ircore.op_name :: !replaced);
      on_erased = (fun o -> erased := o.Ircore.op_name :: !erased);
      on_modified = (fun o -> modified := o.Ircore.op_name :: !modified);
    };
  let b = Ircore.create_block () in
  Rewriter.set_ip rw (Builder.At_end b);
  let a = Rewriter.build rw ~operands:[||] ~result_types:[| Typ.i32 |] "t.a" in
  let a2 = Rewriter.build rw ~operands:[||] ~result_types:[| Typ.i32 |] "t.b" in
  Rewriter.modify_in_place rw a2 (fun () -> Ircore.set_attr a2 "tag" (Attr.Bool true));
  Rewriter.replace_op rw a ~with_:(Ircore.results a2);
  let dead = Rewriter.build rw ~operands:[||] ~result_types:[||] "t.dead" in
  Rewriter.erase_op rw dead;
  check (Alcotest.list Alcotest.string) "inserted" [ "t.a"; "t.b"; "t.dead" ]
    (List.rev !inserted);
  check (Alcotest.list Alcotest.string) "replaced" [ "t.a" ] (List.rev !replaced);
  check (Alcotest.list Alcotest.string) "erased" [ "t.dead" ] (List.rev !erased);
  check (Alcotest.list Alcotest.string) "modified" [ "t.b" ] (List.rev !modified)

let test_nested_erase_notifies () =
  let erased = ref 0 in
  let rw = Rewriter.create () in
  Rewriter.add_listener rw
    { Rewriter.null_listener with Rewriter.on_erased = (fun _ -> incr erased) };
  let inner = Ircore.create_block () in
  Ircore.insert_at_end inner (Testutil.mkop "t.leaf");
  let region_op =
    Testutil.mkop ~regions:[ Ircore.region_with_block inner ] "t.region"
  in
  let b = Ircore.create_block () in
  Ircore.insert_at_end b region_op;
  Rewriter.erase_op rw region_op;
  check ci "both ops notified" 2 !erased

(* ------------------------------------------------------------------ *)
(* allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* a block with two i32 arguments *)
let two_arg_block () =
  let b = Ircore.create_block ~args:[ Typ.i32; Typ.i32 ] () in
  (b, Ircore.block_arg b 0, Ircore.block_arg b 1)

(* a build allocates the op [Ircore.make] allocates and nothing else: no
   option box, list or closure *)
let test_build_costs_a_make () =
  let b, x, y = two_arg_block () in
  let rw = Rewriter.create ~ip:(Builder.At_end b) () in
  let _, baseline = Testutil.alloc_words (fun () -> ()) in
  let _, built =
    Testutil.alloc_words (fun () ->
        Rewriter.build1 rw ~operands:[| x; y |] ~result_types:[| Typ.i32 |]
          "arith.addi")
  in
  let _, made =
    Testutil.alloc_words (fun () ->
        let op =
          Ircore.make ~operands:[| x; y |] ~result_types:[| Typ.i32 |]
            ~attrs:[] ~regions:[] ~successors:[||] ~loc:Loc.unknown
            "arith.addi"
        in
        Ircore.insert_at_end b op;
        Ircore.result op)
  in
  check (Alcotest.float 0.) "words of a build" (made -. baseline)
    (built -. baseline)

let counting_listener n =
  {
    Rewriter.on_inserted = (fun _ -> incr n);
    on_replaced = (fun _ _ -> incr n);
    on_erased = (fun _ -> incr n);
    on_modified = (fun _ -> incr n);
  }

(* the words of a build, a replace_op and an erase_op of an op with a
   nested op, made by [rw] in a fresh block *)
let edit_words rw =
  let b, x, y = two_arg_block () in
  Rewriter.set_ip rw (Builder.At_end b);
  let _, build =
    Testutil.alloc_words (fun () ->
        Rewriter.build rw ~operands:[| x; y |] ~result_types:[| Typ.i32 |]
          "t.a")
  in
  let old =
    Rewriter.build rw ~operands:[||] ~result_types:[| Typ.i32 |] "t.b"
  in
  let with_ = [ x ] in
  let _, replace =
    Testutil.alloc_words (fun () -> Rewriter.replace_op rw old ~with_)
  in
  let inner = Ircore.create_block () in
  Ircore.insert_at_end inner (Testutil.mkop "t.leaf");
  let outer =
    Testutil.mkop ~regions:[ Ircore.region_with_block inner ] "t.region"
  in
  Ircore.insert_at_end b outer;
  let _, erase = Testutil.alloc_words (fun () -> Rewriter.erase_op rw outer) in
  [ ("build", build); ("replace_op", replace); ("erase_op", erase) ]

(* with one listener on the rewriter and one ambient listener, each
   notification allocates nothing; with none, neither does a replace_op
   or an erase_op *)
let test_notify_allocates_nothing () =
  let _, baseline = Testutil.alloc_words (fun () -> ()) in
  let quiet = edit_words (Rewriter.create ()) in
  List.iter
    (fun what ->
      check (Alcotest.float 0.) (what ^ " words") 0.
        (List.assoc what quiet -. baseline))
    [ "replace_op"; "erase_op" ];
  let heard = ref 0 in
  let rw = Rewriter.create () in
  Rewriter.add_listener rw (counting_listener heard);
  let loud =
    Rewriter.with_listener (counting_listener heard) (fun () -> edit_words rw)
  in
  (* two builds, a replacement and two erasures, each heard twice *)
  check ci "events heard" 10 !heard;
  List.iter2
    (fun (what, q) (_, l) ->
      check (Alcotest.float 0.) (what ^ " words with two listeners") q l)
    quiet loud

(* ------------------------------------------------------------------ *)
(* block surgery                                                       *)
(* ------------------------------------------------------------------ *)

let test_split_block () =
  let rw = Rewriter.create () in
  let b = Ircore.create_block () in
  let o1 = Testutil.mkop "t.o1" and o2 = Testutil.mkop "t.o2" in
  let o3 = Testutil.mkop "t.o3" in
  List.iter (Ircore.insert_at_end b) [ o1; o2; o3 ];
  let region = Ircore.region_with_block b in
  ignore region;
  let rest = Rewriter.split_block_before rw b o2 in
  check ci "b keeps 1" 1 (Ircore.block_num_ops b);
  check ci "rest has 2" 2 (Ircore.block_num_ops rest);
  check cb "o2 first in rest" true
    (match Ircore.block_first_op rest with Some o -> o == o2 | None -> false)

let test_inline_block_before () =
  let rw = Rewriter.create () in
  let src = Ircore.create_block ~args:[ Typ.i32 ] () in
  let user =
    Testutil.mkop ~operands:[| Ircore.block_arg src 0 |] "t.user"
  in
  Ircore.insert_at_end src user;
  let dst = Ircore.create_block () in
  let anchor = Testutil.mkop "t.anchor" in
  Ircore.insert_at_end dst anchor;
  let v = Testutil.mkop ~result_types:[| Typ.i32 |] "t.v" in
  Rewriter.inline_block_before rw ~anchor ~arg_values:[ Ircore.result v ] src;
  check ci "dst has 2 ops" 2 (Ircore.block_num_ops dst);
  check cb "arg replaced" true (Ircore.operand user == Ircore.result v)

(* ------------------------------------------------------------------ *)
(* greedy driver                                                       *)
(* ------------------------------------------------------------------ *)

let test_greedy_folds_constants () =
  let md =
    arith_func (fun rw _ _ ->
        let a = Dutil.const_int rw ~typ:Typ.i32 20 in
        let b = Dutil.const_int rw ~typ:Typ.i32 22 in
        Arith.addi rw a b)
  in
  ignore (Testutil.greedy ctx ~patterns:[] md);
  check ci "addi folded away" 0 (count_ops "arith.addi" md);
  (* result must be a constant 42 *)
  let consts = Symbol.collect_ops ~op_name:"arith.constant" md in
  check cb "42 constant present" true
    (List.exists (fun c -> Ircore.attr c "value" = Some (Attr.Int (42, Typ.i32))) consts)

let test_greedy_dce () =
  let md =
    arith_func (fun rw x _ ->
        ignore (Arith.muli rw x x);
        (* dead *)
        x)
  in
  ignore (Testutil.greedy ctx ~patterns:[] md);
  check ci "dead mul removed" 0 (count_ops "arith.muli" md)

let test_greedy_patterns_fixpoint () =
  let md =
    arith_func (fun rw x _ ->
        let zero = Dutil.const_int rw ~typ:Typ.i32 0 in
        let a = Arith.addi rw x zero in
        let b = Arith.addi rw a zero in
        Arith.addi rw b zero)
  in
  ignore
    (Testutil.greedy ctx ~patterns:(Arith.canonicalization_patterns ()) md);
  check ci "all addi-zero chains gone" 0 (count_ops "arith.addi" md)

let test_greedy_respects_benefit () =
  (* two patterns on the same root; higher benefit must win *)
  let hits = ref [] in
  let p_low =
    Pattern.make ~benefit:1 ~root:"t.target" ~name:"low" (fun rw op ->
        hits := "low" :: !hits;
        Rewriter.replace_op rw op ~with_:[];
        true)
  in
  let p_high =
    Pattern.make ~benefit:10 ~root:"t.target" ~name:"high" (fun rw op ->
        hits := "high" :: !hits;
        Rewriter.replace_op rw op ~with_:[];
        true)
  in
  let b = Ircore.create_block () in
  Ircore.insert_at_end b (Testutil.mkop "t.target");
  let top = Testutil.mkop ~regions:[ Ircore.region_with_block b ] "t.top" in
  ignore
    (Greedy.apply ctx ~patterns:(Frozen_patterns.freeze [ p_low; p_high ]) top);
  check (Alcotest.list Alcotest.string) "high benefit first" [ "high" ] !hits

let test_greedy_converges_flag () =
  (* a pattern that always "rewrites" (infinite loop) must stop at
     max_iterations and report non-convergence *)
  let p =
    Pattern.make ~root:"t.spin" ~name:"spin" (fun rw op ->
        let result_types = Array.map Ircore.value_typ op.Ircore.results in
        ignore
          (Rewriter.replace_op_with rw op ~operands:[||] ~result_types "t.spin");
        true)
  in
  let b = Ircore.create_block () in
  Ircore.insert_at_end b (Testutil.mkop "t.spin");
  let top = Testutil.mkop ~regions:[ Ircore.region_with_block b ] "t.top" in
  let converged =
    Greedy.apply ctx ~patterns:(Frozen_patterns.freeze [ p ]) top
  in
  check cb "reports non-convergence" false converged

(* ------------------------------------------------------------------ *)
(* CSE + canonicalize passes                                           *)
(* ------------------------------------------------------------------ *)

let run_pass name md =
  match (Passes.Pass.lookup_exn name).Passes.Pass.run ctx md with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pass %s: %s" name (Diag.to_string e)

let test_cse_merges () =
  let md =
    arith_func (fun rw x y ->
        let a = Arith.addi rw x y in
        let b = Arith.addi rw x y in
        Arith.muli rw a b)
  in
  run_pass "cse" md;
  check ci "one addi left" 1 (count_ops "arith.addi" md)

let test_cse_respects_attrs () =
  let md =
    arith_func (fun rw x y ->
        let a = Arith.cmpi rw Arith.Slt x y in
        let b = Arith.cmpi rw Arith.Sgt x y in
        let s = Arith.select rw a x y in
        let t = Arith.select rw b x y in
        Arith.addi rw s t)
  in
  run_pass "cse" md;
  check ci "different predicates kept" 2 (count_ops "arith.cmpi" md)

let test_cse_skips_effects () =
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"f"
      ~arg_types:[ Typ.memref (Typ.static_dims [ 4 ]) Typ.f32 ]
      ~result_types:[] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let m = Ircore.block_arg entry 0 in
  let i = Dutil.const_int rw 0 in
  let a = Memref.load rw m [ i ] in
  let b = Memref.load rw m [ i ] in
  let s = Arith.addf rw a b in
  Memref.store rw s m [ i ];
  Func.return rw ();
  run_pass "cse" md;
  check ci "loads not merged (effects)" 2 (count_ops "memref.load" md)

let test_cse_across_dominating_blocks () =
  (* a duplicate computation in a dominated block is merged with the one in
     the entry block; duplicates in sibling branches are NOT merged *)
  let src =
    {|"func.func"() ({
^bb0(%c: i1, %x: i32):
  %a = "arith.addi"(%x, %x) : (i32, i32) -> i32
  "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()
^bb1:
  %b = "arith.addi"(%x, %x) : (i32, i32) -> i32
  %u = "arith.muli"(%x, %x) : (i32, i32) -> i32
  "test.use"(%b, %u) : (i32, i32) -> ()
  "cf.br"()[^bb3] : () -> ()
^bb2:
  %d = "arith.muli"(%x, %x) : (i32, i32) -> i32
  "test.use2"(%d) : (i32) -> ()
  "cf.br"()[^bb3] : () -> ()
^bb3:
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i1, i32) -> ()} : () -> ()|}
  in
  let md =
    match Ir.Parser.parse_module src with
    | Ok m -> m
    | Error e -> Alcotest.failf "parse: %s" e
  in
  run_pass "cse" md;
  check ci "dominated addi merged" 1 (count_ops "arith.addi" md);
  check ci "sibling mulis kept apart" 2 (count_ops "arith.muli" md)

let test_canonicalize_pipeline () =
  let md =
    arith_func (fun rw x _ ->
        let one = Dutil.const_int rw ~typ:Typ.i32 1 in
        let zero = Dutil.const_int rw ~typ:Typ.i32 0 in
        let m = Arith.muli rw x one in
        Arith.addi rw m zero)
  in
  run_pass "canonicalize" md;
  check ci "no muli" 0 (count_ops "arith.muli" md);
  check ci "no addi" 0 (count_ops "arith.addi" md)

let () =
  Alcotest.run "rewriter"
    [
      ( "listeners",
        [
          Alcotest.test_case "events fire" `Quick test_listener_events;
          Alcotest.test_case "nested erase notifies" `Quick
            test_nested_erase_notifies;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "build costs a make" `Quick
            test_build_costs_a_make;
          Alcotest.test_case "notifications allocate nothing" `Quick
            test_notify_allocates_nothing;
        ] );
      ( "surgery",
        [
          Alcotest.test_case "split block" `Quick test_split_block;
          Alcotest.test_case "inline block" `Quick test_inline_block_before;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "constant folding" `Quick
            test_greedy_folds_constants;
          Alcotest.test_case "dead code elimination" `Quick test_greedy_dce;
          Alcotest.test_case "fixpoint over patterns" `Quick
            test_greedy_patterns_fixpoint;
          Alcotest.test_case "benefit ordering" `Quick
            test_greedy_respects_benefit;
          Alcotest.test_case "non-convergence detected" `Quick
            test_greedy_converges_flag;
        ] );
      ( "passes",
        [
          Alcotest.test_case "cse merges" `Quick test_cse_merges;
          Alcotest.test_case "cse respects attrs" `Quick test_cse_respects_attrs;
          Alcotest.test_case "cse skips effectful ops" `Quick
            test_cse_skips_effects;
          Alcotest.test_case "cse across dominating blocks" `Quick
            test_cse_across_dominating_blocks;
          Alcotest.test_case "canonicalize" `Quick test_canonicalize_pipeline;
        ] );
    ]
