(* IR core: values, use-def chains, op/block/region structure, cloning. *)

open Ir

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let mkop = Testutil.mkop

(* ------------------------------------------------------------------ *)
(* values and uses                                                     *)
(* ------------------------------------------------------------------ *)

let test_results_and_uses () =
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  let b = mkop ~result_types:[| Typ.i32 |] "t.b" in
  let add =
    mkop ~operands:[| Ircore.result a; Ircore.result b |]
      ~result_types:[| Typ.i32 |] "t.add"
  in
  check ci "a has one use" 1 (Ircore.num_uses (Ircore.result a));
  check cb "a has exactly one use" true (Ircore.has_one_use (Ircore.result a));
  check cb "unused has no single use" false
    (Ircore.has_one_use (Ircore.result add));
  let both = mkop ~operands:[| Ircore.result a |] "t.second_user" in
  ignore both;
  check cb "two uses is not one" false (Ircore.has_one_use (Ircore.result a));
  check ci "add has two operands" 2 (Ircore.num_operands add);
  check cb "use points back at add" true
    (List.exists
       (fun u -> u.Ircore.u_op == add)
       (Ircore.value_uses (Ircore.result a)))

let test_set_operand_updates_uses () =
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  let b = mkop ~result_types:[| Typ.i32 |] "t.b" in
  let use = mkop ~operands:[| Ircore.result a |] "t.use" in
  Ircore.set_operand use 0 (Ircore.result b);
  check ci "a now unused" 0 (Ircore.num_uses (Ircore.result a));
  check ci "b now used" 1 (Ircore.num_uses (Ircore.result b))

let test_same_value_twice () =
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  let v = Ircore.result a in
  let use = mkop ~operands:[| v; v |] "t.use2" in
  check ci "two uses recorded" 2 (Ircore.num_uses v);
  Ircore.set_operand use 0 v;
  check ci "idempotent set keeps both" 2 (Ircore.num_uses v)

let test_rauw () =
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  let b = mkop ~result_types:[| Typ.i32 |] "t.b" in
  let u1 = mkop ~operands:[| Ircore.result a |] "t.u1" in
  let u2 = mkop ~operands:[| Ircore.result a; Ircore.result a |] "t.u2" in
  Ircore.replace_all_uses_with (Ircore.result a) ~with_:(Ircore.result b);
  check ci "a unused" 0 (Ircore.num_uses (Ircore.result a));
  check ci "b has 3 uses" 3 (Ircore.num_uses (Ircore.result b));
  check cb "u1 rewired" true (Ircore.operand u1 == Ircore.result b);
  check cb "u2 rewired" true (Ircore.operand ~index:1 u2 == Ircore.result b)

(* ------------------------------------------------------------------ *)
(* block linkage                                                       *)
(* ------------------------------------------------------------------ *)

let ops_names b = List.map (fun o -> o.Ircore.op_name) (Ircore.block_ops b)

let test_insert_order () =
  let b = Ircore.create_block () in
  let o1 = mkop "t.o1" and o2 = mkop "t.o2" and o3 = mkop "t.o3" in
  Ircore.insert_at_end b o1;
  Ircore.insert_at_end b o3;
  Ircore.insert_before ~anchor:o3 o2;
  check (Alcotest.list Alcotest.string) "order" [ "t.o1"; "t.o2"; "t.o3" ]
    (ops_names b);
  check ci "num_ops" 3 (Ircore.block_num_ops b)

let test_insert_after_and_start () =
  let b = Ircore.create_block () in
  let o2 = mkop "t.o2" in
  Ircore.insert_at_end b o2;
  let o1 = mkop "t.o1" in
  Ircore.insert_at_start b o1;
  let o3 = mkop "t.o3" in
  Ircore.insert_after ~anchor:o2 o3;
  check (Alcotest.list Alcotest.string) "order" [ "t.o1"; "t.o2"; "t.o3" ]
    (ops_names b)

let test_detach_and_move () =
  let b = Ircore.create_block () in
  let o1 = mkop "t.o1" and o2 = mkop "t.o2" and o3 = mkop "t.o3" in
  List.iter (Ircore.insert_at_end b) [ o1; o2; o3 ];
  Ircore.move_before ~anchor:o1 o3;
  check (Alcotest.list Alcotest.string) "moved" [ "t.o3"; "t.o1"; "t.o2" ]
    (ops_names b);
  Ircore.detach o1;
  check (Alcotest.list Alcotest.string) "detached" [ "t.o3"; "t.o2" ]
    (ops_names b);
  check cb "o1 unparented" true (Ircore.op_parent o1 = None)

let test_is_before () =
  let b = Ircore.create_block () in
  let o1 = mkop "t.o1" and o2 = mkop "t.o2" in
  Ircore.insert_at_end b o1;
  Ircore.insert_at_end b o2;
  check cb "o1 before o2" true (Ircore.is_before_in_block o1 o2);
  check cb "o2 not before o1" false (Ircore.is_before_in_block o2 o1)

let test_double_attach_rejected () =
  let b = Ircore.create_block () in
  let o = mkop "t.o" in
  Ircore.insert_at_end b o;
  Alcotest.check_raises "double attach"
    (Invalid_argument "op t.o is already attached to a block") (fun () ->
      Ircore.insert_at_end b o)

(* ------------------------------------------------------------------ *)
(* erasure                                                             *)
(* ------------------------------------------------------------------ *)

let test_erase_simple () =
  let b = Ircore.create_block () in
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  Ircore.insert_at_end b a;
  let use = mkop ~operands:[| Ircore.result a |] "t.use" in
  Ircore.insert_at_end b use;
  Ircore.erase use;
  check ci "a unused after erasing its user" 0 (Ircore.num_uses (Ircore.result a));
  check ci "one op left" 1 (Ircore.block_num_ops b)

let test_erase_with_live_uses_raises () =
  let b = Ircore.create_block () in
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  Ircore.insert_at_end b a;
  let use = mkop ~operands:[| Ircore.result a |] "t.use" in
  Ircore.insert_at_end b use;
  (match Ircore.erase a with
  | () -> Alcotest.fail "expected Has_live_uses"
  | exception Ircore.Has_live_uses _ -> ());
  check ci "nothing erased" 2 (Ircore.block_num_ops b)

let test_erase_region_drops_nested_uses () =
  let outer_def = mkop ~result_types:[| Typ.i32 |] "t.def" in
  let inner_block = Ircore.create_block () in
  let user = mkop ~operands:[| Ircore.result outer_def |] "t.inner_use" in
  Ircore.insert_at_end inner_block user;
  let region_op =
    mkop ~regions:[ Ircore.region_with_block inner_block ] "t.region"
  in
  check ci "one use through region" 1 (Ircore.num_uses (Ircore.result outer_def));
  Ircore.erase region_op;
  check ci "nested use dropped" 0 (Ircore.num_uses (Ircore.result outer_def))

let test_replace () =
  let b = Ircore.create_block () in
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  let a2 = mkop ~result_types:[| Typ.i32 |] "t.a2" in
  Ircore.insert_at_end b a;
  Ircore.insert_at_end b a2;
  let use = mkop ~operands:[| Ircore.result a |] "t.use" in
  Ircore.insert_at_end b use;
  Ircore.replace a ~with_:[ Ircore.result a2 ];
  check cb "use rewired to a2" true (Ircore.operand use == Ircore.result a2);
  check ci "two ops left" 2 (Ircore.block_num_ops b)

(* ------------------------------------------------------------------ *)
(* regions and walking                                                 *)
(* ------------------------------------------------------------------ *)

let nested_module () =
  let inner = Ircore.create_block () in
  Ircore.insert_at_end inner (mkop "t.leaf1");
  Ircore.insert_at_end inner (mkop "t.leaf2");
  let mid = mkop ~regions:[ Ircore.region_with_block inner ] "t.mid" in
  let outer_block = Ircore.create_block () in
  Ircore.insert_at_end outer_block mid;
  Ircore.insert_at_end outer_block (mkop "t.leaf3");
  mkop ~regions:[ Ircore.region_with_block outer_block ] "t.top"

let test_walk_pre_post () =
  let top = nested_module () in
  let pre = ref [] and post = ref [] in
  Ircore.walk (fun o -> pre := o.Ircore.op_name :: !pre) top;
  Ircore.walk_post (fun o -> post := o.Ircore.op_name :: !post) top;
  check (Alcotest.list Alcotest.string) "pre-order"
    [ "t.top"; "t.mid"; "t.leaf1"; "t.leaf2"; "t.leaf3" ]
    (List.rev !pre);
  check (Alcotest.list Alcotest.string) "post-order"
    [ "t.leaf1"; "t.leaf2"; "t.mid"; "t.leaf3"; "t.top" ]
    (List.rev !post)

(* ------------------------------------------------------------------ *)
(* walk, walk_post, iter_children                                      *)
(* ------------------------------------------------------------------ *)

let block_of ops =
  let b = Ircore.create_block () in
  List.iter (Ircore.insert_at_end b) ops;
  b

let region_of blocks =
  let r = Ircore.create_region () in
  List.iter (Ircore.append_block r) blocks;
  r

(* t.top holds two blocks; t.a holds two regions, the first of two blocks;
   t.d holds an empty region and a region with one empty block *)
let multi_region_module () =
  let b = mkop ~regions:[ region_of [ block_of [ mkop "t.c" ] ] ] "t.b" in
  let a =
    mkop
      ~regions:
        [
          region_of
            [ block_of [ mkop "t.a1"; mkop "t.a2" ]; block_of [ mkop "t.a3" ] ];
          region_of [ block_of [ b; mkop "t.e" ] ];
        ]
      "t.a"
  in
  let d =
    mkop ~regions:[ Ircore.create_region (); region_of [ block_of [] ] ] "t.d"
  in
  let top =
    mkop ~regions:[ region_of [ block_of [ a; d ]; block_of [ mkop "t.f" ] ] ]
      "t.top"
  in
  (top, a)

let names walker root =
  let out = ref [] in
  walker (fun o -> out := o.Ircore.op_name :: !out) root;
  List.rev !out

let cs = Alcotest.(list string)

(* pass and checker output depends on these visit orders *)
let test_walk_orders () =
  let top, _ = multi_region_module () in
  check cs "pre-order"
    [ "t.top"; "t.a"; "t.a1"; "t.a2"; "t.a3"; "t.b"; "t.c"; "t.e"; "t.d"; "t.f" ]
    (names Ircore.walk top);
  check cs "post-order"
    [ "t.a1"; "t.a2"; "t.a3"; "t.c"; "t.b"; "t.e"; "t.a"; "t.d"; "t.f"; "t.top" ]
    (names Ircore.walk_post top)

let test_iter_children () =
  let top, a = multi_region_module () in
  check cs "children of t.a" [ "t.a1"; "t.a2"; "t.a3"; "t.b"; "t.e" ]
    (names Ircore.iter_children a);
  check cs "children of t.top" [ "t.a"; "t.d"; "t.f" ]
    (names Ircore.iter_children top);
  check cs "a leaf has none" [] (names Ircore.iter_children (mkop "t.leaf"))

(* dead pure ops with no dead users: one post-order sweep that erases each
   one as it is visited removes all of them, adjacent ones included *)
let dce_input =
  {|"builtin.module"() ({
  "func.func"() ({
  ^bb0(%a: i64, %n: index):
    %c0 = "arith.constant"() {value = 0 : index} : () -> index
    %c1 = "arith.constant"() {value = 1 : index} : () -> index
    %dead0 = "arith.constant"() {value = 7 : i64} : () -> i64
    %dead1 = "arith.addi"(%a, %a) : (i64, i64) -> i64
    %x = "arith.muli"(%a, %a) : (i64, i64) -> i64
    "scf.for"(%c0, %n, %c1) ({
    ^bb1(%i: index):
      %dead2 = "arith.subi"(%x, %a) : (i64, i64) -> i64
      %dead3 = "arith.xori"(%x, %a) : (i64, i64) -> i64
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    %dead4 = "arith.addi"(%x, %x) : (i64, i64) -> i64
    "func.return"(%x) : (i64) -> ()
  }) {sym_name = "f", function_type = (i64, index) -> i64} : () -> ()
}) : () -> ()
|}

let test_walk_post_erase_matches_dce () =
  let parse () =
    match Parser.parse_module dce_input with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let ctx = Testutil.ctx in
  let swept = parse () in
  let erased = ref 0 in
  Ircore.walk_post
    (fun op ->
      if
        (not (op == swept))
        && Context.is_pure ctx op
        && (not (Context.op_has_trait ctx op Context.Terminator))
        && Array.for_all (fun r -> not (Ircore.has_uses r)) op.Ircore.results
      then begin
        Ircore.erase op;
        incr erased
      end)
    swept;
  check ci "dead ops erased in the sweep" 5 !erased;
  let reference = parse () in
  Testutil.run_pass "dce" reference;
  check Alcotest.string "same IR as dce"
    (Printer.op_to_string reference)
    (Printer.op_to_string swept)

(* a flat block of [n] ops under one root *)
let flat_root n =
  mkop
    ~regions:[ region_of [ block_of (List.init n (fun _ -> mkop "t.x")) ] ]
    "t.root"

(* a walk builds no list of a block's ops and no closure or option per op
   or region *)
let test_walks_allocate_nothing () =
  let visited = ref 0 in
  let visit _ = incr visited in
  let _, baseline = Testutil.alloc_words (fun () -> ()) in
  List.iter
    (fun n ->
      let root = flat_root n in
      List.iter
        (fun (what, walker, expect) ->
          visited := 0;
          let (), words = Testutil.alloc_words (fun () -> walker visit root) in
          check ci (Fmt.str "%s visits, %d ops" what n) expect !visited;
          let per_op = (words -. baseline) /. float_of_int n in
          if per_op <> 0. then
            Alcotest.failf "%s over %d ops: %.4f words per op" what n per_op)
        [
          ("walk", Ircore.walk, n + 1);
          ("walk_post", Ircore.walk_post, n + 1);
          ("iter_children", Ircore.iter_children, n);
        ])
    [ 5_000; 10_000 ]

(* ------------------------------------------------------------------ *)
(* links: edits allocate nothing, and the links stay consistent        *)
(* ------------------------------------------------------------------ *)

let detached_ops n = Array.init n (fun _ -> mkop "t.x")

let filled_block n =
  let os = detached_ops n in
  (block_of (Array.to_list os), os)

let filled_region n =
  let bs = Array.init n (fun _ -> Ircore.create_block ()) in
  (region_of (Array.to_list bs), bs)

let num_blocks r = List.length (Ircore.region_blocks r)

(* Each link edit applied to all [n] ops or blocks of a fixture. [setup n]
   builds the fixture and returns the edit loop, which must allocate
   nothing, and a count of the fixture's container afterwards. *)
let link_edits =
  [
    ( "insert_at_end",
      (fun n ->
        let b = Ircore.create_block () and os = detached_ops n in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.insert_at_end b os.(i)
            done),
          fun () -> Ircore.block_num_ops b )),
      Fun.id );
    ( "insert_at_start",
      (fun n ->
        let b = Ircore.create_block () and os = detached_ops n in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.insert_at_start b os.(i)
            done),
          fun () -> Ircore.block_num_ops b )),
      Fun.id );
    ( "insert_before",
      (fun n ->
        let b, anchor = filled_block 1 and os = detached_ops n in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.insert_before ~anchor:anchor.(0) os.(i)
            done),
          fun () -> Ircore.block_num_ops b )),
      succ );
    ( "insert_after",
      (fun n ->
        let b, anchor = filled_block 1 and os = detached_ops n in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.insert_after ~anchor:anchor.(0) os.(i)
            done),
          fun () -> Ircore.block_num_ops b )),
      succ );
    ( "detach",
      (fun n ->
        let b, os = filled_block n in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.detach os.(i)
            done),
          fun () -> Ircore.block_num_ops b )),
      fun _ -> 0 );
    ( "move_before",
      (fun n ->
        let b, os = filled_block n in
        let anchor = mkop "t.anchor" in
        Ircore.insert_at_start b anchor;
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.move_before ~anchor os.(i)
            done),
          fun () -> Ircore.block_num_ops b )),
      succ );
    ( "move_after",
      (fun n ->
        let b, os = filled_block n in
        let anchor = mkop "t.anchor" in
        Ircore.insert_at_end b anchor;
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.move_after ~anchor os.(i)
            done),
          fun () -> Ircore.block_num_ops b )),
      succ );
    ( "move_to_end",
      (fun n ->
        let b, os = filled_block n and other = Ircore.create_block () in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.move_to_end other os.(i)
            done),
          fun () -> Ircore.block_num_ops other - Ircore.block_num_ops b )),
      Fun.id );
    ( "append_block",
      (fun n ->
        let r = Ircore.create_region ()
        and bs = Array.init n (fun _ -> Ircore.create_block ()) in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.append_block r bs.(i)
            done),
          fun () -> num_blocks r )),
      Fun.id );
    ( "insert_block_after",
      (fun n ->
        let r, anchor = filled_region 1
        and bs = Array.init n (fun _ -> Ircore.create_block ()) in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.insert_block_after r ~anchor:anchor.(0) bs.(i)
            done),
          fun () -> num_blocks r )),
      succ );
    ( "detach_block",
      (fun n ->
        let r, bs = filled_region n in
        ( (fun () ->
            for i = 0 to n - 1 do
              Ircore.detach_block bs.(i)
            done),
          fun () -> num_blocks r )),
      fun _ -> 0 );
  ]

(* every link to an op or block holds the one [Some] cell it owns, so an
   edit allocates nothing *)
let test_link_edits_allocate_nothing () =
  let _, baseline = Testutil.alloc_words (fun () -> ()) in
  List.iter
    (fun n ->
      List.iter
        (fun (what, setup, expect) ->
          let edit, count = setup n in
          let (), words = Testutil.alloc_words edit in
          check ci (Fmt.str "%s, %d: count after" what n) (expect n) (count ());
          let per_op = (words -. baseline) /. float_of_int n in
          if per_op <> 0. then
            Alcotest.failf "%s over %d: %.4f words per edit" what n per_op)
        link_edits)
    [ 5_000; 10_000 ]

(* The ops of [b] along [op_next] from its first op, and along [op_prev]
   from its last, reversed. *)
let forward_ops b =
  let rec go acc = function
    | None -> List.rev acc
    | Some o -> go (o :: acc) (Ircore.op_next o)
  in
  go [] (Ircore.block_first_op b)

let backward_ops b =
  let rec go acc = function
    | None -> acc
    | Some o -> go (o :: acc) (Ircore.op_prev o)
  in
  go [] (Ircore.block_last_op b)

(* A seeded sequence of op and block moves and detaches over a region of
   three blocks. After each step, the walk from the root, the forward and
   the backward link walks of every block and region, and every parent
   link agree; a detached op has no links at all. *)
let test_links_agree () =
  let rng = Random.State.make [| 0x11e5 |] in
  let r, blocks = filled_region 3 in
  let root = mkop ~regions:[ r ] "t.root" in
  let pool = Array.init 40 (fun i -> mkop (Fmt.str "t.o%d" i)) in
  Array.iteri (fun i o -> Ircore.insert_at_end blocks.(i mod 3) o) pool;
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let attached o = Option.is_some (Ircore.op_parent o) in
  let same a b = match a with Some x -> x == b | None -> false in
  let check_links step =
    let fail fmt = Alcotest.failf ("step %d: " ^^ fmt) step in
    let rec fwd acc = function
      | None -> List.rev acc
      | Some b -> fwd (b :: acc) b.Ircore.b_next
    and bwd acc = function
      | None -> acc
      | Some b -> bwd (b :: acc) b.Ircore.b_prev
    in
    let order = fwd [] (Ircore.region_first_block r) in
    if not (List.equal ( == ) order (bwd [] r.Ircore.r_last)) then
      fail "the region's backward walk differs";
    if List.length order <> 3 then fail "%d blocks" (List.length order);
    let walked = ref [] in
    Ircore.iter_children (fun o -> walked := o :: !walked) root;
    let linked =
      List.concat_map
        (fun b ->
          if not (same (Ircore.block_parent b) r) then
            fail "a block's parent is not the region";
          let ops = forward_ops b in
          if not (List.equal ( == ) ops (backward_ops b)) then
            fail "a block's backward walk differs";
          List.iter
            (fun o ->
              if not (same (Ircore.op_parent o) b) then
                fail "%s has another parent" o.Ircore.op_name;
              if not (same (Ircore.parent_op o) root) then
                fail "%s is not under the root" o.Ircore.op_name)
            ops;
          ops)
        order
    in
    if not (List.equal ( == ) linked (List.rev !walked)) then
      fail "the walk from the root differs";
    Array.iter
      (fun o ->
        let n = List.length (List.filter (( == ) o) linked) in
        if attached o then (if n <> 1 then fail "%s linked %d times" o.Ircore.op_name n)
        else if
          n <> 0
          || Option.is_some (Ircore.op_prev o)
          || Option.is_some (Ircore.op_next o)
        then fail "detached %s still linked" o.Ircore.op_name)
      pool
  in
  for step = 1 to 3000 do
    let o = pick pool and anchor = pick pool and b = pick blocks in
    let movable = (not (o == anchor)) && attached anchor in
    (match Random.State.int rng 8 with
    | 0 -> Ircore.detach o
    | 1 when movable -> Ircore.move_before ~anchor o
    | 2 when movable -> Ircore.move_after ~anchor o
    | 3 -> Ircore.move_to_end b o
    | 4 ->
      Ircore.detach o;
      Ircore.insert_at_start b o
    | 5 ->
      let other = pick blocks in
      Ircore.detach_block b;
      if other == b then Ircore.append_block r b
      else Ircore.insert_block_after r ~anchor:other b
    | 6 ->
      Ircore.detach_block b;
      Ircore.append_block r b
    | _ -> ());
    check_links step
  done

let test_parent_and_ancestor () =
  let top = nested_module () in
  let leaf1 = List.hd (Symbol.collect_ops ~op_name:"t.leaf1" top) in
  let mid = List.hd (Symbol.collect_ops ~op_name:"t.mid" top) in
  check cb "parent of leaf1 is mid" true
    (match Ircore.parent_op leaf1 with Some p -> p == mid | None -> false);
  check cb "top ancestor of leaf1" true (Ircore.is_ancestor ~ancestor:top leaf1);
  check cb "leaf1 not ancestor of mid" false
    (Ircore.is_ancestor ~ancestor:leaf1 mid)

let test_value_defined_within () =
  let inner = Ircore.create_block ~args:[ Typ.i32 ] () in
  let mid = mkop ~regions:[ Ircore.region_with_block inner ] "t.mid" in
  check cb "block arg defined within region op" true
    (Ircore.value_defined_within ~ancestor:mid (Ircore.block_arg inner 0));
  let free = mkop ~result_types:[| Typ.i32 |] "t.free" in
  check cb "free value not within" false
    (Ircore.value_defined_within ~ancestor:mid (Ircore.result free))

(* ------------------------------------------------------------------ *)
(* cloning                                                             *)
(* ------------------------------------------------------------------ *)

let test_clone_remaps_internal_uses () =
  let b = Ircore.create_block () in
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  Ircore.insert_at_end b a;
  let u =
    mkop ~operands:[| Ircore.result a |] ~result_types:[| Typ.i32 |] "t.u"
  in
  Ircore.insert_at_end b u;
  let top = mkop ~regions:[ Ircore.region_with_block b ] "t.top" in
  let cloned = Ircore.clone_op top in
  let orig_a = List.hd (Symbol.collect_ops ~op_name:"t.a" top) in
  let new_u = List.hd (Symbol.collect_ops ~op_name:"t.u" cloned) in
  check cb "cloned use points at cloned def" true
    (not (Ircore.operand new_u == Ircore.result orig_a));
  check ci "original def uses unchanged" 1 (Ircore.num_uses (Ircore.result orig_a))

let test_clone_keeps_external_uses () =
  let ext = mkop ~result_types:[| Typ.i32 |] "t.ext" in
  let b = Ircore.create_block () in
  Ircore.insert_at_end b (mkop ~operands:[| Ircore.result ext |] "t.use");
  let top = mkop ~regions:[ Ircore.region_with_block b ] "t.top" in
  let cloned = Ircore.clone_op top in
  let new_use = List.hd (Symbol.collect_ops ~op_name:"t.use" cloned) in
  check cb "external operand preserved" true
    (Ircore.operand new_use == Ircore.result ext);
  check ci "ext now has two uses" 2 (Ircore.num_uses (Ircore.result ext))

let test_clone_with_mapping () =
  let a = mkop ~result_types:[| Typ.i32 |] "t.a" in
  let b = mkop ~result_types:[| Typ.i32 |] "t.b" in
  let u = mkop ~operands:[| Ircore.result a |] "t.u" in
  let mapping = Ircore.Mapping.create () in
  Ircore.Mapping.map_value mapping ~from:(Ircore.result a) ~to_:(Ircore.result b);
  let u' = Ircore.clone_op ~mapping u in
  check cb "mapped operand" true (Ircore.operand u' == Ircore.result b)

(* ------------------------------------------------------------------ *)
(* attributes                                                          *)
(* ------------------------------------------------------------------ *)

let test_attrs () =
  let o = mkop ~attrs:[ ("x", Attr.int 1) ] "t.o" in
  check cb "has x" true (Ircore.has_attr o "x");
  Ircore.set_attr o "y" (Attr.str "hello");
  check cb "get y" true (Ircore.attr o "y" = Some (Attr.str "hello"));
  Ircore.set_attr o "x" (Attr.int 2);
  check cb "overwrite x" true (Ircore.attr o "x" = Some (Attr.int 2));
  Ircore.remove_attr o "x";
  check cb "removed" false (Ircore.has_attr o "x")

(* ------------------------------------------------------------------ *)
(* Univ maps                                                           *)
(* ------------------------------------------------------------------ *)

let test_univ () =
  let k1 : int Util.Univ.key = Util.Univ.create_key "k1" in
  let k2 : string Util.Univ.key = Util.Univ.create_key "k2" in
  let m = Util.Univ.(empty |> add k1 42 |> add k2 "x") in
  check (Alcotest.option ci) "k1" (Some 42) (Util.Univ.find k1 m);
  check (Alcotest.option Alcotest.string) "k2" (Some "x") (Util.Univ.find k2 m);
  let k3 : int Util.Univ.key = Util.Univ.create_key "k1" in
  check cb "same-name distinct key misses" true (Util.Univ.find k3 m = None)

(* ------------------------------------------------------------------ *)
(* property: random op soup keeps use-def consistent                   *)
(* ------------------------------------------------------------------ *)

let prop_use_def_consistent =
  QCheck.Test.make ~count:100 ~name:"random mutations keep use-def consistent"
    QCheck.(list (pair small_nat small_nat))
    (fun moves ->
      let b = Ircore.create_block () in
      let defs =
        Array.init 8 (fun i ->
            mkop ~result_types:[| Typ.i32 |] (Fmt.str "t.d%d" i))
      in
      Array.iter (Ircore.insert_at_end b) defs;
      let users =
        Array.init 8 (fun i ->
            let o =
              mkop ~operands:[| Ircore.result defs.(i) |] (Fmt.str "t.u%d" i)
            in
            Ircore.insert_at_end b o;
            o)
      in
      List.iter
        (fun (ui, di) ->
          Ircore.set_operand users.(ui mod 8) 0 (Ircore.result defs.(di mod 8)))
        moves;
      (* every operand appears in its value's use list and vice versa *)
      Array.for_all
        (fun u ->
          let v = Ircore.operand u in
          List.exists (fun use -> use.Ircore.u_op == u) (Ircore.value_uses v))
        users
      && Array.for_all
           (fun d ->
             List.for_all
               (fun use ->
                 Ircore.operand ~index:use.Ircore.u_index use.Ircore.u_op
                 == Ircore.result d)
               (Ircore.value_uses (Ircore.result d)))
           defs)

(* ------------------------------------------------------------------ *)
(* property: the lazy order index agrees with list position            *)
(* ------------------------------------------------------------------ *)

(* A seeded random edit sequence over two blocks. After every edit,
   [is_before_in_block] must agree with list position for every pair of
   ops in each block, whatever the edit did to the cached order. *)
let test_order_index_random_edits () =
  let rng = Random.State.make [| 0x0de7 |] in
  let blocks = [| Ircore.create_block (); Ircore.create_block () |] in
  let fresh = ref 0 in
  let new_op () =
    incr fresh;
    mkop (Fmt.str "t.o%d" !fresh)
  in
  let pool = Array.init 24 (fun _ -> new_op ()) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let attached () =
    Array.of_list (List.concat_map Ircore.block_ops (Array.to_list blocks))
  in
  let detached () =
    Array.of_list
      (List.filter (fun o -> Ircore.op_parent o = None) (Array.to_list pool))
  in
  let check_order step =
    Array.iter
      (fun b ->
        let ops = Ircore.block_ops b in
        List.iteri
          (fun i x ->
            List.iteri
              (fun j y ->
                if Ircore.is_before_in_block x y <> (i < j) then
                  Alcotest.failf "step %d: is_before_in_block %s %s is %b" step
                    x.Ircore.op_name y.Ircore.op_name (not (i < j)))
              ops)
          ops)
      blocks
  in
  for step = 1 to 2000 do
    let att = attached () and det = detached () in
    (match Random.State.int rng 9 with
    | 0 when det <> [||] -> Ircore.insert_at_start (pick blocks) (pick det)
    | 1 when det <> [||] -> Ircore.insert_at_end (pick blocks) (pick det)
    | 2 when det <> [||] && att <> [||] ->
      Ircore.insert_before ~anchor:(pick att) (pick det)
    | 3 when det <> [||] && att <> [||] ->
      Ircore.insert_after ~anchor:(pick att) (pick det)
    | 4 when Array.length att > 1 ->
      let anchor = pick att and o = pick pool in
      if not (o == anchor) then Ircore.move_before ~anchor o
    | 5 when Array.length att > 1 ->
      let anchor = pick att and o = pick pool in
      if not (o == anchor) then Ircore.move_after ~anchor o
    | 6 -> Ircore.move_to_end (pick blocks) (pick pool)
    | 7 when att <> [||] -> Ircore.detach (pick att)
    | 8 when att <> [||] ->
      let o = pick att in
      Ircore.erase_unchecked o;
      let i = ref 0 in
      while not (pool.(!i) == o) do incr i done;
      pool.(!i) <- new_op ()
    | _ -> ());
    check_order step
  done

(* ------------------------------------------------------------------ *)
(* property: use lists follow the list semantics                       *)
(* ------------------------------------------------------------------ *)

(* A seeded random sequence of use-list edits checked against a model of
   the use-list semantics: a new use goes first, removing a use keeps the
   order of the rest, and replace_all_uses_with moves [v]'s uses to the
   front of [with_]'s in reverse. *)
let test_use_lists_match_model () =
  let rng = Random.State.make [| 0x05e5 |] in
  (* model: value id -> (user op id, operand index), newest first *)
  let model : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let uses_of v =
    Option.value ~default:[] (Hashtbl.find_opt model (Ircore.value_id v))
  in
  let model_add v op i =
    Hashtbl.replace model (Ircore.value_id v)
      ((op.Ircore.op_id, i) :: uses_of v)
  in
  let model_remove v op i =
    Hashtbl.replace model (Ircore.value_id v)
      (List.filter (fun u -> u <> (op.Ircore.op_id, i)) (uses_of v))
  in
  let model_rauw v with_ =
    if not (v == with_) then begin
      Hashtbl.replace model (Ircore.value_id with_)
        (List.rev_append (uses_of v) (uses_of with_));
      Hashtbl.replace model (Ircore.value_id v) []
    end
  in
  let model_drop op =
    Array.iteri (fun i v -> model_remove v op i) op.Ircore.operands
  in
  let args =
    Ircore.block_args (Ircore.create_block ~args:[ Typ.i32; Typ.i32 ] ())
  in
  let ops = ref [] in
  let values () = args @ List.concat_map Ircore.results !ops in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let random_operands () =
    let vs = values () in
    List.init (Random.State.int rng 4) (fun _ -> pick vs)
  in
  let create () =
    let operands = random_operands () in
    let op =
      mkop ~operands:(Array.of_list operands)
        ~result_types:[| Typ.i32; Typ.i32 |] "t.op"
    in
    List.iteri (fun i v -> model_add v op i) operands;
    ops := !ops @ [ op ]
  in
  let forget op = ops := List.filter (fun o -> not (o == op)) !ops in
  let outside_uses op =
    Array.exists
      (fun r -> List.exists (fun (id, _) -> id <> op.Ircore.op_id) (uses_of r))
      op.Ircore.results
  in
  for _ = 1 to 4 do create () done;
  for step = 1 to 3000 do
    (match Random.State.int rng 6 with
    | 0 -> create ()
    | 1 ->
      let op = pick !ops in
      let n = Ircore.num_operands op in
      if n > 0 then begin
        let i = Random.State.int rng n and v = pick (values ()) in
        let old = Ircore.operand ~index:i op in
        if not (old == v) then begin
          model_remove old op i;
          model_add v op i
        end;
        Ircore.set_operand op i v
      end
    | 2 ->
      let op = pick !ops and vs = random_operands () in
      model_drop op;
      List.iteri (fun i v -> model_add v op i) vs;
      Ircore.set_operands op vs
    | 3 ->
      let v = pick (values ()) and with_ = pick (values ()) in
      model_rauw v with_;
      Ircore.replace_all_uses_with v ~with_
    | 4 ->
      let op = pick !ops in
      let with_ =
        List.filter
          (fun v -> not (Ircore.value_defined_within ~ancestor:op v))
          (values ())
      in
      if with_ <> [] && List.length !ops > 2 then begin
        let with_ = [ pick with_; pick with_ ] in
        List.iteri (fun i v -> model_rauw (Ircore.result ~index:i op) v) with_;
        (* the rewiring reaches the op's own operands before it is erased *)
        Array.iteri
          (fun i v ->
            let v =
              match v.Ircore.v_def with
              | Ircore.Op_result (d, k) when d == op -> List.nth with_ k
              | _ -> v
            in
            model_remove v op i)
          op.Ircore.operands;
        Ircore.replace op ~with_;
        forget op
      end
    | _ ->
      let op = pick !ops in
      if outside_uses op then begin
        match Ircore.erase op with
        | () -> Alcotest.failf "step %d: erased an op with live uses" step
        | exception Ircore.Has_live_uses o when o == op -> ()
      end
      else if List.length !ops > 2 then begin
        model_drop op;
        Ircore.erase op;
        forget op
      end);
    List.iter
      (fun v ->
        let got =
          List.map
            (fun u -> (u.Ircore.u_op.Ircore.op_id, u.Ircore.u_index))
            (Ircore.value_uses v)
        in
        if
          got <> uses_of v
          || Ircore.num_uses v <> List.length got
          || Ircore.has_one_use v <> (List.length got = 1)
        then
          Alcotest.failf "step %d: uses of value %d differ from the model" step
            (Ircore.value_id v))
      (values ())
  done

let () =
  Alcotest.run "ir-core"
    [
      ( "values",
        [
          Alcotest.test_case "results and uses" `Quick test_results_and_uses;
          Alcotest.test_case "set_operand updates uses" `Quick
            test_set_operand_updates_uses;
          Alcotest.test_case "same value used twice" `Quick test_same_value_twice;
          Alcotest.test_case "replace_all_uses_with" `Quick test_rauw;
          Alcotest.test_case "use lists match the model" `Quick
            test_use_lists_match_model;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "insert order" `Quick test_insert_order;
          Alcotest.test_case "insert after/start" `Quick
            test_insert_after_and_start;
          Alcotest.test_case "detach and move" `Quick test_detach_and_move;
          Alcotest.test_case "is_before_in_block" `Quick test_is_before;
          Alcotest.test_case "order index under random edits" `Quick
            test_order_index_random_edits;
          Alcotest.test_case "double attach rejected" `Quick
            test_double_attach_rejected;
        ] );
      ( "erasure",
        [
          Alcotest.test_case "erase drops operand uses" `Quick test_erase_simple;
          Alcotest.test_case "erase with live uses raises" `Quick
            test_erase_with_live_uses_raises;
          Alcotest.test_case "erase region drops nested uses" `Quick
            test_erase_region_drops_nested_uses;
          Alcotest.test_case "replace" `Quick test_replace;
        ] );
      ( "structure",
        [
          Alcotest.test_case "walk pre/post order" `Quick test_walk_pre_post;
          Alcotest.test_case "parent and ancestor" `Quick
            test_parent_and_ancestor;
          Alcotest.test_case "value_defined_within" `Quick
            test_value_defined_within;
        ] );
      ( "links",
        [
          Alcotest.test_case "no words per edit" `Quick
            test_link_edits_allocate_nothing;
          Alcotest.test_case "walks and parents agree" `Quick test_links_agree;
        ] );
      ( "walk",
        [
          Alcotest.test_case "pre and post order" `Quick test_walk_orders;
          Alcotest.test_case "iter_children" `Quick test_iter_children;
          Alcotest.test_case "post-order erase is dce" `Quick
            test_walk_post_erase_matches_dce;
          Alcotest.test_case "no words per op" `Quick
            test_walks_allocate_nothing;
        ] );
      ( "clone",
        [
          Alcotest.test_case "remaps internal uses" `Quick
            test_clone_remaps_internal_uses;
          Alcotest.test_case "keeps external uses" `Quick
            test_clone_keeps_external_uses;
          Alcotest.test_case "explicit mapping" `Quick test_clone_with_mapping;
        ] );
      ( "attrs+univ",
        [
          Alcotest.test_case "attribute dict" `Quick test_attrs;
          Alcotest.test_case "univ map" `Quick test_univ;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_use_def_consistent ]);
    ]
