(* Verifier: structural invariants, dominance, terminators, symbols. *)

open Ir
open Dialects

let ctx = Transform.Register.full_context ()

let expect_ok m =
  match Verifier.verify ctx m with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "unexpected diagnostics: %a"
      (Fmt.list ~sep:Fmt.comma Diag.pp)
      ds

let expect_error ~containing m =
  match Verifier.verify ctx m with
  | Ok () -> Alcotest.failf "expected error containing %S" containing
  | Error ds ->
    let all = Fmt.str "%a" (Fmt.list ~sep:Fmt.comma Diag.pp) ds in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      m = 0 || go 0
    in
    if not (contains all containing) then
      Alcotest.failf "diagnostics %S do not mention %S" all containing

let parse src =
  match Parser.parse_module src with
  | Ok m -> m
  | Error e -> Alcotest.failf "parse: %s" e

let test_valid_module () =
  expect_ok
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.addi"(%a, %a) : (i32, i32) -> i32
  "func.return"(%0) : (i32) -> ()
}) {sym_name = "f", function_type = (i32) -> i32} : () -> ()|})

let test_missing_terminator () =
  expect_error ~containing:"terminator"
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.addi"(%a, %a) : (i32, i32) -> i32
}) {sym_name = "f", function_type = (i32) -> i32} : () -> ()|})

let test_terminator_in_middle () =
  (* build directly: return before another op *)
  let f, entry = Func.create ~name:"f" ~arg_types:[] ~result_types:[] () in
  let rw = Dutil.rw_at_end entry in
  Func.return rw ();
  ignore (Dutil.const_int rw 1);
  let md = Builtin.create_module () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  expect_error ~containing:"terminator" md

let test_wrong_operand_count () =
  expect_error ~containing:"expected 2 operands"
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.addi"(%a) : (i32) -> i32
  "func.return"(%0) : (i32) -> ()
}) {sym_name = "f", function_type = (i32) -> i32} : () -> ()|})

let test_same_type_trait () =
  expect_error ~containing:"same type"
    (parse
       {|"func.func"() ({
^bb0(%a: i32, %b: f32):
  %0 = "arith.addi"(%a, %b) : (i32, f32) -> i32
  "func.return"(%0) : (i32) -> ()
}) {sym_name = "f", function_type = (i32, f32) -> i32} : () -> ()|})

let test_missing_attr () =
  expect_error ~containing:"missing required attribute"
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.cmpi"(%a, %a) : (i32, i32) -> i1
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i32) -> ()} : () -> ()|})

let test_unregistered_rejected () =
  let strict = Dialects.Registry.context () in
  let m = parse {|"nosuch.op"() : () -> ()|} in
  (match Verifier.verify strict m with
  | Ok () -> Alcotest.fail "expected unregistered error"
  | Error _ -> ());
  let lax = Dialects.Registry.context ~allow_unregistered:true () in
  match Verifier.verify lax m with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "lax context rejected: %a"
      (Fmt.list ~sep:Fmt.comma Diag.pp)
      ds

let test_dominance_straightline () =
  (* use before def in the same block *)
  let b = Ircore.create_block () in
  let def = Testutil.mkop ~result_types:[| Typ.i32 |] "arith.constant" in
  Ircore.set_attr def "value" (Attr.int 1);
  let use =
    Testutil.mkop ~operands:[| Ircore.result def |] ~result_types:[| Typ.i32 |]
      "arith.addi"
  in
  Ircore.set_operands use [ Ircore.result def; Ircore.result def ];
  Ircore.insert_at_end b use;
  Ircore.insert_at_end b def;
  Ircore.insert_at_end b (Testutil.mkop "func.return");
  let f =
    Testutil.mkop
      ~regions:[ Ircore.region_with_block b ]
      ~attrs:
        [
          ("sym_name", Attr.str "f");
          ("function_type", Attr.typ (Typ.Func ([], [])));
        ]
      "func.func"
  in
  let md = Builtin.create_module () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  expect_error ~containing:"dominate" md

let test_dominance_cfg () =
  (* value defined in one successor used in the sibling branch *)
  expect_error ~containing:"dominate"
    (parse
       {|"func.func"() ({
^bb0(%c: i1):
  "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()
^bb1:
  %x = "arith.constant"() {value = 1 : i32} : () -> i32
  "cf.br"()[^bb3] : () -> ()
^bb2:
  %y = "arith.addi"(%x, %x) : (i32, i32) -> i32
  "cf.br"()[^bb3] : () -> ()
^bb3:
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i1) -> ()} : () -> ()|})

let test_dominance_cfg_ok () =
  (* def dominates both uses through a diamond *)
  expect_ok
    (parse
       {|"func.func"() ({
^bb0(%c: i1):
  %x = "arith.constant"() {value = 1 : i32} : () -> i32
  "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()
^bb1:
  %a = "arith.addi"(%x, %x) : (i32, i32) -> i32
  "cf.br"()[^bb3] : () -> ()
^bb2:
  %b = "arith.addi"(%x, %x) : (i32, i32) -> i32
  "cf.br"()[^bb3] : () -> ()
^bb3:
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i1) -> ()} : () -> ()|})

let test_nested_region_uses_outer () =
  (* outer value used in a nested loop body: fine *)
  expect_ok
    (parse
       {|"func.func"() ({
^bb0:
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c4 = "arith.constant"() {value = 4 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  "scf.for"(%c0, %c4, %c1) ({
  ^bb1(%i: index):
    %s = "arith.addi"(%i, %c1) : (index, index) -> index
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = () -> ()} : () -> ()|})

let test_symbol_redefinition () =
  let md = Builtin.create_module () in
  let f1, e1 = Func.create ~name:"dup" ~arg_types:[] ~result_types:[] () in
  Func.return (Dutil.rw_at_end e1) ();
  let f2, e2 = Func.create ~name:"dup" ~arg_types:[] ~result_types:[] () in
  Func.return (Dutil.rw_at_end e2) ();
  Ircore.insert_at_end (Builtin.body_block md) f1;
  Ircore.insert_at_end (Builtin.body_block md) f2;
  expect_error ~containing:"redefinition of symbol" md

(* declared (i64) -> i8, but the body binds (i32, i64) and returns an
   i64: both the entry block and the return disagree with the signature *)
let mistyped_function =
  {|"func.func"() ({
^bb0(%a: i32, %b: i64):
  "func.return"(%b) : (i64) -> ()
}) {sym_name = "f", function_type = (i64) -> i8} : () -> ()|}

let test_function_signature () =
  expect_error ~containing:"entry block must have 1 arguments"
    (parse mistyped_function);
  expect_error ~containing:"type of return operand 0 (i64)"
    (parse mistyped_function);
  expect_error
    ~containing:"type of entry block argument #0(i32) must match"
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  "func.return"() : () -> ()
}) {sym_name = "g", function_type = (i64) -> ()} : () -> ()|});
  expect_error
    ~containing:"has 0 operands, but enclosing function (@h) returns 1"
    (parse
       {|"func.func"() ({
^bb0(%a: i64):
  "func.return"() : () -> ()
}) {sym_name = "h", function_type = (i64) -> i64} : () -> ()|});
  (* calls to @callee (i64) -> i32 *)
  let with_call call =
    parse
      (Fmt.str
         {|"func.func"() ({
^bb0(%%a: i64):
  %%c = "arith.constant"() {value = 1 : i32} : () -> i32
  "func.return"(%%c) : (i32) -> ()
}) {sym_name = "callee", function_type = (i64) -> i32} : () -> ()
"func.func"() ({
^bb0(%%x: i64, %%y: i32):
  %s
  "func.return"() : () -> ()
}) {sym_name = "caller", function_type = (i64, i32) -> ()} : () -> ()|}
         call)
  in
  expect_ok
    (with_call
       {|%r = "func.call"(%x) {callee = @callee} : (i64) -> i32|});
  expect_error ~containing:"incorrect number of operands for callee"
    (with_call
       {|%r = "func.call"(%x, %x) {callee = @callee} : (i64, i64) -> i32|});
  expect_error
    ~containing:
      "operand type mismatch: expected operand type i64, but provided i32 \
       for operand number 0"
    (with_call
       {|%r = "func.call"(%y) {callee = @callee} : (i32) -> i32|});
  expect_error ~containing:"result type mismatch at index 0"
    (with_call
       {|%r = "func.call"(%x) {callee = @callee} : (i64) -> i64|});
  (* an unresolved callee is an interpreter extern: not checked *)
  expect_ok
    (with_call
       {|"func.call"(%x, %y) {callee = @libxsmm_gemm} : (i64, i32) -> ()|})

let test_successor_on_non_terminator () =
  expect_error ~containing:"terminator"
    (parse
       {|"func.func"() ({
^bb0:
  "arith.constant"()[^bb1] {value = 1 : i32} : () -> ()
^bb1:
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = () -> ()} : () -> ()|})

(* ------------------------------------------------------------------ *)
(* use nodes, the cached op order and counted renumbering              *)
(* ------------------------------------------------------------------ *)

let straightline () =
  let m =
    parse
      {|"func.func"() ({
^bb0(%a: i64):
  %x = "arith.addi"(%a, %a) : (i64, i64) -> i64
  %y = "arith.muli"(%x, %a) : (i64, i64) -> i64
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i64) -> ()} : () -> ()|}
  in
  let find name =
    let found = ref None in
    Ircore.walk
      (fun o -> if o.Ircore.op_name = name then found := Some o)
      m;
    Option.get !found
  in
  (m, find "arith.addi", find "arith.muli")

let test_unlinked_use_node () =
  let m, _, mul = straightline () in
  expect_ok m;
  Ircore.remove_use mul.Ircore.op_uses.(0);
  expect_error ~containing:"operand #0 missing from the use list of its value"
    m

let test_move_invalidates_order () =
  (* the first verify caches the block's order; moving the def past its
     user must invalidate it *)
  let m, add, mul = straightline () in
  expect_ok m;
  Ircore.move_after ~anchor:mul add;
  expect_error ~containing:"operand #0 does not dominate this use" m

let ops_renumbered () =
  match Stats.find_counter ~component:"ircore" "ops_renumbered" with
  | Some c -> Stats.value c
  | None -> Alcotest.fail "counter ircore/ops_renumbered is not registered"

let test_renumber_counted_once () =
  (* a 40k-op flat block: each op uses the previous one, so every operand
     is a same-block dominance query *)
  let n = 40_000 in
  let md = Builtin.create_module () in
  let f, entry =
    Func.create ~name:"flat" ~arg_types:[ Typ.i64 ] ~result_types:[] ()
  in
  let a = Ircore.block_arg entry 0 in
  let prev = ref a in
  for _ = 1 to n - 1 do
    let op =
      Testutil.mkop ~operands:[| !prev; a |] ~result_types:[| Typ.i64 |]
        "arith.addi"
    in
    Ircore.insert_at_end entry op;
    prev := Ircore.result op
  done;
  Func.return (Dutil.rw_at_end entry) ();
  Ircore.insert_at_end (Builtin.body_block md) f;
  let other_ops = Ircore.block_num_ops (Builtin.body_block md) in
  let before = ops_renumbered () in
  expect_ok md;
  let first = ops_renumbered () - before in
  if first > n + other_ops then
    Alcotest.failf "first verify renumbered %d ops, more than %d" first
      (n + other_ops);
  expect_ok md;
  Alcotest.(check int) "second verify renumbers nothing" 0
    (ops_renumbered () - before - first)

(* ---------------- counted allocation ---------------- *)

(* A flat function body of [n] ops: each arith op combines the previous
   result with a block argument or a constant defined at the top of the
   block; every 40th op adds 0 (canonicalize folds it) and every 60th
   repeats the op before it (cse removes the copy). *)
let flat_block n =
  let b = Buffer.create (n * 64) in
  Buffer.add_string b
    "\"builtin.module\"() ({\n  \"func.func\"() ({\n  ^bb0(%a0: i64, %a1: i64):\n\
    \    %c0 = \"arith.constant\"() {value = 0 : i64} : () -> i64\n\
    \    %k = \"arith.constant\"() {value = 3 : i64} : () -> i64\n";
  let rhs = [| "%a0"; "%a1"; "%k" |] and names = [| "addi"; "subi"; "xori" |] in
  let line i name lhs r =
    Printf.bprintf b "    %%v%d = \"arith.%s\"(%s, %s) : (i64, i64) -> i64\n" i
      name lhs r
  in
  let prev = ref "%a0" in
  for i = 1 to n - 3 do
    (if i mod 40 = 0 then line i "addi" !prev "%c0"
     else if i mod 60 = 0 then
       let j = i - 1 in
       line i names.(j mod 3) (Fmt.str "%%v%d" (j - 1)) rhs.(j * 7 mod 3)
     else line i names.(i mod 3) !prev rhs.(i * 7 mod 3));
    prev := Fmt.str "%%v%d" i
  done;
  Printf.bprintf b
    "    \"func.return\"(%s) : (i64) -> ()\n  }) {sym_name = \"flat\", \
     function_type = (i64, i64) -> i64} : () -> ()\n}) : () -> ()\n"
    !prev;
  Buffer.contents b

let count_ops md =
  let n = ref 0 in
  Ircore.walk (fun _ -> incr n) md;
  !n

(* The words one verify of [flat_block n] allocates, and the words
   canonicalize and cse then allocate on it. *)
let counted_words n =
  let md = parse (flat_block n) in
  let ops_before = count_ops md in
  let verified, verify_words =
    Testutil.alloc_words (fun () -> Verifier.verify ctx md)
  in
  (match verified with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "flat block of %d ops does not verify" n);
  let ran, pipeline_words =
    Testutil.alloc_words (fun () ->
        Testutil.run_pipeline [ "canonicalize"; "cse" ] md)
  in
  (match ran with Ok () -> () | Error e -> Alcotest.fail e);
  expect_ok md;
  (* the ops that add 0 fold away and the copies go *)
  let foldable_or_copy =
    List.length
      (List.filter
         (fun i -> i mod 40 = 0 || i mod 60 = 0)
         (List.init (n - 3) succ))
  in
  let removed = ops_before - count_ops md in
  if removed < foldable_or_copy then
    Alcotest.failf "canonicalize,cse removed %d of %d ops, expected %d" removed
      n foldable_or_copy;
  (verify_words, pipeline_words)

(* Words per op of one verify of [flat_block n] when the verifier built a
   list of each block's ops and a path step per op (105.0 at 5k and 10k
   ops). *)
let list_walk_words_per_op = 105.0

let test_verifier_words () =
  List.iter
    (fun n ->
      let words, _ = counted_words n in
      let per_op = words /. float_of_int n in
      if per_op > list_walk_words_per_op /. 5. then
        Alcotest.failf "verify of %d ops: %.1f words per op, bound %.1f" n
          per_op (list_walk_words_per_op /. 5.))
    [ 5_000; 10_000 ]

let test_linear_per_doubling () =
  let v5, p5 = counted_words 5_000 and v10, p10 = counted_words 10_000 in
  List.iter
    (fun (what, small, large) ->
      if large > 2.2 *. small then
        Alcotest.failf "%s: 5k -> 10k ops allocates %.0f -> %.0f words (%.2fx)"
          what small large (large /. small))
    [ ("verify", v5, v10); ("canonicalize,cse", p5, p10) ]

let () =
  Alcotest.run "verifier"
    [
      ( "structure",
        [
          Alcotest.test_case "valid module" `Quick test_valid_module;
          Alcotest.test_case "missing terminator" `Quick test_missing_terminator;
          Alcotest.test_case "terminator not last" `Quick
            test_terminator_in_middle;
          Alcotest.test_case "wrong operand count" `Quick
            test_wrong_operand_count;
          Alcotest.test_case "same-type trait" `Quick test_same_type_trait;
          Alcotest.test_case "missing attribute" `Quick test_missing_attr;
          Alcotest.test_case "unregistered ops" `Quick test_unregistered_rejected;
          Alcotest.test_case "successors need terminators" `Quick
            test_successor_on_non_terminator;
          Alcotest.test_case "function signature" `Quick
            test_function_signature;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "use before def" `Quick test_dominance_straightline;
          Alcotest.test_case "sibling branch use" `Quick test_dominance_cfg;
          Alcotest.test_case "diamond ok" `Quick test_dominance_cfg_ok;
          Alcotest.test_case "nested region uses outer" `Quick
            test_nested_region_uses_outer;
          Alcotest.test_case "moved def invalidates cached order" `Quick
            test_move_invalidates_order;
          Alcotest.test_case "renumbering counted once per block" `Quick
            test_renumber_counted_once;
        ] );
      ( "use-def",
        [
          Alcotest.test_case "unlinked use node" `Quick test_unlinked_use_node;
        ] );
      ( "symbols",
        [ Alcotest.test_case "redefinition" `Quick test_symbol_redefinition ] );
      ( "alloc",
        [
          Alcotest.test_case "verifier words per op" `Quick test_verifier_words;
          Alcotest.test_case "linear per doubling" `Quick
            test_linear_per_doubling;
        ] );
    ]
