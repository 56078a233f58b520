(* Print → parse → print fixpoint over every example script and one
   representative module per dialect — the fuzzer's roundtrip oracle,
   pinned on deterministic inputs so a printer/parser drift is caught even
   when no fuzz campaign runs. *)

open Ir
open Dialects
open Testutil

let roundtrip_ok what m =
  let s1 = Printer.op_to_string m in
  match Parser.parse_module s1 with
  | Error e -> Alcotest.failf "%s: reparse failed: %s\nprinted:\n%s" what e s1
  | Ok m2 ->
    let s2 = Printer.op_to_string m2 in
    check Alcotest.string (what ^ ": print->parse->print fixpoint") s1 s2

(* ---------------- example scripts ---------------- *)

let test_example_scripts () =
  let dir = "../examples/scripts" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mlir")
    |> List.sort compare
  in
  check cb "scripts found" true (files <> []);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      roundtrip_ok f (parse_file path))
    files

(* ---------------- representative modules per dialect ---------------- *)

let linalg_module () =
  let md = Builtin.create_module () in
  let mt a b = Typ.memref (Typ.static_dims [ a; b ]) Typ.f32 in
  let f, entry =
    Func.create ~name:"mm" ~arg_types:[ mt 4 2; mt 2 4; mt 4 4 ]
      ~result_types:[] ()
  in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  ignore
    (Linalg.matmul rw
       ~a:(Ircore.block_arg entry 0)
       ~b:(Ircore.block_arg entry 1)
       ~c:(Ircore.block_arg entry 2));
  Func.return rw ();
  md

(* math, index and vector ops in one function *)
let misc_module () =
  let md = Builtin.create_module () in
  let f, entry = Func.create ~name:"misc" ~arg_types:[] ~result_types:[ Typ.f64 ] () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  let rw = Dutil.rw_at_end entry in
  let x = Dutil.const_float rw ~typ:Typ.f64 2.0 in
  let s =
    Rewriter.build1 rw ~operands:[| x |] ~result_types:[| Typ.f64 |] "math.sqrt"
  in
  let _i = Index_d.constant rw 3 in
  let v = Vector.splat rw s ~vector_typ:(Typ.Vector ([ 4 ], Typ.f64)) in
  let r = Vector.reduction rw ~kind:"add" v in
  Func.return rw ~operands:[ r ] ();
  md

let tensor_module () =
  let md = Builtin.create_module () in
  let rng = Random.State.make [| 1 |] in
  Ircore.insert_at_end (Builtin.body_block md)
    (Fuzz.Gen.gen_tensor_function rng "t");
  md

let test_dialect_representatives () =
  (* builtin + func + arith + scf + memref *)
  roundtrip_ok "matmul(arith,scf,func,memref)"
    (Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 ());
  (* cf: the matmul loops converted to a CFG *)
  let cfm = Workloads.Matmul.build_module ~m:4 ~n:4 ~k:2 () in
  run_pass "convert-scf-to-cf" cfm;
  roundtrip_ok "cf" cfm;
  (* memref.subview + affine (after metadata expansion) *)
  let sub = Workloads.Subview_kernel.build Workloads.Subview_kernel.Dynamic_offset in
  roundtrip_ok "memref-subview" sub;
  run_pass "expand-strided-metadata" sub;
  roundtrip_ok "affine" sub;
  (* llvm: the full Case-Study-2 lowering output *)
  let ll = Workloads.Subview_kernel.build Workloads.Subview_kernel.Static_offset in
  (match run_pipeline Workloads.Subview_kernel.naive_pipeline ll with
  | Ok () -> ()
  | Error e -> Alcotest.failf "CS2 lowering failed: %s" e);
  roundtrip_ok "llvm" ll;
  roundtrip_ok "linalg" (linalg_module ());
  roundtrip_ok "math/index/vector" (misc_module ());
  roundtrip_ok "tensor" (tensor_module ());
  (* tosa + shlo: the Table-1 model generators *)
  roundtrip_ok "tosa"
    (Workloads.Models.build (List.hd Workloads.Models.paper_models));
  roundtrip_ok "shlo" (Workloads.Llm.build ~layers:1 ())

(* ---------------- the printer ---------------- *)

let roundtrip_locs_ok what m =
  let s1 = Printer.op_to_string_locs m in
  match Parser.parse_module s1 with
  | Error e -> Alcotest.failf "%s: reparse failed: %s\nprinted:\n%s" what e s1
  | Ok m2 ->
    check Alcotest.string (what ^ ": located fixpoint") s1
      (Printer.op_to_string_locs m2)

(* Format break hints once split long maps over lines: the writer must keep
   every [affine_map<...>] on one line, in attributes and in types. *)
let test_affine_map_one_line () =
  let m = parse_file "../examples/scripts/payload_affine_maps.mlir" in
  let text = Printer.op_to_string m in
  let marker = "affine_map<" in
  let rec scan from found =
    match Str.search_forward (Str.regexp_string marker) text from with
    | exception Not_found -> found
    | i ->
      (* the map's own '>' is the first one that is not part of "->" *)
      let rec close j =
        if text.[j] = '>' && text.[j - 1] <> '-' then j else close (j + 1)
      in
      let close = close i in
      let body = String.sub text i (close - i) in
      check cb ("one line: " ^ body) false (String.contains body '\n');
      scan (close + 1) (found + 1)
  in
  check cb "maps printed" true (scan 0 0 >= 4);
  let memref =
    match Symbol.collect_ops ~op_name:"memref.alloc" m with
    | [ alloc ] -> Typ.to_string (Ircore.result alloc).Ircore.v_typ
    | _ -> Alcotest.fail "expected one memref.alloc"
  in
  check Alcotest.string "memref type text"
    "memref<4x8xf32, affine_map<(d0, d1, d2) -> (d0, d1, d2)>>" memref;
  check cb "type text verbatim in the module" true (contains text memref);
  roundtrip_ok "affine maps" m

(* One module touching every printer branch: multi-result references,
   successors, multi-block regions with arguments, unit attributes,
   escaped strings, hex and dense floats (including -0.0), a function
   typed result, strided and affine layouts and locations. *)
let coverage_text =
  {|"builtin.module"() ({
  "func.func"() ({
  ^bb0(%a: i32, %m: memref<4x4xf32, strided<[?, 1], offset: ?>>, %n: memref<4x8xf32, affine_map<(d0, d1)[s0] -> (d0 * 8 + d1 + s0)>>):
    %p:2 = "test.pair"(%a) {flag, label = "tab\there \"q\" back\\slash"} : (i32) -> (i32, f32)
    %h = "arith.constant"() {value = 0x1.8p+1 : f64} : () -> f64
    %d = "arith.constant"() {value = dense<[1.0, -0.0]> : tensor<2xf32>} : () -> tensor<2xf32>
    %f = "test.thunk"() {fn = () -> (() -> i32)} : () -> (() -> (() -> i32))
    "test.sink"(%p#1, %h, %d, %f) : (f32, f64, tensor<2xf32>, () -> (() -> i32)) -> ()
    %c = "arith.cmpi"(%p#0, %a) {predicate = "eq"} : (i32, i32) -> i1 loc("cover.mlir":5:7)
    "cf.cond_br"(%c, %p#0, %a)[^bb1, ^bb2] : (i1, i32, i32) -> () loc("branch" at loc("cover.mlir":6:5))
  ^bb1(%x: i32):
    "cf.br"(%x)[^bb2] : (i32) -> () loc("hint")
  ^bb2(%y: i32):
    "func.return"() : () -> () loc(fused[loc("a.mlir":1:2), loc(unknown)])
  }) {sym_name = "cover", function_type = (i32, memref<4x4xf32, strided<[?, 1], offset: ?>>, memref<4x8xf32, affine_map<(d0, d1)[s0] -> (d0 * 8 + d1 + s0)>>) -> ()} : () -> ()
}) : () -> ()
|}

let test_coverage_fixed_point () =
  let m =
    match Parser.parse_module coverage_text with
    | Ok m -> m
    | Error e -> Alcotest.failf "coverage text does not parse: %s" e
  in
  roundtrip_ok "coverage" m;
  roundtrip_locs_ok "coverage" m;
  let text = Printer.op_to_string m in
  let located = Printer.op_to_string_locs m in
  List.iter
    (fun piece ->
      check cb ("printed: " ^ piece) true (contains text piece))
    [
      "%3:2 = \"test.pair\"(%0)";
      "\"test.sink\"(%3#1, %4, %5, %6) : (f32, f64, tensor<2xf32>, () -> (() -> i32))";
      "(%7, %3, %0)[^bb2, ^bb3]";
      "^bb2(%8: i32):\n";
      "\"cf.br\"(%8)[^bb3]";
      "{flag, label = \"tab\\there \\\"q\\\" back\\\\slash\"}";
      "0x1.8p+1 : f64";
      "dense<[1.0, -0.0]> : tensor<2xf32>";
      "\"test.thunk\"() {fn = () -> (() -> i32)} : () -> (() -> (() -> i32))";
      "strided<[?, 1], offset: ?>";
      "affine_map<(d0, d1)[s0] -> (d0 * 8 + d1 + s0)>";
    ];
  check cb "no locations without locs" false (contains text "loc(");
  List.iter
    (fun piece ->
      check cb ("located: " ^ piece) true (contains located piece))
    [
      "loc(\"cover.mlir\":5:7)";
      "loc(\"branch\" at loc(\"cover.mlir\":6:5))";
      "loc(\"hint\")";
      "loc(fused[loc(\"a.mlir\":1:2), loc(unknown)])";
    ]

let lowered_model spec =
  let m = Workloads.Models.build spec in
  match
    run_pipeline
      (String.split_on_char ',' Workloads.Models.tosa_pipeline_str)
      m
  with
  | Ok () -> m
  | Error e -> Alcotest.failf "%s: lowering failed: %s" spec.sp_name e

let test_models_fixed_point () =
  List.iter
    (fun (spec : Workloads.Models.spec) ->
      roundtrip_ok (spec.sp_name ^ " input") (Workloads.Models.build spec);
      roundtrip_ok (spec.sp_name ^ " lowered") (lowered_model spec))
    Workloads.Models.paper_models

(* All scratch state belongs to one print: four domains printing the same
   modules at once must each produce the sequential bytes. Lowered GPT-2
   holds few distinct types; the second module renders a new type per op,
   so shared scratch space would be overwritten mid-print. *)
let test_domain_safe () =
  let gpt2 =
    List.find
      (fun (s : Workloads.Models.spec) -> s.sp_name = "gpt2")
      Workloads.Models.paper_models
  in
  let many_types =
    let ops =
      List.init 2000 (fun i ->
          Fmt.str "  %%%d = \"test.t\"() : () -> tensor<%dx%dxf32>\n" i i
            (i mod 7))
    in
    match
      Parser.parse_module
        ("\"builtin.module\"() ({\n" ^ String.concat "" ops ^ "}) : () -> ()")
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "many-types module does not parse: %s" e
  in
  let modules = [ lowered_model gpt2; many_types ] in
  let expected = List.map Printer.op_to_string modules in
  let printers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 8 (fun _ -> List.map Printer.op_to_string modules)))
  in
  List.iteri
    (fun d dom ->
      List.iter
        (fun texts ->
          List.iter2
            (fun s e ->
              check cb (Fmt.str "domain %d prints the sequential bytes" d) true
                (String.equal s e))
            texts expected)
        (Domain.join dom))
    printers

(* A print borrows its domain's output buffer. Two systhreads printing on
   one domain at once must each produce the sequential bytes, whichever
   of them finds the buffer lent; so must a print made while the buffer
   is lent to a caller of [with_buffer], which keeps what it wrote. *)
let test_thread_safe () =
  let gpt2 =
    List.find
      (fun (s : Workloads.Models.spec) -> s.sp_name = "gpt2")
      Workloads.Models.paper_models
  in
  let md = lowered_model gpt2 in
  let expected = Printer.op_to_string md in
  let printed = Array.make 2 [] in
  let printer i =
    Thread.create
      (fun () -> printed.(i) <- List.init 30 (fun _ -> Printer.op_to_string md))
      ()
  in
  List.iter Thread.join [ printer 0; printer 1 ];
  Array.iteri
    (fun i texts ->
      check ci (Fmt.str "thread %d prints" i) 30 (List.length texts);
      List.iter
        (fun s ->
          check cb (Fmt.str "thread %d prints the sequential bytes" i) true
            (String.equal s expected))
        texts)
    printed;
  let inner, outer =
    Printer.with_buffer (fun buf ->
        Buffer.add_string buf "held";
        let inner = Printer.op_to_string md in
        (inner, Buffer.contents buf))
  in
  check cb "a print while the buffer is lent" true (String.equal inner expected);
  check Alcotest.string "the lent buffer keeps its text" "held" outer

(* The parser's type memo and name tables belong to one parse: four
   domains parsing lowered GPT-2 at once must each read back the text
   they were given. *)
let test_parse_domain_safe () =
  let gpt2 =
    List.find
      (fun (s : Workloads.Models.spec) -> s.sp_name = "gpt2")
      Workloads.Models.paper_models
  in
  let text = Printer.op_to_string (lowered_model gpt2) in
  let parsers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 4 (fun _ ->
                match Parser.parse_module text with
                | Ok m -> Printer.op_to_string m
                | Error e -> "parse error: " ^ e)))
  in
  List.iteri
    (fun d dom ->
      List.iter
        (fun s ->
          check cb (Fmt.str "domain %d reads the text back" d) true
            (String.equal s text))
        (Domain.join dom))
    parsers

let () =
  Alcotest.run "roundtrip"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "example-scripts" `Quick test_example_scripts;
          Alcotest.test_case "dialect-representatives" `Quick
            test_dialect_representatives;
        ] );
      ( "printer",
        [
          Alcotest.test_case "affine-map-one-line" `Quick
            test_affine_map_one_line;
          Alcotest.test_case "coverage-fixed-point" `Quick
            test_coverage_fixed_point;
          Alcotest.test_case "models-fixed-point" `Quick
            test_models_fixed_point;
          Alcotest.test_case "domain-safe" `Quick test_domain_safe;
          Alcotest.test_case "thread-safe" `Quick test_thread_safe;
          Alcotest.test_case "parse-domain-safe" `Quick test_parse_domain_safe;
        ] );
    ]
