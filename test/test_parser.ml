(* Lexer, parser, printer: round-trips and error reporting. *)

open Ir

(* substring containment for error-message checks *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let roundtrip_ok src =
  match Parser.parse_module src with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok m ->
    let s1 = Printer.op_to_string m in
    (match Parser.parse_module s1 with
    | Error e -> Alcotest.failf "reparse error: %s\n%s" e s1
    | Ok m2 ->
      let s2 = Printer.op_to_string m2 in
      Alcotest.(check string) "print-parse-print fixpoint" s1 s2)

let parse_err src =
  match Parser.parse_module src with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e -> e

let test_basic () =
  roundtrip_ok
    {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.addi"(%a, %a) : (i32, i32) -> i32
  "func.return"(%0) : (i32) -> ()
}) {sym_name = "f", function_type = (i32) -> i32} : () -> ()|}

let test_multi_result_groups () =
  roundtrip_ok
    {|%0:3 = "test.three"() : () -> (i32, f32, index)
"test.use"(%0#2, %0#0, %0) : (index, i32, i32) -> ()|}

let test_cfg_forward_refs () =
  roundtrip_ok
    {|"func.func"() ({
^bb0(%c: i1):
  "cf.cond_br"(%c)[^bb2, ^bb1] : (i1) -> ()
^bb1:
  "cf.br"()[^bb2] : () -> ()
^bb2:
  "func.return"() : () -> ()
}) {sym_name = "g", function_type = (i1) -> ()} : () -> ()|}

let test_block_args_across_blocks () =
  roundtrip_ok
    {|"func.func"() ({
^bb0:
  %x = "arith.constant"() {value = 1 : index} : () -> index
  "cf.br"(%x)[^bb1] : (index) -> ()
^bb1(%y: index):
  "func.return"() : () -> ()
}) {sym_name = "h", function_type = () -> ()} : () -> ()|}

let test_types () =
  List.iter
    (fun s ->
      match Parser.parse_type_string s with
      | Ok t -> Alcotest.(check string) s s (Typ.to_string t)
      | Error e -> Alcotest.failf "%s: %s" s e)
    [
      "i1"; "i32"; "i64"; "index"; "f16"; "bf16"; "f32"; "f64";
      "vector<8xf32>"; "vector<4x4xf32>"; "tensor<4x?xf32>"; "tensor<*xf32>";
      "memref<4x4xf32>"; "memref<?x?xf32>";
      "memref<4x4xf32, strided<[4, 1], offset: 2>>";
      "memref<4x4xf32, strided<[?, ?], offset: ?>>";
      "tuple<i32, f32>"; "(i32, f32) -> i1"; "() -> ()";
      "!transform.any_op"; "!llvm.ptr";
    ]

let test_nested_shaped_types () =
  match Parser.parse_type_string "tensor<4xvector<8xf32>>" with
  | Ok (Typ.Ranked_tensor ([ Typ.Static 4 ], Typ.Vector ([ 8 ], Typ.Float Typ.F32)))
    ->
    ()
  | Ok t -> Alcotest.failf "unexpected type %a" Typ.pp t
  | Error e -> Alcotest.fail e

let test_attrs () =
  List.iter
    (fun s ->
      match Parser.parse_attr_string s with
      | Ok a ->
        let s' = Attr.to_string a in
        (* second round must be stable *)
        (match Parser.parse_attr_string s' with
        | Ok a' -> Alcotest.(check string) s s' (Attr.to_string a')
        | Error e -> Alcotest.failf "restringify %s: %s" s' e)
      | Error e -> Alcotest.failf "%s: %s" s e)
    [
      "42 : i64"; "-7 : i32"; "0 : index"; "true"; "false"; "unit";
      "\"hello\\nworld\""; "[1 : i64, 2 : i64]"; "{a = 1 : i64, b = \"x\"}";
      "@sym"; "@a::@b::@c"; "array<i64: 1, 2, 3>"; "array<i64: >";
      "dense<[1, 2, 3]> : tensor<3xi32>"; "i32"; "(i32) -> i1";
    ]

let test_float_attr_roundtrip () =
  List.iter
    (fun f ->
      let s = Attr.to_string (Attr.Float (f, Typ.f32)) in
      match Parser.parse_attr_string s with
      | Ok (Attr.Float (f', _)) ->
        Alcotest.(check (float 0.0)) (Fmt.str "%h" f) f f'
      | Ok a -> Alcotest.failf "parsed %s to %a" s Attr.pp a
      | Error e -> Alcotest.failf "%s: %s" s e)
    [ 0.0; 1.0; -1.5; 3.14159; 1e-30; 42.0; 0.1 ];
  (* dense elements print in the shortest form that reads back exactly, and
     integer-looking elements keep a [.0] so the literal stays Dense_float *)
  let t = Typ.Ranked_tensor ([ Typ.Static 2 ], Typ.f32) in
  List.iter
    (fun xs ->
      let s = Attr.to_string (Attr.Dense_float (xs, t)) in
      match Parser.parse_attr_string s with
      | Ok a ->
        Alcotest.(check bool) s true (Attr.equal a (Attr.Dense_float (xs, t)))
      | Error e -> Alcotest.failf "%s: %s" s e)
    [ [ 1.0000001; 2.0 ]; [ 0.1; 1e-30 ]; [ 0.0; -0.0 ]; [ 1e300; -42.0 ];
      [ 0.5; 0.25 ] ];
  Alcotest.(check string)
    "splats print as before" "dense<[0.5, 0.25]> : tensor<2xf32>"
    (Attr.to_string (Attr.Dense_float ([ 0.5; 0.25 ], t)))

let test_locations_skipped () =
  match
    Parser.parse_op_string
      {|"test.op"() : () -> () loc("file.mlir":1:2)|}
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_undefined_value () =
  let e = parse_err {|"test.use"(%nope) : (i32) -> ()|} in
  Alcotest.(check bool) "mentions undefined" true
    (contains e "undefined value")

and test_undefined_block () =
  let e =
    parse_err
      {|"func.func"() ({
^bb0:
  "cf.br"()[^nowhere] : () -> ()
}) {sym_name="f"} : () -> ()|}
  in
  Alcotest.(check bool) "mentions undefined block" true
    (contains e "undefined block")

and test_redefinition () =
  let e =
    parse_err
      {|%x = "test.a"() : () -> i32
%x = "test.b"() : () -> i32|}
  in
  Alcotest.(check bool) "mentions redefinition" true
    (contains e "redefinition")

let test_arity_mismatch () =
  let e = parse_err {|%x = "test.a"() : () -> (i32, i32)|} in
  ignore e (* any error is fine: declared 1 result name for 2 results *)

let test_operand_type_mismatch () =
  let e =
    parse_err
      {|%x = "test.a"() : () -> i32
"test.use"(%x) : (f32) -> ()|}
  in
  Alcotest.(check bool) "type mismatch reported" true
    (contains e "type")

(* random IR generator for round-trip fuzzing *)
let gen_module =
  let open QCheck.Gen in
  let scalar = oneofl [ Typ.i1; Typ.i32; Typ.i64; Typ.index; Typ.f32; Typ.f64 ] in
  let attr =
    oneof
      [
        map (fun n -> Attr.Int (n, Typ.i64)) small_signed_int;
        map (fun b -> Attr.Bool b) bool;
        map (fun s -> Attr.String s) (string_size ~gen:printable (int_bound 8));
        map (fun xs -> Attr.Int_array xs) (small_list small_nat);
        return Attr.Unit;
      ]
  in
  let rec ops_gen depth n defs =
    if n = 0 then return []
    else
      let op_gen =
        oneof
          ([
             (* nullary def *)
             (let* t = scalar in
              let* a = attr in
              return (`Def (t, [ ("v", a) ])));
           ]
          @ (if defs = [] then []
             else
               [
                 (let* i = int_bound (List.length defs - 1) in
                  return (`Use i));
               ])
          @
          if depth > 0 then
            [
              (let* body_n = int_bound 3 in
               let* body = ops_gen (depth - 1) body_n [] in
               return (`Region body));
            ]
          else [])
      in
      let* first = op_gen in
      let* rest = ops_gen depth (n - 1) (first :: defs) in
      return (first :: rest)
  in
  let* n = int_range 1 10 in
  ops_gen 2 n []

let build_random_module spec =
  let block = Ircore.create_block () in
  let defs = ref [] in
  let fresh = ref 0 in
  let rec build_into block spec =
    List.iter
      (fun item ->
        incr fresh;
        match item with
        | `Def (t, attrs) ->
          let o =
            Ircore.create ~result_types:[ t ] ~attrs (Fmt.str "test.def%d" !fresh)
          in
          Ircore.insert_at_end block o;
          defs := Ircore.result o :: !defs
        | `Use i ->
          let ds = !defs in
          if ds <> [] then begin
            let v = List.nth ds (i mod List.length ds) in
            Ircore.insert_at_end block
              (Ircore.create ~operands:[ v ] (Fmt.str "test.use%d" !fresh))
          end
        | `Region body ->
          let inner = Ircore.create_block () in
          let saved = !defs in
          build_into inner body;
          defs := saved;
          Ircore.insert_at_end block
            (Ircore.create
               ~regions:[ Ircore.region_with_block inner ]
               (Fmt.str "test.region%d" !fresh)))
      spec
  in
  build_into block spec;
  Ircore.create ~regions:[ Ircore.region_with_block block ] "builtin.module"

let prop_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random module print/parse round-trip"
    (QCheck.make gen_module) (fun spec ->
      let m = build_random_module spec in
      let s1 = Printer.op_to_string m in
      match Parser.parse_module s1 with
      | Error _ -> false
      | Ok m2 -> Printer.op_to_string m2 = s1)

(* fuzz: the parser returns Error on garbage instead of raising *)
let prop_parser_total =
  QCheck.Test.make ~count:500 ~name:"parser never raises on arbitrary input"
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 80) QCheck.Gen.printable)
    (fun s ->
      match Parser.parse_module s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* fuzz: near-miss mutations of valid IR also never raise *)
let prop_parser_total_on_mutations =
  QCheck.Test.make ~count:300
    ~name:"parser never raises on mutated valid IR"
    QCheck.(pair small_nat printable_char)
    (fun (pos, c) ->
      let base =
        {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.addi"(%a, %a) : (i32, i32) -> i32
  "func.return"(%0) : (i32) -> ()
}) {sym_name = "f", function_type = (i32) -> i32} : () -> ()|}
      in
      let b = Bytes.of_string base in
      Bytes.set b (pos mod Bytes.length b) c;
      match Parser.parse_module (Bytes.to_string b) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* appended: location round-trips through the parser and loc-enabled printer *)
let test_locations_roundtrip () =
  let src =
    {|"test.a"() : () -> () loc("model.py":12:3)
"test.b"() : () -> () loc("fused.op" at loc("m.py":1:1))
"test.c"() : () -> () loc(fused[loc("a.py":1:1), loc("b.py":2:2)])
"test.d"() : () -> () loc(unknown)|}
  in
  match Parser.parse_module src with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let ops b = Ircore.block_ops b in
    let block =
      match m.Ircore.regions with
      | [ r ] -> Option.get (Ircore.region_first_block r)
      | _ -> Alcotest.fail "no region"
    in
    (match ops block with
    | [ a; b; c; d ] ->
      Alcotest.(check bool) "file loc" true
        (a.Ircore.op_loc = Loc.File { file = "model.py"; line = 12; col = 3 });
      Alcotest.(check bool) "named loc" true
        (match b.Ircore.op_loc with Loc.Name ("fused.op", _) -> true | _ -> false);
      Alcotest.(check bool) "fused loc" true
        (match c.Ircore.op_loc with Loc.Fused [ _; _ ] -> true | _ -> false);
      Alcotest.(check bool) "unknown loc" true (d.Ircore.op_loc = Loc.Unknown)
    | _ -> Alcotest.fail "expected 4 ops");
    (* loc-enabled printing must itself re-parse to the same locations *)
    let s = Printer.op_to_string_locs m in
    (match Parser.parse_module s with
    | Error e -> Alcotest.failf "reparse with locs: %s\n%s" e s
    | Ok m2 ->
      Alcotest.(check string) "locs round-trip" s (Printer.op_to_string_locs m2))

let () =
  Alcotest.run "parser"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "basic function" `Quick test_basic;
          Alcotest.test_case "multi-result groups" `Quick
            test_multi_result_groups;
          Alcotest.test_case "CFG with forward refs" `Quick
            test_cfg_forward_refs;
          Alcotest.test_case "values across blocks" `Quick
            test_block_args_across_blocks;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_parser_total;
          QCheck_alcotest.to_alcotest prop_parser_total_on_mutations;
        ] );
      ( "types+attrs",
        [
          Alcotest.test_case "type syntax" `Quick test_types;
          Alcotest.test_case "nested shaped types" `Quick
            test_nested_shaped_types;
          Alcotest.test_case "attribute syntax" `Quick test_attrs;
          Alcotest.test_case "float attr round-trip" `Quick
            test_float_attr_roundtrip;
          Alcotest.test_case "trailing locations" `Quick test_locations_skipped;
        ] );
      ( "errors",
        [
          Alcotest.test_case "undefined value" `Quick test_undefined_value;
          Alcotest.test_case "undefined block" `Quick test_undefined_block;
          Alcotest.test_case "redefinition" `Quick test_redefinition;
          Alcotest.test_case "result arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "operand type mismatch" `Quick
            test_operand_type_mismatch;
          Alcotest.test_case "location round-trip" `Quick
            test_locations_roundtrip;
        ] );
    ]
