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
            Testutil.mkop ~result_types:[| t |] ~attrs
              (Fmt.str "test.def%d" !fresh)
          in
          Ircore.insert_at_end block o;
          defs := Ircore.result o :: !defs
        | `Use i ->
          let ds = !defs in
          if ds <> [] then begin
            let v = List.nth ds (i mod List.length ds) in
            Ircore.insert_at_end block
              (Testutil.mkop ~operands:[| v |] (Fmt.str "test.use%d" !fresh))
          end
        | `Region body ->
          let inner = Ircore.create_block () in
          let saved = !defs in
          build_into inner body;
          defs := saved;
          Ircore.insert_at_end block
            (Testutil.mkop
               ~regions:[ Ircore.region_with_block inner ]
               (Fmt.str "test.region%d" !fresh)))
      spec
  in
  build_into block spec;
  Testutil.mkop ~regions:[ Ircore.region_with_block block ] "builtin.module"

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

(* ---------------- forward references ---------------- *)

(* %x is used as an i32 in ^bb1 before ^bb2 defines it as an i64: the
   definition must not rewrite the signature of the use *)
let test_forward_ref_type_mismatch () =
  let e =
    parse_err
      {|"func.func"() ({
^bb0:
  "cf.br"()[^bb2] : () -> ()
^bb1:
  %y = "arith.index_cast"(%x) : (i32) -> index
  "func.return"() : () -> ()
^bb2:
  %x = "arith.constant"() {value = 1 : i64} : () -> i64
  "cf.br"()[^bb1] : () -> ()
}) {sym_name = "f", function_type = () -> ()} : () -> ()|}
  in
  Alcotest.(check bool) ("names the value: " ^ e) true (contains e "%x");
  Alcotest.(check bool) ("names both types: " ^ e) true
    (contains e "i64" && contains e "i32")

let test_forward_ref_type_match () =
  roundtrip_ok
    {|"func.func"() ({
^bb0:
  "cf.br"()[^bb2] : () -> ()
^bb1:
  %y = "arith.index_cast"(%x) : (i64) -> index
  "func.return"() : () -> ()
^bb2:
  %x = "arith.constant"() {value = 1 : i64} : () -> i64
  "cf.br"()[^bb1] : () -> ()
}) {sym_name = "f", function_type = () -> ()} : () -> ()|}

(* the placeholder type is recognised by identity, so a value whose type
   is spelled [!__pending__] is checked like any other *)
let test_pending_spelling_is_a_type () =
  let e =
    parse_err
      {|%a = "test.def"() : () -> !__pending__
"test.use"(%a) : (i32) -> ()|}
  in
  Alcotest.(check bool) ("operand type checked: " ^ e) true
    (contains e "!__pending__" && contains e "i32")

(* ---------------- shared types ---------------- *)

let flat_block n =
  let b = Buffer.create (n * 64) in
  Buffer.add_string b
    "\"func.func\"() ({\n^bb0(%a: i64, %b: i64):\n";
  let prev = ref "%a" in
  for i = 1 to n do
    Printf.bprintf b "  %%v%d = \"arith.addi\"(%s, %%b) : (i64, i64) -> i64\n" i
      !prev;
    prev := Printf.sprintf "%%v%d" i
  done;
  Printf.bprintf b
    "  \"func.return\"(%s) : (i64) -> ()\n}) {sym_name = \"flat\", \
     function_type = (i64, i64) -> i64} : () -> ()"
    !prev;
  Buffer.contents b

(* a parse shares each repeated type: every addi result holds the very
   value the first one does *)
let test_flat_block_types_shared () =
  match Parser.parse_module (flat_block 500) with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let types = ref [] in
    Ircore.walk
      (fun op ->
        if op.Ircore.op_name = "arith.addi" then
          types := Ircore.value_typ (Ircore.result op) :: !types)
      m;
    Alcotest.(check int) "addi count" 500 (List.length !types);
    let first = List.hd !types in
    Alcotest.(check bool) "one shared result type" true
      (List.for_all (fun t -> t == first) !types)

(* ops of one name share one name string, however many the parse makes *)
let test_op_names_shared () =
  match Parser.parse_module (flat_block 100) with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let names = ref [] in
    Ircore.walk
      (fun op ->
        if String.equal op.Ircore.op_name "arith.addi" then
          names := op.Ircore.op_name :: !names)
      m;
    Alcotest.(check int) "addi count" 100 (List.length !names);
    let first = List.hd !names in
    Alcotest.(check bool) "one shared name" true
      (List.for_all (fun n -> n == first) !names)

(* near-identical spellings must not be taken for one another: a "->"
   inside an affine-map layout, opaque bodies, unranked tensors, a
   function type returning one, a space before an opaque body, and one
   type spelled three ways *)
let spellings =
  {|"builtin.module"() ({
  %0 = "test.a"() : () -> memref<4xf32, affine_map<(d0) -> (d0 + 1)>>
  %1 = "test.a"() : () -> memref<4xf32, affine_map<(d0) -> (d0 + 2)>>
  %2 = "test.a"() : () -> memref<4xf32>
  %3 = "test.b"() : () -> !llvm.struct<(i32, f32)>
  %4 = "test.b"() : () -> !llvm.struct<(i32, f64)>
  %5 = "test.b"() : () -> !llvm.struct
  %6 = "test.b"() : () -> !llvm.struct <(i32)>
  %7 = "test.b"() : () -> !llvm.ptr
  %8 = "test.b"() : () -> !llvm.ptr<1>
  %9 = "test.c"() : () -> tensor<*xf32>
  %10 = "test.c"() : () -> tensor<4xf32>
  %11 = "test.c"() : () -> tensor<*xf64>
  %12 = "test.c"() : () -> tensor <4xf32 >
  %13 = "test.d"() {fn = (i32) -> (() -> i32), g = (i32) -> i32} : () -> ((i32) -> (() -> i32))
  %14 = "test.d"() : () -> ((i32) -> i32)
  %15 = "test.e"() : () -> i6
  %16 = "test.e"() : () -> i64
  %17 = "test.e"() : () -> bf16
  %18 = "test.e"() : () -> f16
  "test.f"(%16, %16) : (i64,i64) -> ()
  "test.f"(%16, %16) : ( i64 , i64 ) -> ()
  "test.f"(%16, %16) : (i64, i64) -> ()
}) : () -> ()|}

let spellings_printed =
  {|"builtin.module"() ({
  %0 = "test.a"() : () -> memref<4xf32, affine_map<(d0) -> (d0 + 1)>>
  %1 = "test.a"() : () -> memref<4xf32, affine_map<(d0) -> (d0 + 2)>>
  %2 = "test.a"() : () -> memref<4xf32>
  %3 = "test.b"() : () -> !llvm.struct<(i32, f32)>
  %4 = "test.b"() : () -> !llvm.struct<(i32, f64)>
  %5 = "test.b"() : () -> !llvm.struct
  %6 = "test.b"() : () -> !llvm.struct<(i32)>
  %7 = "test.b"() : () -> !llvm.ptr
  %8 = "test.b"() : () -> !llvm.ptr<1>
  %9 = "test.c"() : () -> tensor<*xf32>
  %10 = "test.c"() : () -> tensor<4xf32>
  %11 = "test.c"() : () -> tensor<*xf64>
  %12 = "test.c"() : () -> tensor<4xf32>
  %13 = "test.d"() {fn = (i32) -> (() -> i32), g = (i32) -> i32} : () -> ((i32) -> (() -> i32))
  %14 = "test.d"() : () -> ((i32) -> i32)
  %15 = "test.e"() : () -> i6
  %16 = "test.e"() : () -> i64
  %17 = "test.e"() : () -> bf16
  %18 = "test.e"() : () -> f16
  "test.f"(%16, %16) : (i64, i64) -> ()
  "test.f"(%16, %16) : (i64, i64) -> ()
  "test.f"(%16, %16) : (i64, i64) -> ()
}) : () -> ()|}

let test_type_spellings () =
  match Parser.parse_module spellings with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check string)
      "printed" spellings_printed (Printer.op_to_string m);
    roundtrip_ok spellings

(* text that misleads the memo's extent scans: a "->" inside an opaque
   body nested in a tensor, braces inside strings of a dictionary. Each
   spelling still parses to the same value as its twin, and the module
   reads back its own print. *)
let test_misleading_spellings () =
  let src =
    {|"builtin.module"() ({
  %0 = "test.g"() : () -> tensor<4x!foo<->>
  %1 = "test.g"() : () -> tensor<4x!foo<->>
  %2 = "test.g"() {a = "}{", b = {c = "\"}"}} : () -> !foo<(a)>
  %3 = "test.g"() {a = "}{", b = {c = "\"}"}} : () -> !foo<(a)>
}) : () -> ()|}
  in
  match Parser.parse_module src with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let ops = ref [] in
    Ircore.walk
      (fun op -> if op.Ircore.op_name = "test.g" then ops := op :: !ops)
      m;
    (match List.rev !ops with
    | [ a; b; c; d ] ->
      let typ op = Ircore.value_typ (Ircore.result op) in
      Alcotest.(check bool) "tensor twins" true (Typ.equal (typ a) (typ b));
      Alcotest.(check bool) "opaque twins" true (Typ.equal (typ c) (typ d));
      Alcotest.(check bool) "dictionary twins" true
        (c.Ircore.attrs = d.Ircore.attrs
        && Attr.find "a" c.Ircore.attrs = Some (Attr.String "}{"))
    | _ -> Alcotest.fail "expected 4 test.g ops");
    roundtrip_ok src

(* ---------------- wide ops ---------------- *)

(* one op with [n] operands, all results of one group: the operand type
   check is linear in the operand count *)
let wide_op n =
  let ts = String.concat ", " (List.init n (fun _ -> "i32")) in
  let refs = String.concat ", " (List.init n (fun i -> Fmt.str "%%v#%d" i)) in
  Fmt.str "%%v:%d = \"test.many\"() : () -> (%s)\n\"test.use\"(%s) : (%s) -> ()"
    n ts refs ts

let test_wide_ops () =
  List.iter
    (fun n ->
      match Parser.parse_module (wide_op n) with
      | Error e -> Alcotest.failf "%d operands: %s" n e
      | Ok m ->
        let s1 = Printer.op_to_string m in
        (match Parser.parse_module s1 with
        | Error e -> Alcotest.failf "%d operands, reparse: %s" n e
        | Ok m2 ->
          Alcotest.(check bool)
            (Fmt.str "%d operands round-trip" n)
            true
            (String.equal s1 (Printer.op_to_string m2))))
    [ 20_000; 40_000 ]

(* one block with [n] i32 arguments *)
let many_block_args n =
  let b = Buffer.create (n * 12) in
  Buffer.add_string b "\"test.region\"() ({\n^bb0(";
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_string b ", ";
    Printf.bprintf b "%%a%d: i32" i
  done;
  Buffer.add_string b "):\n  \"test.end\"() : () -> ()\n}) : () -> ()";
  Buffer.contents b

(* a block's arguments parse in linear time: the words one parse allocates
   (counted, not timed) at most 2.5x when the argument count doubles *)
let test_many_block_args () =
  let alloc_words n =
    let src = many_block_args n in
    let m, words =
      match Testutil.alloc_words (fun () -> Parser.parse_module src) with
      | Ok m, words -> (m, words)
      | Error e, _ -> Alcotest.failf "%d block arguments: %s" n e
    in
    let region = ref None in
    Ircore.walk
      (fun op ->
        if op.Ircore.op_name = "test.region" then
          region := Some (List.hd op.Ircore.regions))
      m;
    let block =
      match !region with
      | Some r -> Option.get (Ircore.region_first_block r)
      | None -> Alcotest.fail "no test.region op"
    in
    let args = block.Ircore.b_args in
    Alcotest.(check int) (Fmt.str "%d arguments" n) n (Array.length args);
    Array.iteri
      (fun i (v : Ircore.value) ->
        (match v.Ircore.v_def with
        | Ircore.Block_arg (b, j) when b == block && i = j -> ()
        | _ -> Alcotest.failf "argument %d has the wrong index" i);
        if i > 0 && v.Ircore.v_id <= args.(i - 1).Ircore.v_id then
          Alcotest.failf "argument %d has an id before its predecessor's" i)
      args;
    words
  in
  let w10 = alloc_words 10_000 and w20 = alloc_words 20_000 in
  if w20 > 2.5 *. w10 then
    Alcotest.failf "10k -> 20k block arguments: %.0f -> %.0f words (%.2fx)" w10
      w20 (w20 /. w10)

(* The words a parse of a flat block allocates and the words the module
   it returns keeps, per op, counted (not timed). The bounds sit just
   above the measured 66.4 and 45.0: a parse builds the IR and little
   else (operands gathered in reused slots, the result group bound
   without a copy, op names shared, table keys that point into the
   source), and an op keeps one [Some] cell for all its links. *)
let max_parse_words_per_op = 68.
let max_live_words_per_op = 45.5

let test_counted_allocation () =
  List.iter
    (fun n ->
      let src = flat_block n in
      let m, words =
        match Testutil.alloc_words (fun () -> Parser.parse_module src) with
        | Ok m, words -> (m, words)
        | Error e, _ -> Alcotest.failf "%d ops: %s" n e
      in
      let ops = ref 0 in
      Ircore.walk (fun _ -> incr ops) m;
      let per_op w = w /. float_of_int !ops in
      let parse = per_op words
      and live = per_op (float_of_int (Obj.reachable_words (Obj.repr m))) in
      if parse > max_parse_words_per_op then
        Alcotest.failf "%d ops: a parse allocates %.2f words per op (> %.1f)" n
          parse max_parse_words_per_op;
      if live > max_live_words_per_op then
        Alcotest.failf "%d ops: the module keeps %.2f words per op (> %.1f)" n
          live max_live_words_per_op)
    [ 5_000; 10_000 ]

(* Lexing decimal integer literals allocates nothing: the number
   scanners are top-level functions of the source and its length, so a
   token builds no closure. *)
let test_number_tokens_alloc () =
  let _, baseline = Testutil.alloc_words (fun () -> ()) in
  let n = 10_000 in
  let buf = Buffer.create (n * 8) in
  for i = 1 to n do
    (* positive and signed literals, 1 to 8 digits *)
    let v = if i land 1 = 0 then i * 7919 else -i in
    Buffer.add_string buf (string_of_int v);
    Buffer.add_char buf ' '
  done;
  let lx = Lexer.create (Buffer.contents buf) in
  let tokens = ref 0 in
  let (), words =
    Testutil.alloc_words (fun () ->
        while Lexer.peek lx != Lexer.EOF do
          if Lexer.peek lx != Lexer.INT then Alcotest.fail "expected INT";
          incr tokens;
          Lexer.advance lx
        done)
  in
  Alcotest.(check int) "every literal is one token" n !tokens;
  let per_token = (words -. baseline) /. float_of_int n in
  if per_token <> 0. then
    Alcotest.failf "lexing %d integers: %.4f words per token" n per_token

(* The words a fingerprint of a flat block allocates per op, counted: the
   traversal is top-level loops, so what remains is the value-numbering
   table's buckets and bucket arrays. The bound sits 0.5 above the
   measured 7.3. *)
let max_fingerprint_words_per_op = 7.8

let test_fingerprint_alloc () =
  let n = 5_000 in
  match Parser.parse_module (flat_block n) with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let ops = ref 0 in
    Ircore.walk (fun _ -> incr ops) m;
    let _, words = Testutil.alloc_words (fun () -> Fingerprint.op m) in
    let per_op = words /. float_of_int !ops in
    if per_op > max_fingerprint_words_per_op then
      Alcotest.failf "%d ops: a fingerprint allocates %.2f words per op (> %.1f)"
        n per_op max_fingerprint_words_per_op

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
          Alcotest.test_case "forward ref type match" `Quick
            test_forward_ref_type_match;
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
          Alcotest.test_case "forward ref type mismatch" `Quick
            test_forward_ref_type_mismatch;
          Alcotest.test_case "pending spelling is a type" `Quick
            test_pending_spelling_is_a_type;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "flat block types shared" `Quick
            test_flat_block_types_shared;
          Alcotest.test_case "type spellings" `Quick test_type_spellings;
          Alcotest.test_case "misleading spellings" `Quick
            test_misleading_spellings;
          Alcotest.test_case "wide ops" `Quick test_wide_ops;
          Alcotest.test_case "many block arguments" `Quick test_many_block_args;
          Alcotest.test_case "op names shared" `Quick test_op_names_shared;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "flat block parse and live IR" `Quick
            test_counted_allocation;
          Alcotest.test_case "number tokens allocate 0 words" `Quick
            test_number_tokens_alloc;
          Alcotest.test_case "fingerprint words per op" `Quick
            test_fingerprint_alloc;
        ] );
    ]
