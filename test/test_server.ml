(* otd_server: the trust boundary under attack.

   Four layers, outermost in:
   - framing: truncated prefixes and bodies, oversized and negative
     length prefixes, mid-frame disconnects — each must degrade into a
     structured error response or a clean close, never a daemon death;
   - the protocol schema: strict UTF-8 validation (overlongs, surrogates,
     out-of-range sequences), request parsing, response validation;
   - the engine: budget clamping against policy, the single-flight result
     cache (hit/join/abandon/eviction), a repeated request served from it;
   - the cell: every failure class a job can produce, with reproducers. *)

open Ir

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string
let ci = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* pass/transform registration is a side effect of the full context *)
let () = ignore (Transform.Register.full_context ())

(* the daemon's best-effort writes can land on sockets the test already
   closed; without this the resulting SIGPIPE kills the whole test binary *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let payload_text =
  {|"builtin.module"() ({
  "func.func"() ({
  ^bb0(%a: i64):
    %c1 = "arith.constant"() {value = 1 : i64} : () -> i64
    %s = "arith.addi"(%a, %c1) : (i64, i64) -> i64
    "func.return"(%s) : (i64) -> ()
  }) {sym_name = "t", function_type = (i64) -> i64} : () -> ()
}) : () -> ()|}

(* a fold chain that needs well over one budget charge to canonicalize;
   greedy exhaustion only fails at the next pass boundary's checkpoint,
   hence the two-pass pipeline wherever this payload is used *)
let buster_text =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "\"builtin.module\"() ({\n  \"func.func\"() ({\n  ^bb0:\n";
  Buffer.add_string b
    "    %v0 = \"arith.constant\"() {value = 1 : i64} : () -> i64\n";
  for i = 1 to 4 do
    Buffer.add_string b
      (Fmt.str
         "    %%v%d = \"arith.addi\"(%%v%d, %%v%d) : (i64, i64) -> i64\n" i
         (i - 1) (i - 1))
  done;
  Buffer.add_string b "    \"func.return\"(%v4) : (i64) -> ()\n";
  Buffer.add_string b
    "  }) {sym_name = \"buster\", function_type = () -> i64} : () -> ()\n\
     }) : () -> ()";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* framing: read_frame vs every way a peer can mangle a frame           *)
(* ------------------------------------------------------------------ *)

(* run the reader on a socketpair fed by [feed]; the writer closes its
   end when done, so truncation tests see a real EOF *)
let with_frame feed read =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      feed a;
      Unix.close a;
      read b)

let send_bytes fd s =
  let b = Bytes.of_string s in
  ignore (Unix.write fd b 0 (Bytes.length b))

let test_frame_roundtrip () =
  let body = {|{"kind":"ping"}|} in
  let got =
    with_frame
      (fun fd -> Server.Protocol.write_frame fd body)
      Server.Protocol.read_frame
  in
  match got with
  | Ok s -> check cs "round-trips" body s
  | Error e -> Alcotest.fail (Server.Protocol.frame_error_message e)

let test_frame_clean_eof () =
  match with_frame (fun _ -> ()) Server.Protocol.read_frame with
  | Error Server.Protocol.Closed -> ()
  | _ -> Alcotest.fail "EOF on a frame boundary must be Closed"

let test_frame_truncated_prefix () =
  match
    with_frame (fun fd -> send_bytes fd "\x00\x00") Server.Protocol.read_frame
  with
  | Error (Server.Protocol.Truncated (got, want)) ->
    check ci "got" 2 got;
    check ci "want" 4 want
  | _ -> Alcotest.fail "2-byte prefix then EOF must be Truncated"

let test_frame_truncated_body () =
  (* declares 64 bytes, delivers 5, hangs up: a mid-frame disconnect *)
  match
    with_frame
      (fun fd -> send_bytes fd "\x00\x00\x00\x40hello")
      Server.Protocol.read_frame
  with
  | Error (Server.Protocol.Truncated (got, want)) ->
    check ci "got" 5 got;
    check ci "want" 64 want
  | _ -> Alcotest.fail "partial body then EOF must be Truncated"

let test_frame_oversized () =
  match
    with_frame
      (fun fd -> send_bytes fd "\x7f\xff\xff\xff")
      (Server.Protocol.read_frame ~max_frame:1024)
  with
  | Error (Server.Protocol.Oversized n) -> check ci "length" 0x7fffffff n
  | _ -> Alcotest.fail "over-limit prefix must be Oversized"

let test_frame_negative () =
  match
    with_frame
      (fun fd -> send_bytes fd "\xff\xff\xff\xff")
      Server.Protocol.read_frame
  with
  | Error (Server.Protocol.Negative _) -> ()
  | _ -> Alcotest.fail "sign-bit prefix must be Negative"

(* ------------------------------------------------------------------ *)
(* utf8_valid: the byte-level trust boundary                            *)
(* ------------------------------------------------------------------ *)

let test_utf8 () =
  let valid = Server.Protocol.utf8_valid in
  check cb "ascii" true (valid "hello {\"a\":1}");
  check cb "empty" true (valid "");
  check cb "2-byte (é)" true (valid "caf\xc3\xa9");
  check cb "3-byte (€)" true (valid "\xe2\x82\xac");
  check cb "4-byte (emoji)" true (valid "\xf0\x9f\x98\x80");
  check cb "bare continuation" false (valid "\x80");
  check cb "truncated 2-byte" false (valid "\xc3");
  check cb "truncated 3-byte" false (valid "\xe2\x82");
  check cb "overlong C0" false (valid "\xc0\xaf");
  check cb "overlong C1" false (valid "\xc1\xbf");
  check cb "overlong E0" false (valid "\xe0\x80\xaf");
  check cb "E0 A0 boundary ok" true (valid "\xe0\xa0\x80");
  check cb "surrogate ED A0" false (valid "\xed\xa0\x80");
  check cb "ED 9F boundary ok" true (valid "\xed\x9f\xbf");
  check cb "overlong F0" false (valid "\xf0\x80\x80\x80");
  check cb "F4 90 out of range" false (valid "\xf4\x90\x80\x80");
  check cb "F4 8F boundary ok" true (valid "\xf4\x8f\xbf\xbf");
  check cb "FE invalid" false (valid "\xfe");
  check cb "raw latin-1 in json" false (valid "{\"msg\":\"caf\xe9\"}")

(* ------------------------------------------------------------------ *)
(* request parsing and response validation                              *)
(* ------------------------------------------------------------------ *)

let parse s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.fail ("test json does not parse: " ^ e)

let test_parse_request () =
  let req s = Server.Protocol.parse_request (parse s) in
  (match req {|{"kind":"ping","id":"x"}|} with
  | Ok (Server.Protocol.Ping (Some "x")) -> ()
  | _ -> Alcotest.fail "ping with id");
  (match req {|{"kind":"stats"}|} with
  | Ok Server.Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats");
  (match req {|{"kind":"shutdown"}|} with
  | Ok Server.Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown");
  (match
     req
       {|{"kind":"compile","payload":"m","pipeline":"cse",
          "budget":{"max_rewrites":7},"retry":{"attempts":3},"cache":false}|}
   with
  | Ok (Server.Protocol.Compile c) ->
    check cs "payload" "m" c.Server.Protocol.c_payload;
    check ci "attempts" 3 c.Server.Protocol.c_attempts;
    check cb "cache" false c.Server.Protocol.c_cache;
    check ci "max_rewrites" 7
      (Option.get c.Server.Protocol.c_budget.Server.Protocol.br_max_rewrites)
  | _ -> Alcotest.fail "full compile request");
  let expect_err s frag =
    match req s with
    | Error e ->
      check cb (Fmt.str "%S mentions %S" s frag) true (contains e frag)
    | Ok _ -> Alcotest.fail (Fmt.str "%s must be rejected" s)
  in
  expect_err {|{"id":"x"}|} "kind";
  expect_err {|{"kind":"frobnicate"}|} "unknown request kind";
  expect_err {|{"kind":"compile"}|} "payload";
  expect_err {|{"kind":"compile","payload":7}|} "wrong type";
  expect_err {|{"kind":"compile","payload":"m","budget":3}|} "budget";
  expect_err
    {|{"kind":"compile","payload":"m","budget":{"max_steps":-1}}|}
    ">= 0";
  expect_err
    {|{"kind":"compile","payload":"m","retry":{"attempts":0}}|}
    ">= 1";
  match Server.Protocol.parse_request (Json.String "hi") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object request must be rejected"

let test_validate_response () =
  let ok j =
    match Server.Protocol.validate_response_json j with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("response must validate: " ^ e)
  in
  let bad s =
    match Server.Protocol.validate_response_json (parse s) with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (s ^ " must not validate")
  in
  let fps =
    {
      Server.Protocol.fp_payload = 42;
      fp_script = None;
      fp_pipeline = Some 7;
    }
  in
  ok (Server.Protocol.ok_core ~fps ~output:"m" ());
  ok
    (Server.Protocol.error_core ~cls:Server.Protocol.Budget
       ~reproducer:"_artifacts/x.mlir" "out of fuel");
  ok (Server.Protocol.shed_core ~retry_after_ms:50);
  ok (Server.Protocol.invalid_response ~id:"x" "bad frame");
  ok (Server.Protocol.pong_response ());
  bad {|{"status":"ok"}|};
  bad {|{"status":"error"}|};
  bad {|{"status":"error","error":{"class":"sparkly","message":"m"}}|};
  bad {|{"status":"shed"}|};
  bad {|{"status":"weird"}|};
  bad {|{"attempts":1}|};
  (* validate_json dispatches on kind vs status *)
  (match Server.Protocol.validate_json (parse {|{"kind":"ping"}|}) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Server.Protocol.validate_json (parse {|{"a":1}|}) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "kindless statusless object must be rejected"

(* ------------------------------------------------------------------ *)
(* result cache: single flight, abandon, eviction                       *)
(* ------------------------------------------------------------------ *)

let test_rcache_single_flight () =
  let c = Server.Rcache.create ~capacity:8 () in
  (match Server.Rcache.find_or_lease c 1 with
  | `Lease -> ()
  | `Hit _ -> Alcotest.fail "empty cache cannot hit");
  (* a second requester for the same key must block until fulfill *)
  let d =
    Domain.spawn (fun () ->
        match Server.Rcache.find_or_lease c 1 with
        | `Hit v -> v
        | `Lease -> Json.Null)
  in
  Unix.sleepf 0.05;
  Server.Rcache.fulfill c 1 (Json.String "answer");
  (match Domain.join d with
  | Json.String "answer" -> ()
  | _ -> Alcotest.fail "joined waiter must observe the fulfilled value");
  match Server.Rcache.find_or_lease c 1 with
  | `Hit (Json.String "answer") -> ()
  | _ -> Alcotest.fail "fulfilled entry must hit"

let test_rcache_abandon () =
  let c = Server.Rcache.create ~capacity:8 () in
  (match Server.Rcache.find_or_lease c 5 with
  | `Lease -> ()
  | `Hit _ -> Alcotest.fail "empty cache cannot hit");
  let d =
    Domain.spawn (fun () ->
        match Server.Rcache.find_or_lease c 5 with
        | `Hit _ -> `Hit
        | `Lease -> `Lease)
  in
  Unix.sleepf 0.05;
  (* shed/reject path: the lease holder walks away; the waiter takes over *)
  Server.Rcache.abandon c 5;
  (match Domain.join d with
  | `Lease -> ()
  | `Hit -> Alcotest.fail "abandoned lease must hand the waiter a new lease");
  Server.Rcache.fulfill c 5 (Json.Bool true);
  match Server.Rcache.find_or_lease c 5 with
  | `Hit (Json.Bool true) -> ()
  | _ -> Alcotest.fail "second lease holder's value must land"

let test_rcache_eviction () =
  let c = Server.Rcache.create ~capacity:2 () in
  List.iter
    (fun k ->
      (match Server.Rcache.find_or_lease c k with
      | `Lease -> ()
      | `Hit _ -> Alcotest.fail "fresh key cannot hit");
      Server.Rcache.fulfill c k (Json.Int k))
    [ 1; 2; 3 ];
  check cb "size bounded" true (Server.Rcache.size c <= 2);
  match Server.Rcache.find_or_lease c 3 with
  | `Hit (Json.Int 3) -> ()
  | _ -> Alcotest.fail "the entry that triggered eviction must survive"

(* ------------------------------------------------------------------ *)
(* engine: policy clamping                                              *)
(* ------------------------------------------------------------------ *)

let compile_of_budget ?max_steps ?max_rewrites ?deadline_ms () =
  {
    Server.Protocol.c_id = None;
    c_payload = "m";
    c_script = None;
    c_pipeline = None;
    c_budget =
      {
        Server.Protocol.br_max_steps = max_steps;
        br_max_rewrites = max_rewrites;
        br_deadline_ms = deadline_ms;
      };
    c_attempts = 1;
    c_cache = true;
  }

let test_engine_clamping () =
  let p =
    {
      Server.Engine.default_policy with
      Server.Engine.p_clamp_max_steps = Some 1000;
      p_clamp_max_rewrites = Some 50;
      p_clamp_deadline_ms = None;
    }
  in
  let job c = Server.Engine.effective_job p c in
  (* request under the ceiling passes through *)
  let j = job (compile_of_budget ~max_steps:7 ()) in
  check ci "under ceiling" 7 (Option.get j.Server.Cell.jb_max_steps);
  (* request over the ceiling is clamped *)
  let j = job (compile_of_budget ~max_steps:10_000 ()) in
  check ci "over ceiling" 1000 (Option.get j.Server.Cell.jb_max_steps);
  (* an unlimited request under a ceiling gets the ceiling itself *)
  let j = job (compile_of_budget ()) in
  check ci "unlimited gets ceiling" 50
    (Option.get j.Server.Cell.jb_max_rewrites);
  (* a silent request with no ceiling stays unlimited *)
  check cb "unlimited stays unlimited" true
    (j.Server.Cell.jb_deadline_ms = None)

(* ------------------------------------------------------------------ *)
(* cell: one outcome per failure class                                  *)
(* ------------------------------------------------------------------ *)

let run_cell ?reproducer_dir ?pipeline ?script ?max_rewrites payload =
  let job =
    {
      Server.Cell.jb_payload = payload;
      jb_script = script;
      jb_pipeline = pipeline;
      jb_max_steps = None;
      jb_max_rewrites = max_rewrites;
      jb_deadline_ms = None;
    }
  in
  match Server.Cell.parse job with
  | Ok parsed -> Server.Cell.run ?reproducer_dir job parsed
  | Error e -> Alcotest.fail ("cell test payload must parse: " ^ e)

let expect_class name cls (o : Server.Cell.outcome) =
  match o.Server.Cell.oc_result with
  | Error (c, _) ->
    check cs name
      (Server.Protocol.class_to_string cls)
      (Server.Protocol.class_to_string c)
  | Ok _ -> Alcotest.fail (name ^ ": expected an error outcome")

let test_cell_outcomes () =
  (* success: output is printed *)
  (match run_cell ~pipeline:"canonicalize" payload_text with
  | { Server.Cell.oc_result = Ok out; _ } ->
    check cb "output parses back" true
      (Result.is_ok (Parser.parse_module out))
  | _ -> Alcotest.fail "valid job must succeed");
  expect_class "pipeline" Server.Protocol.Pipeline
    (run_cell ~pipeline:"no-such-pass" payload_text);
  expect_class "budget" Server.Protocol.Budget
    (run_cell ~pipeline:"canonicalize,cse" ~max_rewrites:1 buster_text)

let test_cell_reproducer () =
  let dir = Filename.concat "_artifacts" "test-server-reproducers" in
  let o =
    run_cell ~reproducer_dir:dir ~pipeline:"canonicalize,cse" ~max_rewrites:1
      buster_text
  in
  expect_class "contained" Server.Protocol.Budget o;
  match o.Server.Cell.oc_reproducer with
  | Some path ->
    check cb "reproducer exists" true (Sys.file_exists path);
    let ic = open_in path in
    let line = input_line ic in
    close_in ic;
    check cb "replayable header" true (contains line "reproducer")
  | None -> Alcotest.fail "contained failure must write a reproducer"

(* ------------------------------------------------------------------ *)
(* the daemon under transport faults: alive after every mangled frame   *)
(* ------------------------------------------------------------------ *)

let with_daemon f =
  let policy =
    { Server.Engine.default_policy with Server.Engine.p_backoff_ms = 0 }
  in
  let engine = Server.Engine.create ~policy () in
  let path = Fmt.str "test-server-%d.sock" (Unix.getpid ()) in
  let listener = Server.Transport.serve_unix engine ~path ~conns:2 in
  Fun.protect
    ~finally:(fun () ->
      Server.Transport.stop_listener listener;
      Server.Engine.close engine)
    (fun () -> f path)

let status_of j =
  match Option.bind (Json.member "status" j) Json.to_string_opt with
  | Some s -> s
  | None -> "?"

let assert_alive name path =
  match Server.Transport.rpc_once path (parse {|{"kind":"ping"}|}) with
  | Ok j -> check cs (name ^ ": daemon answers ping") "ok" (status_of j)
  | Error e -> Alcotest.fail (name ^ ": daemon dead after fault: " ^ e)

(* send raw bytes, optionally read one response, close, then prove the
   daemon still serves a fresh connection *)
let poke ~name ~expect_response path bytes =
  let fd = Server.Transport.connect_retry path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Server.Transport.send_raw fd bytes;
      if expect_response then begin
        match Server.Transport.recv_response fd with
        | Ok j -> check cs (name ^ ": structured error") "invalid" (status_of j)
        | Error e -> Alcotest.fail (name ^ ": expected a response, got: " ^ e)
      end
      else
        (* mid-frame disconnect: just hang up; any best-effort error the
           server writes back lands on a closed socket *)
        ());
  assert_alive name path

let frame body =
  let len = String.length body in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string body 0 b 4 len;
  Bytes.to_string b

let test_daemon_survives_mangled_frames () =
  with_daemon (fun path ->
      poke ~name:"truncated-prefix" ~expect_response:false path "\x00\x00";
      poke ~name:"mid-frame-disconnect" ~expect_response:false path
        "\x00\x00\x00\x40hello";
      poke ~name:"oversized-prefix" ~expect_response:true path
        "\x7f\xff\xff\xff";
      poke ~name:"negative-prefix" ~expect_response:true path
        "\xff\xff\xff\xff";
      poke ~name:"invalid-utf8" ~expect_response:true path
        (frame "{\"kind\":\"\xc0\xaf\"}");
      poke ~name:"broken-json" ~expect_response:true path
        (frame "{\"kind\": ");
      poke ~name:"schema-violation" ~expect_response:true path
        (frame {|{"kind":"frobnicate"}|}))

let test_daemon_recovers_on_same_connection () =
  (* in-band faults (valid frames, bad content) must not kill the
     connection: the next request on the same socket is served *)
  with_daemon (fun path ->
      let fd = Server.Transport.connect_retry path in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Server.Transport.send_raw fd (frame "]]] not json [[[");
          (match Server.Transport.recv_response fd with
          | Ok j -> check cs "bad json -> invalid" "invalid" (status_of j)
          | Error e -> Alcotest.fail ("no response to bad json: " ^ e));
          match Server.Transport.rpc fd (parse {|{"kind":"ping"}|}) with
          | Ok j -> check cs "same conn still serves" "ok" (status_of j)
          | Error e -> Alcotest.fail ("connection dead after fault: " ^ e)))

let test_daemon_compiles_end_to_end () =
  with_daemon (fun path ->
      let req =
        Json.Obj
          [
            ("kind", Json.String "compile");
            ("id", Json.String "e2e");
            ("payload", Json.String payload_text);
            ("pipeline", Json.String "canonicalize");
          ]
      in
      match Server.Transport.rpc_once path req with
      | Ok j ->
        check cs "status" "ok" (status_of j);
        check cs "id echoed" "e2e"
          (Option.value ~default:"?"
             (Option.bind (Json.member "id" j) Json.to_string_opt));
        check cb "output present" true (Json.member "output" j <> None);
        check cb "response validates" true
          (Result.is_ok (Server.Protocol.validate_response_json j))
      | Error e -> Alcotest.fail ("compile rpc failed: " ^ e))

let with_engine f =
  let policy =
    { Server.Engine.default_policy with Server.Engine.p_backoff_ms = 0 }
  in
  let engine = Server.Engine.create ~policy () in
  Fun.protect ~finally:(fun () -> Server.Engine.close engine) (fun () ->
      f engine)

let counter_value component name =
  match Stats.find_counter ~component name with
  | Some c -> Stats.value c
  | None -> 0

let compile_req = Fuzz.Server_faults.compile_req

(* a one-op transform script: annotates the payload root *)
let script_text =
  {|"builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    "transform.annotate"(%root) {name = "seen"} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()|}

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let string_at path j =
  Option.value ~default:"?"
    (Option.bind (member_path path j) Json.to_string_opt)

let int_at path j =
  match member_path path j with Some (Json.Int n) -> n | _ -> -1

(* the same compile request twice, in process: the second is served from
   the result cache, byte-identical to the first *)
let test_engine_repeat_hits_cache () =
  let req = compile_req ~pipeline:"canonicalize,cse" payload_text in
  with_engine (fun engine ->
      let h0 = counter_value "server" "cache_hits" in
      let r1 = Server.Engine.handle_json engine req in
      let r2 = Server.Engine.handle_json engine req in
      check cs "first ok" "ok" (status_of r1);
      check cs "second ok" "ok" (status_of r2);
      check cs "byte-identical" (Json.to_string r1) (Json.to_string r2);
      check ci "one cache hit" (h0 + 1) (counter_value "server" "cache_hits"))

(* payload and script parse errors are answered by the engine, before
   admission: one attempt, no fingerprints *)
let test_engine_parse_errors () =
  with_engine (fun engine ->
      let expect name req prefix =
        let j = Server.Engine.handle_json engine req in
        check cs (name ^ ": status") "error" (status_of j);
        check cs (name ^ ": class") "parse" (string_at [ "error"; "class" ] j);
        check ci (name ^ ": attempts") 1 (int_at [ "attempts" ] j);
        check cb (name ^ ": no fingerprints") true
          (Json.member "fingerprints" j = None);
        let msg = string_at [ "error"; "message" ] j in
        check cb (name ^ ": message " ^ msg) true
          (String.starts_with ~prefix msg)
      in
      expect "payload" (compile_req "not mlir at all") "payload parse error: ";
      expect "script"
        (compile_req ~script:"also not mlir" payload_text)
        "script parse error: ")

(* each request parses its payload and script once, on the connection
   domain: a cold job is not parsed again by the cell, and a cache hit
   still pays the one parse that computes its key *)
let test_engine_parses_once () =
  let req =
    compile_req ~script:script_text ~pipeline:"canonicalize" payload_text
  in
  with_engine (fun engine ->
      let parses f =
        let n0 = counter_value "parser" "modules" in
        let j = f () in
        check cs "ok" "ok" (status_of j);
        counter_value "parser" "modules" - n0
      in
      check ci "cold request" 2
        (parses (fun () -> Server.Engine.handle_json engine req));
      check ci "cache hit" 2
        (parses (fun () -> Server.Engine.handle_json engine req)))

(* a budget retry re-parses: the failed attempt mutated its module *)
let test_engine_retry_reparses () =
  let req =
    compile_req ~pipeline:"canonicalize,cse" ~max_rewrites:1 ~attempts:4
      buster_text
  in
  with_engine (fun engine ->
      let n0 = counter_value "parser" "modules" in
      let j = Server.Engine.handle_json engine req in
      let attempts = int_at [ "attempts" ] j in
      check cs "retried to success" "ok" (status_of j);
      check cb "retried" true (attempts > 1);
      check ci "one parse per attempt" attempts
        (counter_value "parser" "modules" - n0))

(* a job that raises past the cell's barrier ([Out_of_memory] is fatal,
   so the cell lets it through) must raise out of the request instead of
   hanging it; the engine then still drains and closes *)
let test_engine_fatal_job_raises () =
  let finished = Atomic.make false in
  let watched =
    Domain.spawn (fun () ->
        let raised =
          with_engine (fun engine ->
              Transform.Treg.with_interceptor
                (fun _ _ _ -> raise Out_of_memory)
                (fun () ->
                  match
                    Server.Engine.handle_json engine
                      (compile_req ~script:script_text payload_text)
                  with
                  | _ -> false
                  | exception Out_of_memory -> true))
        in
        Atomic.set finished true;
        raised)
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get finished) then
    Alcotest.fail "request or engine close hung after a fatal exception";
  check cb "the exception reaches the caller" true (Domain.join watched)

let () =
  Alcotest.run "server"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "clean-eof" `Quick test_frame_clean_eof;
          Alcotest.test_case "truncated-prefix" `Quick
            test_frame_truncated_prefix;
          Alcotest.test_case "truncated-body" `Quick test_frame_truncated_body;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "negative" `Quick test_frame_negative;
        ] );
      ("utf8", [ Alcotest.test_case "boundary-cases" `Quick test_utf8 ]);
      ( "schema",
        [
          Alcotest.test_case "parse-request" `Quick test_parse_request;
          Alcotest.test_case "validate-response" `Quick test_validate_response;
        ] );
      ( "rcache",
        [
          Alcotest.test_case "single-flight" `Quick test_rcache_single_flight;
          Alcotest.test_case "abandon" `Quick test_rcache_abandon;
          Alcotest.test_case "eviction" `Quick test_rcache_eviction;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget-clamping" `Quick test_engine_clamping;
          Alcotest.test_case "repeat-hits-cache" `Quick
            test_engine_repeat_hits_cache;
          Alcotest.test_case "parse-errors" `Quick test_engine_parse_errors;
          Alcotest.test_case "parses-once" `Quick test_engine_parses_once;
          Alcotest.test_case "retry-reparses" `Quick
            test_engine_retry_reparses;
          Alcotest.test_case "fatal-job-raises" `Quick
            test_engine_fatal_job_raises;
        ] );
      ( "cell",
        [
          Alcotest.test_case "outcomes" `Quick test_cell_outcomes;
          Alcotest.test_case "reproducer" `Quick test_cell_reproducer;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "survives-mangled-frames" `Quick
            test_daemon_survives_mangled_frames;
          Alcotest.test_case "recovers-on-same-connection" `Quick
            test_daemon_recovers_on_same_connection;
          Alcotest.test_case "compiles-end-to-end" `Quick
            test_daemon_compiles_end_to_end;
        ] );
    ]
