(** [flat-block]: one [func.func] holding a long flat block of [arith]
    ops, in two sizes a doubling apart, run through [canonicalize,cse].
    Each op combines the previous result with one of a few high-fanout
    values: the two block arguments (thousands of uses each) and a
    constant defined at the top of the block, whose every use sits far
    from its definition. A seeded few ops add 0 or multiply by 1
    (canonicalize folds them) or repeat the op before them (cse removes
    the copy).

    The verifier does most of the work on this workload and grows
    superlinearly with block length; the pipeline does little. The
    generator writes the module text directly and computes the function's
    value in plain OCaml, which the oracle compares with the output
    executed by [Interp.Compile.run_function]. *)

let pipeline = "canonicalize,cse"
let func_name = "flat"
let num_args = 2

(** The hoisted constant every fourth op or so uses. *)
let k_value = 3

(* each op is a bijection of the previous result, so a wrong op anywhere
   in the block changes the function's value *)
type op = Addi | Subi | Xori | Muli

let op_name = function
  | Addi -> "addi"
  | Subi -> "subi"
  | Xori -> "xori"
  | Muli -> "muli"

let eval op a b =
  match op with
  | Addi -> a + b
  | Subi -> a - b
  | Xori -> a lxor b
  | Muli -> a * b

let plain_ops = [| Addi; Subi; Xori |]

type block = {
  b_text : string;
  b_args : int list;  (** seeded call arguments *)
  b_expected : int;  (** value of the function on [b_args] *)
}

(** Generate block number [variant] of [size] ops from [seed]. *)
let generate ~seed ~size ~variant =
  let rng = Random.State.make [| 0xb10c; seed; size; variant |] in
  let args = List.init num_args (fun _ -> Random.State.int rng 1000) in
  let arg_v = Array.of_list args in
  let b = Buffer.create (size * 72) in
  let add fmt = Printf.bprintf b fmt in
  add "\"builtin.module\"() ({\n  \"func.func\"() ({\n  ^bb0(";
  for i = 0 to num_args - 1 do
    add "%s%%a%d: i64" (if i = 0 then "" else ", ") i
  done;
  add "):\n";
  add "    %%c0 = \"arith.constant\"() {value = 0 : i64} : () -> i64\n";
  add "    %%c1 = \"arith.constant\"() {value = 1 : i64} : () -> i64\n";
  add "    %%k = \"arith.constant\"() {value = %d : i64} : () -> i64\n" k_value;
  (* the three constants count towards [size] *)
  let n = ref 3 and next_id = ref 0 in
  let line op lhs rhs =
    let id = !next_id in
    incr next_id;
    incr n;
    add "    %%v%d = \"arith.%s\"(%s, %s) : (i64, i64) -> i64\n" id
      (op_name op) lhs rhs;
    Printf.sprintf "%%v%d" id
  in
  let prev = ref "%a0" and value = ref arg_v.(0) in
  while !n < size do
    let r = Random.State.int rng 100 in
    if r < 3 then
      (* x + 0 or x * 1: folded by canonicalize, value unchanged *)
      prev := if r < 2 then line Addi !prev "%c0" else line Muli !prev "%c1"
    else begin
      let op = plain_ops.(Random.State.int rng (Array.length plain_ops)) in
      let rhs, x =
        if r < 28 then ("%k", k_value)
        else
          let a = Random.State.int rng num_args in
          (Printf.sprintf "%%a%d" a, arg_v.(a))
      in
      let v = line op !prev rhs in
      value := eval op !value x;
      (* an exact copy of the op before it: removed by cse *)
      prev := if r >= 96 && !n < size then line op !prev rhs else v
    end
  done;
  add "    \"func.return\"(%s) : (i64) -> ()\n" !prev;
  add "  }) {sym_name = \"%s\", function_type = (" func_name;
  for i = 0 to num_args - 1 do
    add "%si64" (if i = 0 then "" else ", ")
  done;
  add ") -> i64} : () -> ()\n}) : () -> ()\n";
  { b_text = Buffer.contents b; b_args = args; b_expected = !value }

(** Execute the printed output on the block's arguments. *)
let check ctx (blk : block) output =
  match Ir.Parser.parse_module output with
  | Error e -> Error ("output does not parse: " ^ e)
  | Ok md -> (
    match
      Interp.Compile.run_function ~ir_ctx:ctx ~module_:md ~name:func_name
        (List.map (fun v -> Interp.Rvalue.Int v) blk.b_args)
    with
    | Error e -> Error ("output does not execute: " ^ e)
    | Ok ([ Interp.Rvalue.Int v ], _) when v = blk.b_expected -> Ok ()
    | Ok (vs, _) ->
      Error
        (Fmt.str "output computes %a, expected %d"
           Fmt.(list ~sep:comma Interp.Rvalue.pp)
           vs blk.b_expected))

(** Blocks of one round, as (size, variant): three at N and one at 2N,
    so the median job is an N job and the 90th percentile a 2N job. *)
let small = 5000
let large = 2 * small
let blocks = [ (small, 0); (small, 1); (small, 2); (large, 0) ]

let key (size, variant) = Fmt.str "%d.%d" size variant

let workload ~seed =
  let generated = Hashtbl.create 4 in
  let keys_of size =
    List.filter_map (fun b -> if fst b = size then Some (key b) else None) blocks
  in
  {
    Rounds.w_inputs =
      (fun () ->
        let script = Job.script_of_pipeline pipeline in
        List.map
          (fun (size, variant) ->
            let blk = generate ~seed ~size ~variant in
            Hashtbl.replace generated (key (size, variant)) blk;
            {
              Rounds.i_key = key (size, variant);
              i_payload = blk.b_text;
              i_pipeline = pipeline;
              i_script = script;
            })
          blocks);
    w_check =
      (fun ctx input output ->
        check ctx (Hashtbl.find generated input.Rounds.i_key) output);
    w_params =
      [
        ("blocks", String.concat "," (List.map key blocks));
        ("pipeline", pipeline);
      ];
    w_doubling = Some (keys_of small, keys_of large);
  }
