(** Programmatic construction of Transform scripts — the API used by the
    examples, the pipeline converter and the autotuner to assemble scripts
    without going through the textual format. *)

open Ir

let h = Typ.transform_any_op
let p = Typ.transform_param

(* a detached sequence op whose one region holds [entry] *)
let sequence_op ~attrs entry name =
  Ircore.make ~operands:[||] ~result_types:[||] ~attrs
    ~regions:[ Ircore.region_with_block entry ] ~successors:[||]
    ~loc:Loc.unknown name

(* build an op with two handle results and return them *)
let build2 rw ~attrs operands name =
  let op = Rewriter.build rw ~operands ~result_types:[| h; h |] ~attrs name in
  (Ircore.result ~index:0 op, Ircore.result ~index:1 op)

(** Define an auxiliary named sequence in the same module. *)
let named_sequence m ~name ~num_args body =
  let entry = Ircore.create_block ~args:(List.init num_args (fun _ -> h)) () in
  let seq =
    sequence_op entry Ops.named_sequence_op
      ~attrs:[ ("sym_name", Attr.String name) ]
  in
  Ircore.insert_at_end (Dialects.Builtin.body_block m) seq;
  let rw = Rewriter.create ~ip:(Builder.At_end entry) () in
  let yielded = body rw (Ircore.block_args entry) in
  Rewriter.build0 rw ~operands:(Array.of_list yielded) Ops.yield_op;
  seq

(** A module containing a [transform.named_sequence @__transform_main] whose
    single block argument is the payload-root handle. [body] populates the
    sequence through a rewriter and the root handle. Returns the module. *)
let script ?(name = "__transform_main") body =
  let m = Dialects.Builtin.create_module () in
  ignore
    (named_sequence m ~name ~num_args:1 (fun rw args ->
         body rw (List.hd args);
         []));
  m

(** A bare [transform.sequence] op (with payload-root block arg). *)
let sequence ?(failure_propagation = "propagate") body =
  let entry = Ircore.create_block ~args:[ h ] () in
  let seq =
    sequence_op entry Ops.sequence_op
      ~attrs:[ ("failure_propagation", Attr.String failure_propagation) ]
  in
  let rw = Rewriter.create ~ip:(Builder.At_end entry) () in
  body rw (Ircore.block_arg entry 0);
  Rewriter.build0 rw ~operands:[||] Ops.yield_op;
  seq

(** A nested [transform.sequence] inserted at [rw]'s insertion point —
    used to scope a [failures(suppress)] transaction inside a larger
    script. The body receives the payload-root handle. *)
let nested_sequence rw ?failure_propagation body =
  let seq = sequence ?failure_propagation body in
  Rewriter.insert rw seq;
  seq

(* ------------------------------------------------------------------ *)
(* Individual transforms                                               *)
(* ------------------------------------------------------------------ *)

let match_op rw ?(select = "all") ?dialect ?interface ?has_attr ?name target =
  let opt k v = match v with Some s -> [ (k, Attr.String s) ] | None -> [] in
  Rewriter.build1 rw ~operands:[| target |] ~result_types:[| h |]
    ~attrs:
      (opt "op_name" name @ opt "dialect" dialect @ opt "interface" interface
      @ opt "has_attr" has_attr
      @ [ ("select", Attr.String select) ])
    Ops.match_op

let param_constant rw v =
  Rewriter.build1 rw ~operands:[||] ~result_types:[| p |]
    ~attrs:[ ("value", Attr.Int (v, Typ.index)) ]
    Ops.param_constant_op

let loop_split rw ?div_by_param ~div_by loop =
  let operands, attrs =
    match div_by_param with
    | Some param -> ([| loop; param |], [])
    | None -> ([| loop |], [ ("div_by", Attr.Int (div_by, Typ.i64)) ])
  in
  build2 rw ~attrs operands Ops.loop_split_op

let loop_tile rw ?size_params ~sizes loop =
  let operands, attrs =
    match size_params with
    | Some params -> (Array.of_list (loop :: params), [])
    | None -> ([| loop |], [ ("tile_sizes", Attr.Int_array sizes) ])
  in
  build2 rw ~attrs operands Ops.loop_tile_op

let loop_unroll_full rw loop =
  Rewriter.build0 rw ~operands:[| loop |] ~attrs:[ ("full", Attr.Unit) ]
    Ops.loop_unroll_op

let loop_unroll rw ~factor loop =
  Rewriter.build0 rw ~operands:[| loop |]
    ~attrs:[ ("factor", Attr.Int (factor, Typ.i64)) ]
    Ops.loop_unroll_op

let loop_interchange rw loop =
  Rewriter.build1 rw ~operands:[| loop |] ~result_types:[| h |]
    Ops.loop_interchange_op

let loop_hoist rw loop =
  Rewriter.build1 rw ~operands:[| loop |] ~result_types:[| h |]
    Ops.loop_hoist_op

let loop_vectorize rw ?width_param ?(width = 8) loop =
  let operands, attrs =
    match width_param with
    | Some param -> ([| loop; param |], [])
    | None -> ([| loop |], [ ("width", Attr.Int (width, Typ.i64)) ])
  in
  Rewriter.build1 rw ~operands ~result_types:[| h |] ~attrs
    Ops.loop_vectorize_op

let loop_fuse rw a b =
  Rewriter.build1 rw ~operands:[| a; b |] ~result_types:[| h |] Ops.loop_fuse_op

let loop_peel rw ~iterations loop =
  build2 rw [| loop |] Ops.loop_peel_op
    ~attrs:[ ("iterations", Attr.Int (iterations, Typ.i64)) ]

let to_library rw ~library loop =
  Rewriter.build0 rw ~operands:[| loop |]
    ~attrs:[ ("library", Attr.String library) ]
    Ops.to_library_op

let structured_tile rw ~sizes target =
  build2 rw [| target |] Ops.structured_tile_op
    ~attrs:[ ("tile_sizes", Attr.Int_array sizes) ]

let structured_to_library rw ~library target =
  Rewriter.build0 rw ~operands:[| target |]
    ~attrs:[ ("library", Attr.String library) ]
    Ops.structured_to_library_op

let structured_to_loops rw target =
  Rewriter.build0 rw ~operands:[| target |] Ops.structured_to_loops_op

let apply_registered_pass rw ~pass_name target =
  Rewriter.build1 rw ~operands:[| target |] ~result_types:[| h |]
    ~attrs:[ ("pass_name", Attr.String pass_name) ]
    Ops.apply_registered_pass_op

(** [apply_patterns rw target names] lists each pattern by name in the
    region, Case-Study-3 style. *)
let apply_patterns rw target pattern_names =
  let body = Ircore.create_block () in
  List.iter
    (fun name ->
      Ircore.insert_at_end body
        (Ircore.make ~operands:[||] ~result_types:[||]
           ~attrs:[ ("name", Attr.String name) ]
           ~regions:[] ~successors:[||] ~loc:Loc.unknown Ops.pattern_ref_op))
    pattern_names;
  Rewriter.build0 rw ~operands:[| target |]
    ~regions:[ Ircore.region_with_block body ]
    Ops.apply_patterns_op

(** [alternatives rw bodies]: one region per body callback. *)
let alternatives rw bodies =
  let regions =
    List.map
      (fun body ->
        let block = Ircore.create_block () in
        let brw = Rewriter.create ~ip:(Builder.At_end block) () in
        body brw;
        Ircore.region_with_block block)
      bodies
  in
  Rewriter.build0 rw ~operands:[||] ~regions Ops.alternatives_op

(** [foreach rw target body]: iterate the body over each payload op of
    [target], one at a time. The body receives a rewriter positioned in
    the region and the per-iteration handle (the single block argument). *)
let foreach rw target body =
  let block = Ircore.create_block ~args:[ h ] () in
  let brw = Rewriter.create ~ip:(Builder.At_end block) () in
  body brw (Ircore.block_arg block 0);
  Rewriter.build0 brw ~operands:[||] Ops.yield_op;
  Rewriter.build0 rw ~operands:[| target |]
    ~regions:[ Ircore.region_with_block block ]
    Ops.foreach_op

let split_handle rw ~n target =
  let op =
    Rewriter.build rw ~operands:[| target |] ~result_types:(Array.make n h)
      Ops.split_handle_op
  in
  Ircore.results op

let annotate rw ?value ~name target =
  let attrs =
    ("name", Attr.String name)
    :: (match value with Some v -> [ ("value", v) ] | None -> [])
  in
  Rewriter.build0 rw ~operands:[| target |] ~attrs Ops.annotate_op

let print rw ?(tag = "") target =
  Rewriter.build0 rw ~operands:[| target |]
    ~attrs:[ ("name", Attr.String tag) ]
    Ops.print_op

let include_ rw ~target operands ~results =
  Rewriter.build rw ~operands:(Array.of_list operands)
    ~result_types:(Array.make results h)
    ~attrs:[ ("target", Attr.Symbol_ref (target, [])) ]
    Ops.include_op
