(** Loop transformation utilities on [scf.for]: the "hidden compiler
    features" the Transform dialect exposes (split, tile, unroll,
    interchange, hoisting, vectorization, microkernel replacement). All
    functions return [Result]: an [Error] is a failed pre-condition and the
    payload is left unmodified — the silenceable-error discipline of the
    paper's Section 3. *)

open Ir
open Dialects

let ( let* ) = Result.bind

let err fmt = Fmt.kstr (fun m -> Error m) fmt

(** Report a loop transform's outcome as an optimization remark attributed
    to [loc] (capture the payload loc *before* transforming — success may
    erase the op): [Passed] with [args] on [Ok], [Missed] with the decline
    reason on [Error]. No-op (and no formatting) without an action
    context. *)
let remarked ~pass ~loc ?(args = []) ~applied result =
  (if Action.enabled () then
     match result with
     | Ok _ -> Action.remark (Remark.passed ~pass ~loc ~args "%s" applied)
     | Error reason -> Action.remark (Remark.missed ~pass ~loc "%s" reason));
  result

let int_list_arg sizes =
  Remark.String (Fmt.str "[%a]" (Fmt.list ~sep:(Fmt.any ",") Fmt.int) sizes)

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)
(* ------------------------------------------------------------------ *)

let ensure_for op =
  if Scf.is_for op then Ok () else err "expected scf.for, got %s" op.Ircore.op_name

let ensure_no_iter_args op =
  if Ircore.num_results op = 0 then Ok ()
  else err "loop with iter_args is not supported by this transform"

(** Non-terminator ops of the loop body. *)
let body_ops loop =
  match Ircore.block_ops (Scf.body_block loop) with
  | [] -> []
  | ops -> List.filter (fun o -> o.Ircore.op_name <> Scf.yield_op) ops

(** A perfect nest starting at [loop]: follow single-loop bodies downward. *)
let rec perfect_nest loop =
  match body_ops loop with
  | [ inner ] when Scf.is_for inner -> loop :: perfect_nest inner
  | _ -> [ loop ]

(* pure scalar index computations that may sit between nest levels without
   breaking a "morally perfect" nest (e.g. the bound computations emitted by
   tiling) *)
let is_index_aux op =
  List.mem op.Ircore.op_name
    [
      "arith.constant"; "arith.addi"; "arith.muli"; "arith.subi";
      "arith.minsi"; "arith.maxsi"; "affine.apply"; "affine.min";
    ]

(** Like {!perfect_nest} but tolerates index-computation ops alongside the
    single nested loop — the shape produced by tiling. *)
let rec relaxed_nest loop =
  let ops = body_ops loop in
  match List.filter Scf.is_for ops with
  | [ inner ] when List.for_all (fun o -> o == inner || is_index_aux o) ops ->
    loop :: relaxed_nest inner
  | _ -> [ loop ]

let innermost loop = List.nth (perfect_nest loop) (List.length (perfect_nest loop) - 1)

(** Trip count of a loop with a constant positive step, derived from
    constant bounds or structurally from the [ub = lb + c] shape produced by
    tiling. Returns [(trip, step)]. *)
let trip_and_step loop =
  match Scf.static_bounds loop with
  | Some (lb, ub, st) -> Some (max 0 ((ub - lb + st - 1) / st), st)
  | None -> (
    match Arith.constant_int_of_value (Scf.step loop) with
    | Some st when st > 0 -> (
      let lb = Scf.lower_bound loop and ub = Scf.upper_bound loop in
      match Ircore.defining_op ub with
      | Some add when add.Ircore.op_name = "arith.addi" ->
        let o0 = Ircore.operand ~index:0 add
        and o1 = Ircore.operand ~index:1 add in
        let span =
          if o0 == lb then Arith.constant_int_of_value o1
          else if o1 == lb then Arith.constant_int_of_value o0
          else None
        in
        Option.map (fun c -> (max 0 ((c + st - 1) / st), st)) span
      | _ -> None)
    | _ -> None)

let structural_trip_count loop = Option.map fst (trip_and_step loop)
let has_unit_step loop = Arith.constant_int_of_value (Scf.step loop) = Some 1

(* ------------------------------------------------------------------ *)
(* Split                                                               *)
(* ------------------------------------------------------------------ *)

(** Split [loop] into a main loop whose trip count is the largest multiple
    of [divisor] and a remainder loop covering the rest. Both bounds and the
    step must be constants. Returns [(main, rest)]. *)
let split rw loop ~divisor =
  let* () = ensure_for loop in
  let* () = ensure_no_iter_args loop in
  if divisor <= 0 then err "split divisor must be positive"
  else
    match Scf.static_bounds loop with
    | None -> err "loop.split requires constant bounds and step"
    | Some (lb, ub, st) ->
      let trip = max 0 ((ub - lb + st - 1) / st) in
      let main_trip = trip / divisor * divisor in
      let mid = lb + (main_trip * st) in
      Rewriter.set_ip rw (Builder.Before loop);
      let mid_v = Dutil.const_int rw mid in
      let main = Ircore.clone_op loop in
      Ircore.set_operand main 1 mid_v;
      Rewriter.insert rw main;
      let rest = Ircore.clone_op loop in
      Ircore.set_operand rest 0 mid_v;
      Rewriter.insert rw rest;
      Rewriter.erase_op rw loop;
      Ok (main, rest)

let split rw loop ~divisor =
  let loc = loop.Ircore.op_loc in
  remarked ~pass:"loop-split" ~loc
    ~args:[ ("divisor", Remark.Int divisor) ]
    ~applied:"split loop into a divisor-multiple main loop and a remainder"
    (split rw loop ~divisor)

(** Peel the first [iterations] iterations off [loop] into a separate loop
    preceding it. Returns [(peeled, rest)]. *)
let peel_front rw loop ~iterations =
  let* () = ensure_for loop in
  let* () = ensure_no_iter_args loop in
  if iterations <= 0 then err "peel count must be positive"
  else
    match Scf.static_bounds loop with
    | None -> err "loop.peel requires constant bounds and step"
    | Some (lb, ub, st) ->
      let trip = max 0 ((ub - lb + st - 1) / st) in
      let n = min iterations trip in
      let mid = lb + (n * st) in
      Rewriter.set_ip rw (Builder.Before loop);
      let mid_v = Dutil.const_int rw mid in
      let peeled = Ircore.clone_op loop in
      Ircore.set_operand peeled 1 mid_v;
      Rewriter.insert rw peeled;
      let rest = Ircore.clone_op loop in
      Ircore.set_operand rest 0 mid_v;
      Rewriter.insert rw rest;
      Rewriter.erase_op rw loop;
      Ok (peeled, rest)

(** Fuse sibling loop [b] into [a]: both must live in the same block with
    identical bounds/step (same SSA values or equal constants) and no
    iter_args; [b]'s body is appended to [a]'s and [b] is erased. As in
    MLIR's [transform.loop.fuse_sibling], legality (no fusion-preventing
    dependence between the loops) is asserted by the user. *)
let fuse_siblings rw a b =
  let* () = ensure_for a in
  let* () = ensure_for b in
  let* () = ensure_no_iter_args a in
  let* () = ensure_no_iter_args b in
  if a == b then err "cannot fuse a loop with itself"
  else
    let same_block =
      match (Ircore.op_parent a, Ircore.op_parent b) with
      | Some ba, Some bb -> ba == bb
      | _ -> false
    in
    if not same_block then err "fusion requires loops in the same block"
    else
      let same_bound get =
        get a == get b
        ||
        match
          (Arith.constant_int_of_value (get a), Arith.constant_int_of_value (get b))
        with
        | Some x, Some y -> x = y
        | _ -> false
      in
      if
        not
          (same_bound Scf.lower_bound && same_bound Scf.upper_bound
         && same_bound Scf.step)
      then err "fusion requires identical bounds and step"
      else begin
        (* values flowing into b's body must already dominate a, otherwise
           moving the body before them would break SSA *)
        let dominance_safe = ref true in
        Ircore.walk
          (fun op ->
            List.iter
              (fun v ->
                if not (Ircore.value_defined_within ~ancestor:b v) then
                  match Ircore.defining_op v with
                  | Some d
                    when (match (Ircore.op_parent d, Ircore.op_parent a) with
                         | Some bd, Some ba -> bd == ba
                         | _ -> false)
                         && Ircore.is_before_in_block a d ->
                    dominance_safe := false
                  | _ -> ())
              (Ircore.operands op))
          b;
        if not !dominance_safe then
          err "fusion would move uses before their definitions"
        else begin
        let a_yield = Scf.yield_of a in
        let iv_a = Scf.induction_var a and iv_b = Scf.induction_var b in
        Ircore.replace_all_uses_with iv_b ~with_:iv_a;
        let brw = Rewriter.create ~ip:(Builder.Before a_yield) () in
        List.iter
          (fun op ->
            Ircore.detach op;
            Rewriter.insert brw op)
          (body_ops b);
        Rewriter.erase_op rw b;
        Ok a
        end
      end

let fuse_siblings rw a b =
  let loc = a.Ircore.op_loc in
  remarked ~pass:"loop-fuse" ~loc
    ~applied:"fused sibling loop into its twin"
    (fuse_siblings rw a b)

(* ------------------------------------------------------------------ *)
(* Tiling                                                              *)
(* ------------------------------------------------------------------ *)

(** Tile the perfect nest rooted at [loop] with [sizes] (one per nest
    level; 0 means "do not tile this level" only at the tail). Produces
    outer tile loops and inner point loops; a [min] is emitted for the point
    loop upper bound unless the trip count is statically divisible.
    Returns [(tile_loops, point_loops)]. *)
let tile rw loop ~sizes =
  let* () = ensure_for loop in
  let nest = perfect_nest loop in
  let depth = List.length sizes in
  if depth = 0 then err "tile_sizes must not be empty"
  else if depth > List.length nest then
    err "tile_sizes has %d entries but the perfect nest has depth %d" depth
      (List.length nest)
  else if List.exists (fun s -> s <= 0) sizes then
    err "tile sizes must be positive"
  else begin
    let loops = List.filteri (fun i _ -> i < depth) nest in
    let* () =
      if List.for_all (fun l -> Ircore.num_results l = 0) loops then Ok ()
      else err "cannot tile loops with iter_args"
    in
    let inner = List.nth loops (depth - 1) in
    let moved_ops = body_ops inner in
    let orig_ivs = List.map Scf.induction_var loops in
    let bounds = List.map (fun l -> (Scf.lower_bound l, Scf.upper_bound l, Scf.step l)) loops in
    let static = List.map Scf.static_bounds loops in
    Rewriter.set_ip rw (Builder.Before loop);
    let tile_loops = ref [] in
    let point_loops = ref [] in
    let point_ivs = Array.make depth None in
    (* innermost point-loop body: move the original ops here *)
    let rec build_points i brw =
      if i = depth then begin
        List.iter
          (fun op ->
            Ircore.detach op;
            Rewriter.insert brw op)
          moved_ops;
        []
      end
      else begin
        let lb_i, ub_i, st_i = List.nth bounds i in
        let tile_iv =
          match point_ivs.(i) with Some v -> v | None -> assert false
        in
        let size = List.nth sizes i in
        let st_const = Arith.constant_int_of_value st_i in
        let step_v =
          match st_const with
          | Some 1 -> st_i
          | _ -> st_i
        in
        ignore lb_i;
        let span =
          (* tile_iv + step*size *)
          match st_const with
          | Some st ->
            let c = Dutil.const_int brw (st * size) in
            Arith.addi brw tile_iv c
          | None ->
            let c = Dutil.const_int brw size in
            Arith.addi brw tile_iv (Arith.muli brw st_i c)
        in
        let divisible =
          match List.nth static i with
          | Some (lb, ub, st) -> (ub - lb + st - 1) / st mod size = 0
          | None -> false
        in
        let point_ub =
          if divisible then span
          else
            Rewriter.build1 brw ~operands:[| span; ub_i |]
              ~result_types:[| Typ.index |] "arith.minsi"
        in
        let l =
          Scf.build_for brw ~lb:tile_iv ~ub:point_ub ~step:step_v
            (fun brw' iv _ ->
              Ircore.replace_all_uses_with (List.nth orig_ivs i) ~with_:iv;
              build_points (i + 1) brw')
        in
        point_loops := !point_loops @ [ l ];
        []
      end
    in
    let rec build_tiles i brw =
      if i = depth then begin
        ignore (build_points 0 brw);
        []
      end
      else begin
        let lb_i, ub_i, st_i = List.nth bounds i in
        let size = List.nth sizes i in
        let big_step =
          match Arith.constant_int_of_value st_i with
          | Some st -> Dutil.const_int brw (st * size)
          | None ->
            let c = Dutil.const_int brw size in
            Arith.muli brw st_i c
        in
        let l =
          Scf.build_for brw ~lb:lb_i ~ub:ub_i ~step:big_step (fun brw' iv _ ->
              point_ivs.(i) <- Some iv;
              build_tiles (i + 1) brw')
        in
        tile_loops := !tile_loops @ [ l ];
        []
      end
    in
    ignore (build_tiles 0 rw);
    (* loops were recorded innermost-first (callbacks return inside-out) *)
    let points = List.rev !point_loops in
    let tiles = List.rev !tile_loops in
    Rewriter.erase_op rw loop;
    Ok (tiles, points)
  end

let tile rw loop ~sizes =
  let loc = loop.Ircore.op_loc in
  remarked ~pass:"loop-tile" ~loc
    ~args:[ ("tile_sizes", int_list_arg sizes) ]
    ~applied:"tiled perfect loop nest into tile and point loops"
    (tile rw loop ~sizes)

(* ------------------------------------------------------------------ *)
(* Unrolling                                                           *)
(* ------------------------------------------------------------------ *)

(** Fully unroll [loop]; requires a statically known trip count (constant
    bounds, or the [ub = lb + c] shape produced by tiling). Supports
    iter_args. *)
let unroll_full rw loop =
  let* () = ensure_for loop in
  match trip_and_step loop with
  | None -> err "loop.unroll full requires a statically known trip count"
  | Some (trip, st) ->
    if trip > 4096 then err "refusing to fully unroll %d iterations" trip
    else begin
      Rewriter.set_ip rw (Builder.Before loop);
      let iv = Scf.induction_var loop in
      let lb_v = Scf.lower_bound loop in
      let lb_const = Arith.constant_int_of_value lb_v in
      let iters = Scf.iter_args loop in
      let yield = Scf.yield_of loop in
      let carried = ref (Scf.iter_init_args loop) in
      for k = 0 to trip - 1 do
        let mapping = Ircore.Mapping.create () in
        let iv_const =
          match lb_const with
          | Some lb -> Dutil.const_int rw (lb + (k * st))
          | None ->
            if k = 0 then lb_v
            else Arith.addi rw lb_v (Dutil.const_int rw (k * st))
        in
        Ircore.Mapping.map_value mapping ~from:iv ~to_:iv_const;
        List.iter2
          (fun arg v -> Ircore.Mapping.map_value mapping ~from:arg ~to_:v)
          iters !carried;
        List.iter
          (fun op ->
            let cloned = Ircore.clone_op ~mapping op in
            Rewriter.insert rw cloned)
          (body_ops loop);
        carried :=
          List.map (Ircore.Mapping.lookup_value mapping) (Ircore.operands yield)
      done;
      Rewriter.replace_op rw loop ~with_:!carried;
      Ok ()
    end

(** Unroll [loop] by [factor]; requires a constant trip count divisible by
    [factor]. Supports iter_args. *)
let unroll_by rw loop ~factor =
  let* () = ensure_for loop in
  if factor <= 1 then err "unroll factor must be > 1"
  else
    match trip_and_step loop with
    | None -> err "loop.unroll requires a statically known trip count"
    | Some (trip, st) ->
      if trip mod factor <> 0 then
        err "trip count %d is not divisible by unroll factor %d" trip factor
      else begin
        let iv = Scf.induction_var loop in
        let iters = Scf.iter_args loop in
        let yield = Scf.yield_of loop in
        let orig_ops = body_ops loop in
        let orig_yield_operands = Ircore.operands yield in
        (* bump the step *)
        Rewriter.set_ip rw (Builder.Before loop);
        let new_step = Dutil.const_int rw (st * factor) in
        Ircore.set_operand loop 2 new_step;
        (* append factor-1 copies of the body before the yield *)
        let brw = Rewriter.create ~ip:(Builder.Before yield) () in
        let carried = ref orig_yield_operands in
        for k = 1 to factor - 1 do
          let mapping = Ircore.Mapping.create () in
          let off = Dutil.const_int brw (k * st) in
          let iv_k = Arith.addi brw iv off in
          Ircore.Mapping.map_value mapping ~from:iv ~to_:iv_k;
          List.iter2
            (fun arg v -> Ircore.Mapping.map_value mapping ~from:arg ~to_:v)
            iters !carried;
          List.iter
            (fun op -> Rewriter.insert brw (Ircore.clone_op ~mapping op))
            orig_ops;
          carried :=
            List.map (Ircore.Mapping.lookup_value mapping) orig_yield_operands
        done;
        Ircore.set_operands yield !carried;
        Ok ()
      end

(* ------------------------------------------------------------------ *)
(* Interchange                                                         *)
(* ------------------------------------------------------------------ *)

(** Interchange [outer] with its immediately nested single inner loop. *)
let interchange rw outer =
  let* () = ensure_for outer in
  let* () = ensure_no_iter_args outer in
  match body_ops outer with
  | [ inner ] when Scf.is_for inner ->
    let* () = ensure_no_iter_args inner in
    let o_iv = Scf.induction_var outer and i_iv = Scf.induction_var inner in
    let o_b = (Scf.lower_bound outer, Scf.upper_bound outer, Scf.step outer) in
    let i_b = (Scf.lower_bound inner, Scf.upper_bound inner, Scf.step inner) in
    let moved = body_ops inner in
    Rewriter.set_ip rw (Builder.Before outer);
    let lb_i, ub_i, st_i = i_b in
    let lb_o, ub_o, st_o = o_b in
    let new_outer =
      Scf.build_for rw ~lb:lb_i ~ub:ub_i ~step:st_i (fun brw iv _ ->
          Ircore.replace_all_uses_with i_iv ~with_:iv;
          ignore
            (Scf.build_for brw ~lb:lb_o ~ub:ub_o ~step:st_o (fun brw' iv' _ ->
                 Ircore.replace_all_uses_with o_iv ~with_:iv';
                 List.iter
                   (fun op ->
                     Ircore.detach op;
                     Rewriter.insert brw' op)
                   moved;
                 []));
          [])
    in
    Rewriter.erase_op rw outer;
    Ok new_outer
  | _ -> err "interchange requires a perfectly nested inner loop"

(* ------------------------------------------------------------------ *)
(* Hoisting (LICM)                                                     *)
(* ------------------------------------------------------------------ *)

(** Hoist loop-invariant pure ops out of [loop], inserting them just before
    it. Returns the moved ops (in their new order). *)
let hoist_invariants ctx rw loop =
  let* () = ensure_for loop in
  let moved = ref [] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun op ->
        let invariant =
          Context.is_pure ctx op
          && op.Ircore.regions = []
          && List.for_all
               (fun v -> not (Ircore.value_defined_within ~ancestor:loop v))
               (Ircore.operands op)
        in
        if invariant then begin
          Ircore.detach op;
          Ircore.insert_before ~anchor:loop op;
          moved := op :: !moved;
          changed := true
        end)
      (body_ops loop)
  done;
  ignore rw;
  Ok (List.rev !moved)

(* ------------------------------------------------------------------ *)
(* Vectorization                                                       *)
(* ------------------------------------------------------------------ *)

let is_float_scalar t = match t with Typ.Float _ -> true | _ -> false

(** Vectorize the innermost [loop] with vector width [width]: loads/stores
    whose last index is the induction variable become vector ops, float
    arithmetic becomes vector arithmetic, uniform values are splat. The loop
    must have a unit step and a constant trip count divisible by [width],
    and the vectorized memrefs must be contiguous in their last dimension. *)
let vectorize rw loop ~width =
  let* () = ensure_for loop in
  let* () = ensure_no_iter_args loop in
  if not (has_unit_step loop) then err "vectorize requires unit step"
  else
  match structural_trip_count loop with
  | None -> err "vectorize requires a statically known trip count"
  | Some trip ->
    if trip mod width <> 0 then
      err "trip count %d not divisible by vector width %d" trip width
    else begin
      let iv = Scf.induction_var loop in
      let ops = body_ops loop in
      (* analyze: which values become vectors *)
      let varying : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      Hashtbl.replace varying iv.Ircore.v_id ();
      let is_varying v = Hashtbl.mem varying v.Ircore.v_id in
      let last_dim_contiguous v =
        match Ircore.value_typ v with
        | Typ.Memref (_, _, Typ.Identity) -> true
        | Typ.Memref (_, _, Typ.Strided { strides; _ }) -> (
          match List.rev strides with
          | Typ.Static 1 :: _ -> true
          | _ -> false)
        | _ -> false
      in
      let check_op op =
        match op.Ircore.op_name with
        | "memref.load" -> (
          let m = Ircore.operand ~index:0 op in
          let idx = List.tl (Ircore.operands op) in
          match List.rev idx with
          | last :: rest when last == iv ->
            if List.exists is_varying rest then
              err "non-innermost varying index in load"
            else if not (last_dim_contiguous m) then
              err "memref is not contiguous in its last dimension"
            else begin
              Hashtbl.replace varying (Ircore.result op).Ircore.v_id ();
              Ok ()
            end
          | idx_rev ->
            if List.exists is_varying idx_rev then
              err "induction variable used in a non-contiguous position"
            else Ok ())
        | "memref.store" -> (
          let v = Ircore.operand ~index:0 op in
          let m = Ircore.operand ~index:1 op in
          let idx = List.filteri (fun i _ -> i >= 2) (Ircore.operands op) in
          match List.rev idx with
          | last :: rest when last == iv ->
            if List.exists is_varying rest then
              err "non-innermost varying index in store"
            else if not (last_dim_contiguous m) then
              err "memref is not contiguous in its last dimension"
            else Ok ()
          | idx_rev ->
            if List.exists is_varying idx_rev || is_varying v then
              err "varying store with non-vectorizable indexing"
            else Ok ())
        | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
        | "arith.maximumf" | "arith.minimumf" ->
          if
            List.exists is_varying (Ircore.operands op)
            && is_float_scalar (Ircore.value_typ (Ircore.result op))
          then begin
            Hashtbl.replace varying (Ircore.result op).Ircore.v_id ();
            Ok ()
          end
          else Ok ()
        | "arith.constant" | "arith.addi" | "arith.muli" | "arith.subi" ->
          if List.exists is_varying (Ircore.operands op) then
            err "induction variable used in scalar address arithmetic"
          else Ok ()
        | name ->
          if List.exists is_varying (Ircore.operands op) then
            err "cannot vectorize op %s" name
          else Ok ()
      in
      let rec check_all = function
        | [] -> Ok ()
        | op :: rest ->
          let* () = check_op op in
          check_all rest
      in
      let* () = check_all ops in
      (* rewrite *)
      let elem_typ_of v =
        match Ircore.value_typ v with Typ.Float k -> Typ.Float k | t -> t
      in
      Rewriter.set_ip rw (Builder.Before loop);
      let new_loop =
        Scf.build_for rw ~lb:(Scf.lower_bound loop) ~ub:(Scf.upper_bound loop)
          ~step:(Dutil.const_int rw width) (fun brw new_iv _ ->
            let mapping : (int, Ircore.value) Hashtbl.t = Hashtbl.create 16 in
            Hashtbl.replace mapping iv.Ircore.v_id new_iv;
            let resolve v =
              Option.value ~default:v (Hashtbl.find_opt mapping v.Ircore.v_id)
            in
            let as_vector v =
              let v' = resolve v in
              match Ircore.value_typ v' with
              | Typ.Vector _ -> v'
              | t when is_float_scalar t ->
                Vector.splat brw v' ~vector_typ:(Typ.Vector ([ width ], t))
              | _ -> v'
            in
            List.iter
              (fun op ->
                match op.Ircore.op_name with
                | "memref.load"
                  when is_varying (Ircore.result op) ->
                  let m = resolve (Ircore.operand ~index:0 op) in
                  let idx =
                    List.map resolve (List.tl (Ircore.operands op))
                  in
                  let elt = elem_typ_of (Ircore.result op) in
                  let v =
                    Vector.load brw
                      ~vector_typ:(Typ.Vector ([ width ], elt))
                      m idx
                  in
                  Hashtbl.replace mapping (Ircore.result op).Ircore.v_id v
                | "memref.store"
                  when is_varying (Ircore.operand ~index:0 op)
                       || List.exists
                            (fun x -> x == iv)
                            (Ircore.operands op) ->
                  let v = as_vector (Ircore.operand ~index:0 op) in
                  let m = resolve (Ircore.operand ~index:1 op) in
                  let idx =
                    List.map resolve
                      (List.filteri (fun i _ -> i >= 2) (Ircore.operands op))
                  in
                  Vector.store brw v m idx
                | ("arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
                  | "arith.maximumf" | "arith.minimumf")
                  when is_varying (Ircore.result op) ->
                  let a = as_vector (Ircore.operand ~index:0 op) in
                  let b = as_vector (Ircore.operand ~index:1 op) in
                  let v =
                    Rewriter.build1 brw ~operands:[| a; b |]
                      ~result_types:[| Ircore.value_typ a |]
                      op.Ircore.op_name
                  in
                  Hashtbl.replace mapping (Ircore.result op).Ircore.v_id v
                | _ ->
                  (* uniform op: clone with resolved operands *)
                  let cloned = Ircore.clone_op op in
                  Array.iteri
                    (fun i v -> Ircore.set_operand cloned i (resolve v))
                    cloned.Ircore.operands;
                  Rewriter.insert brw cloned;
                  List.iteri
                    (fun i r ->
                      Hashtbl.replace mapping
                        (Ircore.result ~index:i op).Ircore.v_id r)
                    (Ircore.results cloned))
              ops;
            [])
      in
      Rewriter.erase_op rw loop;
      Ok new_loop
    end

let vectorize rw loop ~width =
  let loc = loop.Ircore.op_loc in
  remarked ~pass:"loop-vectorize" ~loc
    ~args:[ ("width", Remark.Int width) ]
    ~applied:"vectorized innermost loop"
    (vectorize rw loop ~width)

(* ------------------------------------------------------------------ *)
(* Matmul-nest matching and microkernel replacement                    *)
(* ------------------------------------------------------------------ *)

type matmul_nest = {
  mm_i : Ircore.op;  (** loop over rows of C *)
  mm_j : Ircore.op;  (** loop over cols of C *)
  mm_k : Ircore.op;  (** reduction loop *)
  mm_a : Ircore.value;
  mm_b : Ircore.value;
  mm_c : Ircore.value;
  mm_m : int;
  mm_n : int;
  mm_k_size : int;
}

(** Match a 3-deep perfect nest computing [C[i,j] += A[i,k] * B[k,j]] with
    unit steps and memory-carried accumulation. *)
let match_matmul (loop : Ircore.op) =
  let* () = ensure_for loop in
  match relaxed_nest loop with
  | [ li; lj; lk ] -> (
    let ivi = Scf.induction_var li
    and ivj = Scf.induction_var lj
    and ivk = Scf.induction_var lk in
    let tripcounts =
      if has_unit_step li && has_unit_step lj && has_unit_step lk then
        ( structural_trip_count li,
          structural_trip_count lj,
          structural_trip_count lk )
      else (None, None, None)
    in
    match tripcounts with
    | Some trip_i, Some trip_j, Some trip_k -> (
      let ops = body_ops lk in
      (* expected: loadC, loadA, loadB (any order), mulf, addf, storeC *)
      let loads =
        List.filter (fun o -> o.Ircore.op_name = "memref.load") ops
      in
      let stores =
        List.filter (fun o -> o.Ircore.op_name = "memref.store") ops
      in
      let muls = List.filter (fun o -> o.Ircore.op_name = "arith.mulf") ops in
      let adds = List.filter (fun o -> o.Ircore.op_name = "arith.addf") ops in
      match (loads, stores, muls, adds) with
      | [ _; _; _ ], [ store ], [ mul ], [ add ]
        when List.length ops = 6 -> (
        let index_pattern o =
          match List.tl (Ircore.operands o) with
          | [ x; y ] ->
            let tag v =
              if v == ivi then `I else if v == ivj then `J
              else if v == ivk then `K
              else `Other
            in
            Some (tag x, tag y)
          | _ -> None
        in
        let find_load pat =
          List.find_opt (fun o -> index_pattern o = Some pat) loads
        in
        match (find_load (`I, `K), find_load (`K, `J), find_load (`I, `J)) with
        | Some la, Some lb, Some lc -> (
          (* check dataflow: add(mul(a,b), c) stored to C[i,j] *)
          let a_v = Ircore.result la
          and b_v = Ircore.result lb
          and c_v = Ircore.result lc in
          let mul_ok =
            let o0 = Ircore.operand ~index:0 mul
            and o1 = Ircore.operand ~index:1 mul in
            (o0 == a_v && o1 == b_v) || (o0 == b_v && o1 == a_v)
          in
          let add_ok =
            let o0 = Ircore.operand ~index:0 add
            and o1 = Ircore.operand ~index:1 add in
            let m_v = Ircore.result mul in
            (o0 == m_v && o1 == c_v) || (o0 == c_v && o1 == m_v)
          in
          let store_ok =
            Ircore.operand ~index:0 store == Ircore.result add
            && (match List.filteri (fun i _ -> i >= 2) (Ircore.operands store) with
               | [ x; y ] -> x == ivi && y == ivj
               | _ -> false)
            && Ircore.operand ~index:1 store == Ircore.operand ~index:0 lc
          in
          if mul_ok && add_ok && store_ok then
            Ok
              {
                mm_i = li;
                mm_j = lj;
                mm_k = lk;
                mm_a = Ircore.operand ~index:0 la;
                mm_b = Ircore.operand ~index:0 lb;
                mm_c = Ircore.operand ~index:0 lc;
                mm_m = trip_i;
                mm_n = trip_j;
                mm_k_size = trip_k;
              }
          else err "loop body is not a matmul accumulation")
        | _ -> err "loads do not form the A[i,k]/B[k,j]/C[i,j] pattern")
      | _ -> err "innermost body is not a 6-op matmul kernel")
    | _ -> err "matmul nest requires constant unit-step bounds")
  | nest -> err "expected a 3-deep perfect nest, found depth %d" (List.length nest)

(** Replace a matched matmul nest by a call to the [libxsmm_gemm] microkernel
    on subviews of A, B, C. Fails (payload unchanged) when the library does
    not support the block sizes — the [alternatives]-compatible behaviour of
    Case Study 4. *)
let replace_with_library_call rw ctx loop ~library =
  ignore ctx;
  if library <> "libxsmm" then err "unknown microkernel library %S" library
  else
    let* mm = match_matmul loop in
    (* interp's model supports limited block shapes, mirrored here *)
    if not (mm.mm_m <= 64 && mm.mm_n <= 64 && mm.mm_n mod 4 = 0 && mm.mm_k_size <= 256)
    then
      err "libxsmm has no kernel for %dx%dx%d" mm.mm_m mm.mm_n mm.mm_k_size
    else begin
      Rewriter.set_ip rw (Builder.Before loop);
      let lb_i = Scf.lower_bound mm.mm_i in
      let lb_j = Scf.lower_bound mm.mm_j in
      let lb_k = Scf.lower_bound mm.mm_k in
      let sub m ~row_off ~col_off ~rows ~cols =
        Memref.subview rw m
          ~offsets:[ Memref.Dynamic row_off; Memref.Dynamic col_off ]
          ~sizes:[ Memref.Static rows; Memref.Static cols ]
          ~strides:[ Memref.Static 1; Memref.Static 1 ]
      in
      let sub_a = sub mm.mm_a ~row_off:lb_i ~col_off:lb_k ~rows:mm.mm_m ~cols:mm.mm_k_size in
      let sub_b = sub mm.mm_b ~row_off:lb_k ~col_off:lb_j ~rows:mm.mm_k_size ~cols:mm.mm_n in
      let sub_c = sub mm.mm_c ~row_off:lb_i ~col_off:lb_j ~rows:mm.mm_m ~cols:mm.mm_n in
      let call =
        Func.call rw ~callee:"libxsmm_gemm"
          ~operands:[ sub_a; sub_b; sub_c ]
          ~result_types:[]
      in
      Rewriter.erase_op rw loop;
      Ok call
    end

let replace_with_library_call rw ctx loop ~library =
  let loc = loop.Ircore.op_loc in
  remarked ~pass:"loop-to-library" ~loc
    ~args:[ ("library", Remark.String library) ]
    ~applied:"replaced matmul nest with a microkernel library call"
    (replace_with_library_call rw ctx loop ~library)
