(** The Enzyme-style StableHLO peephole pattern set of Case Study 3:
    work-reducing and enabling rewrites registered individually so that
    [transform.apply_patterns] can enable any subset — the mechanism that
    makes the paper's binary search over patterns a 4-second edit of the
    Transform script instead of a 3-minute compiler rebuild.

    One pattern, [shlo.fold_reshape_transpose_into_reduce], strictly reduces
    work yet is globally counterproductive under the downstream fusion
    model — the culprit the case study hunts down. *)

open Ir

let def v = Ircore.defining_op v
let operand = Ircore.operand
let result = Ircore.result

let is_zero_const v =
  match def v with Some op -> Shlo.is_zero_constant op | None -> false

let is_one_const v =
  match def v with
  | Some op when op.Ircore.op_name = Shlo.constant_op -> (
    match Ircore.attr op "value" with
    | Some (Attr.Float (1.0, _)) | Some (Attr.Int (1, _)) -> true
    | Some (Attr.Dense_float (xs, _)) -> List.for_all (fun x -> x = 1.0) xs
    | _ -> false)
  | _ -> false

let replace_with rw op v = Rewriter.replace_op rw op ~with_:[ v ]

let same_typ a b = Typ.equal (Ircore.value_typ a) (Ircore.value_typ b)

(* identity permutation *)
let is_identity_perm p = List.for_all2 ( = ) p (List.init (List.length p) Fun.id)

let compose_perms p1 p2 =
  (* result of applying p1 then p2 *)
  List.map (fun i -> List.nth p1 i) p2

(** All pattern names in this set (stable order for binary search). *)
let all_names = ref []

let reg name ?root rewrite =
  all_names := !all_names @ [ "shlo." ^ name ];
  Pattern.register_make ~name:("shlo." ^ name) ?root rewrite

let () =
  (* 1. pad by zero with zero extents is the identity *)
  reg "fold_zero_pad" ~root:Shlo.pad_op (fun rw op ->
      let zero_extents =
        match
          (Ircore.attr op "edge_padding_low", Ircore.attr op "edge_padding_high")
        with
        | Some (Attr.Int_array lo), Some (Attr.Int_array hi) ->
          List.for_all (fun x -> x = 0) lo && List.for_all (fun x -> x = 0) hi
        | _ -> false
      in
      if zero_extents && is_zero_const (operand ~index:1 op) then begin
        replace_with rw op (operand ~index:0 op);
        true
      end
      else false);
  (* 2. add of a zero-padded value: fold the zero padding away *)
  reg "add_of_zero_pad" ~root:Shlo.add_op (fun rw op ->
      let try_side i =
        match def (operand ~index:i op) with
        | Some pad
          when pad.Ircore.op_name = Shlo.pad_op
               && is_zero_const (operand ~index:1 pad)
               && same_typ (result pad) (operand ~index:0 pad) ->
          Ircore.set_operand op i (operand ~index:0 pad);
          true
        | _ -> false
      in
      let changed = try_side 0 || try_side 1 in
      if changed then
        Rewriter.modify_in_place rw op (fun () -> ());
      changed);
  (* 3. matmul of transpose: fold into a transposed-operand matmul *)
  reg "matmul_of_transpose" ~root:Shlo.dot_general_op (fun rw op ->
      if Ircore.has_attr op "rhs_transposed" then false
      else
        match def (operand ~index:1 op) with
        | Some tr when tr.Ircore.op_name = Shlo.transpose_op ->
          Rewriter.modify_in_place rw op (fun () ->
              Ircore.set_operand op 1 (operand ~index:0 tr);
              Ircore.set_attr op "rhs_transposed" (Attr.Bool true));
          true
        | _ -> false);
  (* 4. negate of transpose -> transpose of negate (enabling) *)
  reg "negate_of_transpose" ~root:Shlo.negate_op (fun rw op ->
      match def (operand op) with
      | Some tr
        when tr.Ircore.op_name = Shlo.transpose_op
             && Ircore.has_one_use (result tr) ->
        Rewriter.set_ip rw (Builder.Before op);
        let x = operand ~index:0 tr in
        let neg =
          Rewriter.build1 rw ~operands:[| x |]
            ~result_types:[| Ircore.value_typ x |]
            Shlo.negate_op
        in
        let perm =
          match Shlo.permutation_of tr with Some p -> p | None -> []
        in
        let new_tr =
          Rewriter.build1 rw ~operands:[| neg |]
            ~result_types:[| Ircore.value_typ (result op) |]
            ~attrs:[ ("permutation", Attr.Int_array perm) ]
            Shlo.transpose_op
        in
        replace_with rw op new_tr;
        true
      | _ -> false);
  (* 5. transpose of transpose: compose permutations *)
  reg "transpose_of_transpose" ~root:Shlo.transpose_op (fun rw op ->
      match def (operand op) with
      | Some inner when inner.Ircore.op_name = Shlo.transpose_op -> (
        match (Shlo.permutation_of inner, Shlo.permutation_of op) with
        | Some p1, Some p2 ->
          let p = compose_perms p1 p2 in
          if is_identity_perm p then replace_with rw op (operand ~index:0 inner)
          else begin
            Rewriter.set_ip rw (Builder.Before op);
            let t =
              Rewriter.build1 rw
                ~operands:[| operand ~index:0 inner |]
                ~result_types:[| Ircore.value_typ (result op) |]
                ~attrs:[ ("permutation", Attr.Int_array p) ]
                Shlo.transpose_op
            in
            replace_with rw op t
          end;
          true
        | _ -> false)
      | _ -> false);
  (* 6. reshape of reshape *)
  reg "reshape_of_reshape" ~root:Shlo.reshape_op (fun rw op ->
      match def (operand op) with
      | Some inner when inner.Ircore.op_name = Shlo.reshape_op ->
        Rewriter.modify_in_place rw op (fun () ->
            Ircore.set_operand op 0 (operand ~index:0 inner));
        true
      | _ -> false);
  (* 7. THE CULPRIT: fold reshape/transpose into a full reduction. Strictly
     work-reducing (full additive reduction is layout-independent under
     fast-math), but defeats the fusion back-end's locality heuristic. *)
  reg "fold_reshape_transpose_into_reduce" ~root:Shlo.reduce_op (fun rw op ->
      let full_reduction =
        (* reduces all dimensions of its input *)
        match
          (Ircore.attr op "dimensions",
           Typ.rank (Ircore.value_typ (operand ~index:0 op)))
        with
        | Some (Attr.Int_array dims), Some r -> List.length dims = r
        | _ -> false
      in
      if not full_reduction then false
      else
        match def (operand ~index:0 op) with
        | Some shape_op
          when shape_op.Ircore.op_name = Shlo.transpose_op
               || shape_op.Ircore.op_name = Shlo.reshape_op ->
          let src = operand ~index:0 shape_op in
          Rewriter.modify_in_place rw op (fun () ->
              Ircore.set_operand op 0 src;
              (match Typ.rank (Ircore.value_typ src) with
              | Some r ->
                Ircore.set_attr op "dimensions"
                  (Attr.Int_array (List.init r Fun.id))
              | None -> ()));
          true
        | _ -> false);
  (* 8-12: algebraic simplifications *)
  reg "add_zero" ~root:Shlo.add_op (fun rw op ->
      if is_zero_const (operand ~index:1 op) then begin
        replace_with rw op (operand ~index:0 op);
        true
      end
      else if is_zero_const (operand ~index:0 op) then begin
        replace_with rw op (operand ~index:1 op);
        true
      end
      else false);
  reg "mul_one" ~root:Shlo.multiply_op (fun rw op ->
      if is_one_const (operand ~index:1 op) then begin
        replace_with rw op (operand ~index:0 op);
        true
      end
      else if is_one_const (operand ~index:0 op) then begin
        replace_with rw op (operand ~index:1 op);
        true
      end
      else false);
  reg "mul_zero" ~root:Shlo.multiply_op (fun rw op ->
      let zero_side =
        if is_zero_const (operand ~index:0 op) then Some (operand ~index:0 op)
        else if is_zero_const (operand ~index:1 op) then
          Some (operand ~index:1 op)
        else None
      in
      match zero_side with
      | Some z when same_typ z (result op) ->
        replace_with rw op z;
        true
      | _ -> false);
  reg "div_one" ~root:Shlo.divide_op (fun rw op ->
      if is_one_const (operand ~index:1 op) then begin
        replace_with rw op (operand ~index:0 op);
        true
      end
      else false);
  reg "sub_self" ~root:Shlo.subtract_op (fun rw op ->
      if operand ~index:0 op == operand ~index:1 op then begin
        Rewriter.set_ip rw (Builder.Before op);
        let z =
          Rewriter.build1 rw ~operands:[||]
            ~result_types:[| Ircore.value_typ (result op) |]
            ~attrs:[ ("value", Attr.Float (0.0, Typ.f32)) ]
            Shlo.constant_op
        in
        replace_with rw op z;
        true
      end
      else false);
  (* 13. negate of negate *)
  reg "negate_negate" ~root:Shlo.negate_op (fun rw op ->
      match def (operand op) with
      | Some inner when inner.Ircore.op_name = Shlo.negate_op ->
        replace_with rw op (operand ~index:0 inner);
        true
      | _ -> false);
  (* 14. broadcast of broadcast *)
  reg "broadcast_of_broadcast" ~root:Shlo.broadcast_op (fun rw op ->
      match def (operand op) with
      | Some inner when inner.Ircore.op_name = Shlo.broadcast_op ->
        Rewriter.modify_in_place rw op (fun () ->
            Ircore.set_operand op 0 (operand ~index:0 inner));
        true
      | _ -> false);
  (* 15. reshape to the same type *)
  reg "reshape_noop" ~root:Shlo.reshape_op (fun rw op ->
      if same_typ (operand op) (result op) then begin
        replace_with rw op (operand op);
        true
      end
      else false);
  (* 16. identity transpose *)
  reg "transpose_identity" ~root:Shlo.transpose_op (fun rw op ->
      match Shlo.permutation_of op with
      | Some p when is_identity_perm p ->
        replace_with rw op (operand op);
        true
      | _ -> false);
  (* 17. concat of a single operand *)
  reg "concat_single" ~root:Shlo.concatenate_op (fun rw op ->
      if Ircore.num_operands op = 1 && same_typ (operand op) (result op) then begin
        replace_with rw op (operand op);
        true
      end
      else false);
  (* 18. slice covering the whole tensor *)
  reg "slice_full" ~root:Shlo.slice_op (fun rw op ->
      if same_typ (operand op) (result op) then begin
        replace_with rw op (operand op);
        true
      end
      else false);
  (* 19. convert to the same type *)
  reg "convert_noop" ~root:Shlo.convert_op (fun rw op ->
      if same_typ (operand op) (result op) then begin
        replace_with rw op (operand op);
        true
      end
      else false);
  (* 20. select with identical branches *)
  reg "select_same" ~root:Shlo.select_op (fun rw op ->
      if operand ~index:1 op == operand ~index:2 op then begin
        replace_with rw op (operand ~index:1 op);
        true
      end
      else false)

(** All registered pattern names of this set, in stable order. *)
let names () = !all_names

let culprit = "shlo.fold_reshape_transpose_into_reduce"
