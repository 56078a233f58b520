(** Structured transformations on linalg named ops — the Linalg-level
    counterpart of {!Loop_utils} (the paper's Section 2.1: tiling and fusion
    of *structured operations* were the original drivers of the Transform
    dialect).

    Tiling a [linalg.matmul] produces an scf loop nest over tiles whose body
    applies the same [linalg.matmul] to [memref.subview]s of the operands —
    so further structured transforms (e.g. microkernel replacement) compose
    on the inner op, exactly like MLIR's [transform.structured.tile]. *)

open Ir
open Dialects

let ( let* ) = Result.bind

let err fmt = Fmt.kstr (fun m -> Error m) fmt

let is_matmul op = op.Ircore.op_name = Linalg.matmul_op

(** Static (m, n, k) of a memref-semantics [linalg.matmul]. *)
let matmul_dims op =
  if not (is_matmul op) then err "expected linalg.matmul, got %s" op.Ircore.op_name
  else
    match (Linalg.inputs op, Linalg.outputs op) with
    | [ a; b ], [ c ] -> (
      let dims v =
        match Ircore.value_typ v with
        | Typ.Memref (dims, _, _) ->
          let rec go acc = function
            | [] -> Some (List.rev acc)
            | Typ.Static n :: rest -> go (n :: acc) rest
            | Typ.Dynamic :: _ -> None
          in
          go [] dims
        | _ -> None
      in
      match (dims a, dims b, dims c) with
      | Some [ m; k ], Some [ k'; n ], Some [ m'; n' ]
        when k = k' && m = m' && n = n' ->
        Ok (a, b, c, m, n, k)
      | _ -> err "linalg.matmul operands must be static 2-D memrefs")
    | _ -> err "linalg.matmul must have two inputs and one output"

(** Tile a memref [linalg.matmul] with sizes [(ti, tj, tk)] (0 = do not tile
    that dimension). Tile sizes must divide their dimensions. Returns
    [(loops outermost-first, inner matmul)]. *)
let tile_matmul_impl rw op ~sizes =
  let* a, b, c, m, n, k = matmul_dims op in
  let ti, tj, tk =
    match sizes with
    | [ ti; tj; tk ] -> (ti, tj, tk)
    | _ -> (0, 0, 0)
  in
  let* () =
    if List.length sizes <> 3 then err "structured tile of matmul needs 3 sizes"
    else Ok ()
  in
  let* () =
    if List.exists (fun s -> s < 0) sizes then err "tile sizes must be >= 0"
    else Ok ()
  in
  let check_div name size dim =
    if size > 0 && dim mod size <> 0 then
      err "tile size %d does not divide %s=%d" size name dim
    else Ok ()
  in
  let* () = check_div "m" ti m in
  let* () = check_div "n" tj n in
  let* () = check_div "k" tk k in
  if ti = 0 && tj = 0 && tk = 0 then
    (* no tiling requested: the "inner" op is the op itself *)
    Ok ([], op)
  else begin
    Rewriter.set_ip rw (Builder.Before op);
    let zero = Dutil.const_int rw 0 in
    let loops = ref [] in
    let inner = ref None in
    (* dims to tile, outermost-first: i, j, k *)
    let plan =
      List.filter_map
        (fun (size, extent, tag) ->
          if size > 0 then Some (size, extent, tag) else None)
        [ (ti, m, `I); (tj, n, `J); (tk, k, `K) ]
    in
    let rec build offs rw_cur = function
      | [] ->
        (* offsets for each dim: tiled dims use their iv, untiled use 0 *)
        let off tag = Option.value ~default:zero (List.assoc_opt tag offs) in
        let size _tag full tile = if tile > 0 then tile else full in
        let sub m' ~ro ~co ~rows ~cols =
          Memref.subview rw_cur m'
            ~offsets:[ Memref.Dynamic ro; Memref.Dynamic co ]
            ~sizes:[ Memref.Static rows; Memref.Static cols ]
            ~strides:[ Memref.Static 1; Memref.Static 1 ]
        in
        let sub_a =
          sub a ~ro:(off `I) ~co:(off `K) ~rows:(size `I m ti)
            ~cols:(size `K k tk)
        in
        let sub_b =
          sub b ~ro:(off `K) ~co:(off `J) ~rows:(size `K k tk)
            ~cols:(size `J n tj)
        in
        let sub_c =
          sub c ~ro:(off `I) ~co:(off `J) ~rows:(size `I m ti)
            ~cols:(size `J n tj)
        in
        inner := Some (Linalg.matmul rw_cur ~a:sub_a ~b:sub_b ~c:sub_c);
        []
      | (size, extent, tag) :: rest ->
        let ub = Dutil.const_int rw_cur extent in
        let step = Dutil.const_int rw_cur size in
        let l =
          Scf.build_for rw_cur ~lb:zero ~ub ~step (fun brw iv _ ->
              build ((tag, iv) :: offs) brw rest)
        in
        loops := l :: !loops;
        []
    in
    ignore (build [] rw plan);
    Rewriter.erase_op rw op;
    match !inner with
    | Some inner -> Ok (List.rev !loops, inner)
    | None -> err "internal: tiling produced no inner op"
  end

let tile_matmul rw op ~sizes =
  let loc = op.Ircore.op_loc in
  Loop_utils.remarked ~pass:"structured-tile" ~loc
    ~args:[ ("tile_sizes", Loop_utils.int_list_arg sizes) ]
    ~applied:"tiled linalg.matmul into an scf loop nest over subviews"
    (tile_matmul_impl rw op ~sizes)

let matmul_to_library_impl rw op ~library =
  if library <> "libxsmm" then err "unknown microkernel library %S" library
  else
    let* a, b, c, m, n, k = matmul_dims op in
    if not (m <= 64 && n <= 64 && n mod 4 = 0 && k <= 256) then
      err "libxsmm has no kernel for %dx%dx%d" m n k
    else begin
      Rewriter.set_ip rw (Builder.Before op);
      let call =
        Func.call rw ~callee:"libxsmm_gemm" ~operands:[ a; b; c ]
          ~result_types:[]
      in
      Rewriter.replace_op rw op ~with_:[];
      Ok call
    end

(** Replace a [linalg.matmul] (on static memrefs within the microkernel's
    supported sizes) by a [libxsmm_gemm] call — the structured-op variant of
    {!Loop_utils.replace_with_library_call}. *)
let matmul_to_library rw op ~library =
  let loc = op.Ircore.op_loc in
  Loop_utils.remarked ~pass:"structured-to-library" ~loc
    ~args:[ ("library", Remark.String library) ]
    ~applied:"replaced linalg.matmul with a microkernel library call"
    (matmul_to_library_impl rw op ~library)

(** Lower one [linalg.matmul] to loops (a scoped variant of the
    convert-linalg-to-loops pass). *)
let matmul_to_loops rw op =
  let loc = op.Ircore.op_loc in
  Loop_utils.remarked ~pass:"structured-to-loops" ~loc
    ~applied:"lowered linalg.matmul to an scf loop nest"
    (let* _ = matmul_dims op in
     Result.map_error Fun.id (Linalg_to_loops.lower_matmul rw op))
