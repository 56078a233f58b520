(** Experiment E6 (Case Study 5, Figures 9-11): autotuning the tile sizes
    (and vectorization) of a batch-matmul Transform script with a BaCO-like
    Bayesian optimizer.

    Search space (Figure 10): tile_i/tile_k/tile_j must divide their
    dimensions; vectorization is enabled only when the innermost trip count
    (tile_j) is divisible by the machine vector width. *)


let m = 128
let n = 128
let k = 128
let vector_width = 8

(** A configuration evaluated by the tuner. *)
type config = { ti : int; tk : int; tj : int; vectorize : bool }

let config_of_point pt =
  {
    ti = Autotune.Space.get pt "tile_i";
    tk = Autotune.Space.get pt "tile_k";
    tj = Autotune.Space.get pt "tile_j";
    vectorize = Autotune.Space.get pt "vectorize" = 1;
  }

(** Figure 10: the tuning parameters and constraints. *)
let space () =
  let divs d = List.filter (fun x -> x >= 2) (Autotune.Space.divisors d) in
  Autotune.Space.make
    ~constraints:
      [
        ( "vectorize_requires_divisible_tile_j",
          fun pt ->
            Autotune.Space.get pt "vectorize" = 0
            || Autotune.Space.get pt "tile_j" mod vector_width = 0 );
      ]
    [
      Autotune.Space.param "tile_i" (divs m);
      Autotune.Space.param "tile_k" (divs k);
      Autotune.Space.param "tile_j" (divs n);
      Autotune.Space.param "vectorize" [ 0; 1 ];
    ]

(** The parametric Transform script of Figure 9: tile the (i,k,j) nest with
    parameter-provided sizes, then optionally vectorize the innermost point
    loop. *)
let script_for cfg =
  Transform.Build.script (fun rw root ->
      let loop = Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root in
      let p_ti = Transform.Build.param_constant rw cfg.ti in
      let p_tk = Transform.Build.param_constant rw cfg.tk in
      let p_tj = Transform.Build.param_constant rw cfg.tj in
      let _tiles, points =
        Transform.Build.loop_tile rw ~size_params:[ p_ti; p_tk; p_tj ]
          ~sizes:[] loop
      in
      if cfg.vectorize then begin
        (* innermost point loop: j *)
        let inner2 = Transform.Build.match_op rw ~select:"second" ~name:"scf.for" points in
        ignore (Transform.Build.loop_vectorize rw ~width:vector_width inner2)
      end)

(** Simulated runtime of the kernel under configuration [cfg]. *)
let evaluate ctx cfg =
  let md = Workloads.Matmul.build_module ~order:Workloads.Matmul.Ikj ~m ~n ~k () in
  match Transform.Schedule.run ctx ~script:(script_for cfg) ~payload:md with
  | Error e ->
    failwith (Fmt.str "cs5 transform failed (%d/%d/%d/%b): %s" cfg.ti cfg.tk
                cfg.tj cfg.vectorize
                (Transform.Terror.to_string e))
  | Ok _ -> (
    match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k md with
    | Error e -> failwith e
    | Ok (_, _, _, _, report) -> report.Interp.Machine.r_seconds)

type outcome = {
  default_seconds : float;  (** untransformed kernel *)
  result : Autotune.Search.result;
  random_result : Autotune.Search.result;
  speedup : float;
  bayes_evals_to_95 : int;  (** evaluations to reach 95% of the best found *)
  random_evals_to_95 : int;
}

(** Iteration at which best-so-far first comes within 5% of
    [target] (a search-efficiency measure for Figure 11). *)
let evals_to_within target (r : Autotune.Search.result) =
  let rec go = function
    | [] -> r.Autotune.Search.history |> List.length
    | e :: rest ->
      if e.Autotune.Search.e_best_so_far <= target *. 1.05 then
        e.Autotune.Search.e_iteration
      else go rest
  in
  go r.Autotune.Search.history

let run ?(budget = 24) ctx =
  let default_seconds =
    let md = Workloads.Matmul.build_module ~order:Workloads.Matmul.Ikj ~m ~n ~k () in
    match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k md with
    | Ok (_, _, _, _, report) -> report.Interp.Machine.r_seconds
    | Error e -> failwith e
  in
  let space = space () in
  let objective pt = evaluate ctx (config_of_point pt) in
  let result = Autotune.Search.bayesian ~seed:3 ~budget space objective in
  let random_result = Autotune.Search.random_search ~seed:3 ~budget space objective in
  let best =
    Float.min result.Autotune.Search.best_objective
      random_result.Autotune.Search.best_objective
  in
  {
    default_seconds;
    result;
    random_result;
    speedup = default_seconds /. result.Autotune.Search.best_objective;
    bayes_evals_to_95 = evals_to_within best result;
    random_evals_to_95 = evals_to_within best random_result;
  }

let pp_outcome fmt o =
  Fmt.pf fmt "default (untiled) kernel:  %.5f s (simulated)@." o.default_seconds;
  Fmt.pf fmt "best found (bayesian):     %.5f s with %a@."
    o.result.Autotune.Search.best_objective Autotune.Space.pp_point
    o.result.Autotune.Search.best_point;
  Fmt.pf fmt "best found (random):       %.5f s@."
    o.random_result.Autotune.Search.best_objective;
  Fmt.pf fmt "evals to 95%% of best:      bayesian %d, random %d@."
    o.bayes_evals_to_95 o.random_evals_to_95;
  Fmt.pf fmt "speedup vs default:        %.2fx (paper reaches 1.68x)@." o.speedup;
  Fmt.pf fmt "performance evolution (best-so-far speedup per iteration):@.";
  List.iteri
    (fun i best ->
      if i mod 2 = 0 then
        Fmt.pf fmt "  iter %2d: %.2fx %s@." (i + 1)
          (o.default_seconds /. best)
          (String.make
             (int_of_float (Float.round (o.default_seconds /. best *. 20.)))
             '#'))
    (Autotune.Search.best_curve o.result)
