(** Dense linear algebra for the Gaussian-process surrogate: symmetric
    positive-definite solves via Cholesky factorization. *)

type mat = float array array

let make n m v : mat = Array.make_matrix n m v

(** Cholesky factorization A = L L^T (lower triangular). [A] must be SPD;
    a small jitter is added to the diagonal for numerical stability.
    Returns L, or [None] if the matrix is not positive definite. *)
let cholesky (a : mat) : mat option =
  let jitter = 1e-9 in
  let n = Array.length a in
  let l = make n n 0.0 in
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       for j = 0 to i do
         let sum = ref a.(i).(j) in
         if i = j then sum := !sum +. jitter;
         for k = 0 to j - 1 do
           sum := !sum -. (l.(i).(k) *. l.(j).(k))
         done;
         if i = j then begin
           if !sum <= 0.0 then begin
             ok := false;
             raise Exit
           end;
           l.(i).(j) <- sqrt !sum
         end
         else l.(i).(j) <- !sum /. l.(j).(j)
       done
     done
   with Exit -> ());
  if !ok then Some l else None

(** Solve L y = b (forward substitution). *)
let solve_lower (l : mat) (b : float array) =
  let n = Array.length b in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let sum = ref b.(i) in
    for k = 0 to i - 1 do
      sum := !sum -. (l.(i).(k) *. y.(k))
    done;
    y.(i) <- !sum /. l.(i).(i)
  done;
  y

(** Solve L^T x = y (backward substitution). *)
let solve_upper_t (l : mat) (y : float array) =
  let n = Array.length y in
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let sum = ref y.(i) in
    for k = i + 1 to n - 1 do
      sum := !sum -. (l.(k).(i) *. x.(k))
    done;
    x.(i) <- !sum /. l.(i).(i)
  done;
  x

(** Solve A x = b given the Cholesky factor L of A. *)
let cholesky_solve l b = solve_upper_t l (solve_lower l b)

let dot a b =
  let s = ref 0.0 in
  Array.iteri (fun i x -> s := !s +. (x *. b.(i))) a;
  !s

let sq_dist a b =
  let s = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      s := !s +. (d *. d))
    a;
  !s
