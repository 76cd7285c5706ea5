(* Laplace / Gaussian mechanisms, exponential mechanism, report-noisy-max,
   and the Dp parameter arithmetic. *)

open Testutil

(* --- Dp --- *)

let test_dp_validation () =
  Alcotest.check_raises "eps 0 rejected" (Invalid_argument "Dp.v: eps must be positive")
    (fun () -> ignore (Prim.Dp.v ~eps:0. ~delta:0.1));
  Alcotest.check_raises "delta 1 rejected" (Invalid_argument "Dp.v: delta must be in [0, 1)")
    (fun () -> ignore (Prim.Dp.v ~eps:1. ~delta:1.));
  let p = Prim.Dp.v ~eps:2. ~delta:1e-6 in
  check_float "eps" 2. (Prim.Dp.eps p);
  check_float "delta" 1e-6 (Prim.Dp.delta p);
  check_true "pure" (Prim.Dp.For_testing.is_pure (Prim.Dp.pure ~eps:1.));
  check_true "not pure" (not (Prim.Dp.For_testing.is_pure p))

let test_dp_split_scale () =
  let p = Prim.Dp.v ~eps:2. ~delta:1e-6 in
  let s = Prim.Dp.For_testing.split p 4 in
  check_float "split eps" 0.5 (Prim.Dp.eps s);
  check_float "split delta" 2.5e-7 (Prim.Dp.delta s);
  let d = Prim.Dp.For_testing.scale p 3. in
  check_float "scale eps" 6. (Prim.Dp.eps d);
  check_true "to_string mentions eps" (String.length (Prim.Dp.to_string p) > 0)

(* --- Laplace mechanism --- *)

let test_laplace_count_unbiased () =
  let r = rng () in
  let samples = Array.init 20_000 (fun _ -> Prim.Laplace.count r ~eps:1.0 42) in
  let mean, var = stats samples in
  check_float ~tol:0.1 "count unbiased" 42. mean;
  check_float ~tol:0.3 "count variance = 2/eps^2" 2.0 var

let test_laplace_scale_with_sensitivity () =
  let r = rng () in
  let samples =
    Array.init 20_000 (fun _ -> Prim.Laplace.scalar r ~eps:0.5 ~sensitivity:3.0 0.)
  in
  let _, var = stats samples in
  (* scale = 3/0.5 = 6; var = 2*36 = 72. *)
  check_float ~tol:4.0 "variance scales" 72.0 var

let test_laplace_tail_bound () =
  let r = rng () in
  let eps = 1.0 and beta = 0.05 in
  let bound = Prim.Laplace.tail_bound ~eps ~sensitivity:1.0 ~beta in
  check_float "tail formula" (log (1. /. beta)) bound;
  let exceed = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Float.abs (Prim.Laplace.noise r ~eps ~sensitivity:1.0) > bound then incr exceed
  done;
  (* P(|Lap(1)| > ln(1/beta)) = beta. *)
  check_float ~tol:0.01 "tail rate" beta (float_of_int !exceed /. float_of_int n)

let test_laplace_validation () =
  let r = rng () in
  Alcotest.check_raises "eps>0" (Invalid_argument "Laplace.noise: eps must be positive")
    (fun () -> ignore (Prim.Laplace.noise r ~eps:0. ~sensitivity:1.))

(* --- Gaussian mechanism --- *)

let test_gaussian_sigma_formula () =
  let sigma = Prim.Gaussian_mech.sigma ~eps:0.5 ~delta:1e-5 ~l2_sensitivity:2.0 in
  check_float ~tol:1e-9 "sigma formula" (2.0 /. 0.5 *. sqrt (2. *. log (1.25 /. 1e-5))) sigma

let test_gaussian_vector_noise_level () =
  let r = rng () in
  let dim = 20_000 in
  let v = Prim.Gaussian_mech.vector r ~eps:0.5 ~delta:1e-5 ~l2_sensitivity:1.0 (Array.make dim 0.) in
  let _, var = stats v in
  let sigma = Prim.Gaussian_mech.sigma ~eps:0.5 ~delta:1e-5 ~l2_sensitivity:1.0 in
  check_float ~tol:(0.05 *. sigma *. sigma) "empirical variance" (sigma *. sigma) var

let test_gaussian_coordinate_tail () =
  let r = rng () in
  let sigma = 1.0 and dim = 50 in
  let bound = Prim.Gaussian_mech.coordinate_tail_bound ~sigma ~dim ~beta:0.1 in
  let violations = ref 0 in
  for _ = 1 to 200 do
    let v = Prim.Gaussian_mech.vector_with_sigma r ~sigma (Array.make dim 0.) in
    if Array.exists (fun x -> Float.abs x > bound) v then incr violations
  done;
  check_true "max-coordinate bound holds at rate >= 1-beta" (!violations <= 40)

let test_gaussian_validation () =
  Alcotest.check_raises "eps>0 required"
    (Invalid_argument "Gaussian_mech.sigma: eps must be positive") (fun () ->
      ignore (Prim.Gaussian_mech.sigma ~eps:0. ~delta:1e-5 ~l2_sensitivity:1.0));
  (* eps >= 1 is clamped: same sigma as eps just below 1. *)
  Testutil.check_float ~tol:1e-6 "clamp at 1"
    (Prim.Gaussian_mech.sigma ~eps:0.999999999 ~delta:1e-5 ~l2_sensitivity:1.0)
    (Prim.Gaussian_mech.sigma ~eps:5.0 ~delta:1e-5 ~l2_sensitivity:1.0)

(* --- Exponential mechanism --- *)

let test_exp_mech_prefers_best () =
  let r = rng () in
  let qualities = [| 0.; 0.; 10.; 0. |] in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Prim.Exp_mech.select r ~eps:2.0 ~sensitivity:1.0 ~qualities = 2 then incr hits
  done;
  (* Gap 10 at eps 2: P(best) >= 1 - 3·e^{-10} ~ 1. *)
  check_true "best candidate dominates" (!hits > 980)

let test_exp_mech_distribution () =
  let r = rng () in
  (* Two candidates with gap g: odds = exp(eps·g/2). *)
  let qualities = [| 0.; 1. |] in
  let eps = 2.0 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prim.Exp_mech.select r ~eps ~sensitivity:1.0 ~qualities = 1 then incr hits
  done;
  let expected = exp 1. /. (1. +. exp 1.) in
  check_float ~tol:0.01 "sampling distribution" expected (float_of_int !hits /. float_of_int n)

let test_exp_mech_huge_scores_no_overflow () =
  let r = rng () in
  let qualities = [| 1e9; 1e9 +. 1.; -1e9 |] in
  let i = Prim.Exp_mech.select r ~eps:1.0 ~sensitivity:1.0 ~qualities in
  check_true "selection valid" (i = 0 || i = 1)

let test_exp_mech_error_bound () =
  let b = Prim.Exp_mech.error_bound ~eps:1.0 ~sensitivity:1.0 ~n_candidates:100 ~beta:0.1 in
  check_float ~tol:1e-9 "error bound formula" (2. *. log 1000.) b

(* --- Report noisy max --- *)

let test_noisy_max () =
  let r = rng () in
  let scores = [| 1.; 2.; 50.; 3. |] in
  let hits = ref 0 in
  for _ = 1 to 500 do
    if Prim.Noisy_max.argmax r ~eps:1.0 ~sensitivity:1.0 scores = 2 then incr hits
  done;
  check_true "argmax dominates" (!hits > 490);
  let i, v = Prim.Noisy_max.For_testing.argmax_value r ~eps:1.0 ~sensitivity:1.0 scores in
  check_true "value near score" (i <> 2 || Float.abs (v -. 50.) < 40.)

let suite =
  [
    case "dp validation" test_dp_validation;
    case "dp split and scale" test_dp_split_scale;
    case "laplace count unbiased" test_laplace_count_unbiased;
    case "laplace sensitivity scaling" test_laplace_scale_with_sensitivity;
    case "laplace tail bound is tight" test_laplace_tail_bound;
    case "laplace validation" test_laplace_validation;
    case "gaussian sigma formula" test_gaussian_sigma_formula;
    case "gaussian empirical noise level" test_gaussian_vector_noise_level;
    case "gaussian coordinate tail" test_gaussian_coordinate_tail;
    case "gaussian validation" test_gaussian_validation;
    case "exp mech prefers best" test_exp_mech_prefers_best;
    case "exp mech exact two-candidate law" test_exp_mech_distribution;
    case "exp mech huge scores" test_exp_mech_huge_scores_no_overflow;
    case "exp mech error bound" test_exp_mech_error_bound;
    case "report noisy max" test_noisy_max;
  ]
