(* zCDP accounting. *)

open Testutil

let test_gaussian_rho () =
  check_float ~tol:1e-12 "rho = D^2/2s^2" 0.5 (Prim.Zcdp.For_testing.of_gaussian ~sigma:1.0 ~l2_sensitivity:1.0);
  check_float ~tol:1e-12 "scales" 0.125 (Prim.Zcdp.For_testing.of_gaussian ~sigma:2.0 ~l2_sensitivity:1.0)

let test_pure_dp_rho () =
  check_float ~tol:1e-12 "eps^2/2" 0.5 (Prim.Zcdp.of_pure_dp ~eps:1.0);
  check_float ~tol:1e-12 "quarter" 0.125 (Prim.Zcdp.of_pure_dp ~eps:0.5)

let test_compose_additive () =
  check_float ~tol:1e-12 "sum" 0.6 (Prim.Zcdp.compose [ 0.1; 0.2; 0.3 ]);
  check_float "empty" 0. (Prim.Zcdp.compose [])

let test_to_dp_formula () =
  let rho = 0.1 and delta = 1e-6 in
  let p = Prim.Zcdp.to_dp rho ~delta in
  check_float ~tol:1e-9 "conversion"
    (rho +. (2. *. sqrt (rho *. log (1. /. delta))))
    (Prim.Dp.eps p);
  check_float "delta kept" delta (Prim.Dp.delta p)

let test_budget_inversion () =
  let eps = 1.0 and delta = 1e-6 in
  let rho = Prim.Zcdp.For_testing.eps_budget_to_rho ~eps ~delta in
  let back = Prim.Zcdp.to_dp rho ~delta in
  check_true "stays within budget" (Prim.Dp.eps back <= eps +. 1e-6);
  check_true "not wastefully small" (Prim.Dp.eps back >= 0.99 *. eps)

let test_sigma_inversion () =
  let rho = 0.05 in
  let sigma = Prim.Zcdp.For_testing.gaussian_sigma ~rho ~l2_sensitivity:2.0 in
  check_float ~tol:1e-9 "round trip" rho (Prim.Zcdp.For_testing.of_gaussian ~sigma ~l2_sensitivity:2.0)

let test_beats_advanced_composition () =
  (* GoodCenter's d-fold axis composition: compare the noise the advanced
     composition theorem affords per mechanism with what the zCDP ledger
     affords, at the same end-to-end (ε, δ).  zCDP must dominate for large
     d (that is why modern releases use it). *)
  let eps = 0.25 and delta = 1e-6 in
  List.iter
    (fun d ->
      (* Advanced composition: per-mechanism ε, Gaussian at that ε. *)
      let eps_i = Prim.Composition.advanced_per_mechanism ~total_eps:eps ~k:d ~delta':(delta /. 2.) in
      let sigma_adv = Prim.Gaussian_mech.sigma ~eps:eps_i ~delta:(delta /. (2. *. float_of_int d)) ~l2_sensitivity:1.0 in
      (* zCDP: total ρ for (ε, δ), split evenly, Gaussian at ρ_i. *)
      let rho = Prim.Zcdp.For_testing.eps_budget_to_rho ~eps ~delta in
      let sigma_z =
        Prim.Zcdp.For_testing.gaussian_sigma ~rho:(Prim.Zcdp.For_testing.per_mechanism_rho ~total_rho:rho ~k:d)
          ~l2_sensitivity:1.0
      in
      check_true
        (Printf.sprintf "zCDP noise %.1f <= advanced noise %.1f at d=%d" sigma_z sigma_adv d)
        (sigma_z <= sigma_adv *. 1.05))
    [ 8; 64; 512 ]

let test_validation () =
  Alcotest.check_raises "negative rho" (Invalid_argument "Zcdp.compose: negative rho")
    (fun () -> ignore (Prim.Zcdp.compose [ -0.1 ]));
  Alcotest.check_raises "sigma > 0" (Invalid_argument "Zcdp.of_gaussian: sigma must be positive")
    (fun () -> ignore (Prim.Zcdp.For_testing.of_gaussian ~sigma:0. ~l2_sensitivity:1.))

let suite =
  [
    case "gaussian rho" test_gaussian_rho;
    case "pure-dp rho" test_pure_dp_rho;
    case "additive composition" test_compose_additive;
    case "to_dp formula" test_to_dp_formula;
    case "budget inversion" test_budget_inversion;
    case "sigma inversion" test_sigma_inversion;
    case "beats advanced composition" test_beats_advanced_composition;
    case "validation" test_validation;
  ]
