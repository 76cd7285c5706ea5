(* Composition theorems (Theorem 2.1 and Theorem 4.7) and the accountant. *)

open Testutil

let test_basic () =
  let p = Prim.Dp.v ~eps:0.1 ~delta:1e-7 in
  let total = Prim.Composition.basic p ~k:10 in
  check_float ~tol:1e-12 "eps adds" 1.0 (Prim.Dp.eps total);
  check_float ~tol:1e-18 "delta adds" 1e-6 (Prim.Dp.delta total)

let test_basic_list () =
  let total =
    Prim.Composition.basic_list
      [ Prim.Dp.v ~eps:0.5 ~delta:1e-7; Prim.Dp.v ~eps:0.25 ~delta:2e-7; Prim.Dp.pure ~eps:0.25 ]
  in
  check_float ~tol:1e-12 "heterogeneous eps" 1.0 (Prim.Dp.eps total);
  check_float ~tol:1e-18 "heterogeneous delta" 3e-7 (Prim.Dp.delta total)

let test_advanced_formula () =
  let eps = 0.1 and k = 100 and delta' = 1e-6 in
  let total = Prim.Composition.advanced (Prim.Dp.pure ~eps) ~k ~delta' in
  let expected =
    (2. *. 100. *. 0.01) +. (0.1 *. sqrt (2. *. 100. *. log (1. /. delta')))
  in
  check_float ~tol:1e-9 "theorem 4.7" expected (Prim.Dp.eps total);
  check_float ~tol:1e-12 "delta = k·delta + delta'" delta' (Prim.Dp.delta total)

let test_advanced_beats_basic_for_many_mechanisms () =
  let p = Prim.Dp.pure ~eps:0.01 in
  let k = 2000 in
  let adv = Prim.Composition.advanced p ~k ~delta':1e-6 in
  let basic = Prim.Composition.basic p ~k in
  check_true "advanced is tighter at large k" (Prim.Dp.eps adv < Prim.Dp.eps basic)

let qcheck_advanced_per_mechanism_inverse =
  qcheck "advanced_per_mechanism inverts the bound" ~count:100
    QCheck2.Gen.(pair (float_range 0.1 3.0) (int_range 2 200))
    (fun (total_eps, k) ->
      let per = Prim.Composition.advanced_per_mechanism ~total_eps ~k ~delta':1e-7 in
      let back = Prim.Composition.advanced (Prim.Dp.pure ~eps:per) ~k ~delta':1e-7 in
      (* Within the bisection tolerance, recomposition must not exceed the
         target and must not be absurdly below it. *)
      Prim.Dp.eps back <= total_eps +. 1e-6 && Prim.Dp.eps back >= 0.9 *. total_eps)

let test_goodcenter_axis_budget_is_conservative () =
  (* The paper's per-axis parameter ε/(10√(d·ln(8/δ))) composed d times under
     Theorem 4.7 must stay within ε/4 (that's Lemma 4.11's accounting). *)
  let eps = 1.0 and delta = 1e-6 in
  List.iter
    (fun d ->
      let per = eps /. (10. *. sqrt (float_of_int d *. log (8. /. delta))) in
      let total = Prim.Composition.advanced (Prim.Dp.pure ~eps:per) ~k:d ~delta':(delta /. 8.) in
      check_true
        (Printf.sprintf "axis budget within eps/4 at d=%d" d)
        (Prim.Dp.eps total <= (eps /. 4.) +. 1e-9))
    [ 1; 2; 8; 64; 512 ]

let test_subsample_amplify () =
  let p = Prim.Subsample.amplify ~eps:1.0 ~delta:1e-6 ~m:100 ~n:900 in
  check_float ~tol:1e-9 "eps scaled by 6m/n" (6. /. 9.) (Prim.Dp.eps p);
  check_float ~tol:1e-12 "delta formula"
    (exp (6. /. 9.) *. 4. *. (100. /. 900.) *. 1e-6)
    (Prim.Dp.delta p);
  check_float ~tol:1e-9 "factor" (6. /. 9.) (Prim.Subsample.For_testing.amplification_factor ~m:100 ~n:900);
  (* Matches Sample_aggregate's n/9 instantiation. *)
  let sa = Privcluster.Sample_aggregate.amplified ~eps:1.0 ~delta:1e-6 in
  check_float ~tol:1e-9 "same eps as SA helper" (Prim.Dp.eps sa) (Prim.Dp.eps p);
  Alcotest.check_raises "eps <= 1" (Invalid_argument "Subsample.amplify: eps must be in (0, 1]")
    (fun () -> ignore (Prim.Subsample.amplify ~eps:2.0 ~delta:1e-6 ~m:1 ~n:10));
  Alcotest.check_raises "n >= 2m"
    (Invalid_argument "Subsample.amplification_factor: need n >= 2m") (fun () ->
      ignore (Prim.Subsample.amplify ~eps:0.5 ~delta:1e-6 ~m:10 ~n:15))

let test_validation () =
  Alcotest.check_raises "k>0" (Invalid_argument "Composition.basic: k must be positive")
    (fun () -> ignore (Prim.Composition.basic (Prim.Dp.pure ~eps:1.) ~k:0));
  Alcotest.check_raises "empty list" (Invalid_argument "Composition.basic_list: empty")
    (fun () -> ignore (Prim.Composition.basic_list []))

let suite =
  [
    case "basic composition" test_basic;
    case "heterogeneous basic" test_basic_list;
    case "advanced formula" test_advanced_formula;
    case "advanced beats basic at large k" test_advanced_beats_basic_for_many_mechanisms;
    qcheck_advanced_per_mechanism_inverse;
    case "GoodCenter axis budget fits eps/4" test_goodcenter_axis_budget_is_conservative;
    case "subsampling amplification" test_subsample_amplify;
    case "validation" test_validation;
  ]
