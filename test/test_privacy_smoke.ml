(* Empirical differential-privacy smoke tests, on the Check estimators.

   These do not prove privacy (no finite test can — see TESTING.md), but
   they catch gross calibration bugs with a statistically sound verdict:
   for a pair of neighbouring databases the Check.Distinguisher estimates
   event probabilities on both sides with exact Clopper–Pearson intervals,
   and declares a violation only when the confidence bounds themselves
   break e^ε·(1+slack) + δ.  A broken noise scale (for instance Lap(1/2ε)
   instead of Lap(2/ε)) is flagged immediately; a correctly calibrated
   mechanism passes at any seed with probability ≥ 1 − α per event. *)

open Testutil

let trials = 30_000

let fail_verdict name (v : Check.Distinguisher.verdict) =
  Alcotest.failf "%s: %a" name Check.Distinguisher.pp_verdict v

let assert_private name (v : Check.Distinguisher.verdict) =
  if v.Check.Distinguisher.violation then fail_verdict name v

let assert_flagged name (v : Check.Distinguisher.verdict) =
  if not v.Check.Distinguisher.violation then fail_verdict name v

(* Laplace counting on neighbouring counts 50 / 51: no violation, and the
   distinguisher should certify a substantial share of the claimed loss
   (the densest threshold events sit right at the e^ε ratio). *)
let test_laplace_count r =
  let eps = 0.5 in
  let v =
    Check.Distinguisher.For_testing.run r ~claimed:(Prim.Dp.pure ~eps) ~trials
      ~events:(Check.Distinguisher.thresholds ~lo:44. ~hi:58. ~count:15)
      ~left:(fun r -> Prim.Laplace.count r ~eps 50)
      ~right:(fun r -> Prim.Laplace.count r ~eps 51)
      ()
  in
  assert_private "laplace count" v;
  check_true
    (Printf.sprintf "laplace eps_lb %.3f should be positive" v.Check.Distinguisher.eps_lb)
    (v.Check.Distinguisher.eps_lb > 0.2)

(* The acceptance probe for the harness itself: a deliberately mis-scaled
   Laplace — Lap(1/2ε), four times too little noise at sensitivity 1 —
   must be flagged as violating its claimed ε at the very significance
   level under which every shipped mechanism passes. *)
let test_misscaled_laplace_flagged r =
  let eps = 0.5 in
  let broken value rng = float_of_int value +. Prim.Rng.laplace rng ~scale:(1. /. (2. *. eps)) () in
  let v =
    Check.Distinguisher.For_testing.run r ~claimed:(Prim.Dp.pure ~eps) ~trials
      ~events:(Check.Distinguisher.thresholds ~lo:48. ~hi:53. ~count:11)
      ~left:(broken 50) ~right:(broken 51) ()
  in
  assert_flagged "mis-scaled laplace must be caught" v;
  check_true
    (Printf.sprintf "certified loss %.3f should far exceed claimed %.3f"
       v.Check.Distinguisher.eps_lb eps)
    (v.Check.Distinguisher.eps_lb > eps)

let test_gaussian r =
  let eps = 0.5 and delta = 1e-5 in
  let sigma = Prim.Gaussian_mech.sigma ~eps ~delta ~l2_sensitivity:1.0 in
  assert_private "gaussian"
    (Check.Distinguisher.For_testing.run r
       ~claimed:(Prim.Dp.v ~eps ~delta)
       ~trials
       ~events:(Check.Distinguisher.thresholds ~lo:42. ~hi:60. ~count:15)
       ~left:(fun r -> 50. +. Prim.Rng.gaussian r ~sigma ())
       ~right:(fun r -> 51. +. Prim.Rng.gaussian r ~sigma ())
       ())

(* Neighbouring sensitivity-1 score vectors for the selection mechanisms. *)
let scores_a = [| 3.; 5.; 4. |]

let scores_b = [| 4.; 4.; 3. |]

let test_exp_mech r =
  let eps = 0.5 in
  assert_private "exp-mech"
    (Check.Distinguisher.For_testing.run r ~claimed:(Prim.Dp.pure ~eps) ~trials
       ~events:(Check.Distinguisher.categories ~k:3)
       ~left:(fun r -> Prim.Exp_mech.select r ~eps ~sensitivity:1.0 ~qualities:scores_a)
       ~right:(fun r -> Prim.Exp_mech.select r ~eps ~sensitivity:1.0 ~qualities:scores_b)
       ())

(* Report-noisy-max must match the exponential mechanism's ε claim on the
   same neighbouring score pair (its selection law differs; its privacy
   guarantee does not). *)
let test_noisy_max r =
  let eps = 0.5 in
  assert_private "noisy-max"
    (Check.Distinguisher.For_testing.run r ~claimed:(Prim.Dp.pure ~eps) ~trials
       ~events:(Check.Distinguisher.categories ~k:3)
       ~left:(fun r -> Prim.Noisy_max.argmax r ~eps ~sensitivity:1.0 scores_a)
       ~right:(fun r -> Prim.Noisy_max.argmax r ~eps ~sensitivity:1.0 scores_b)
       ())

(* A cell present only in S' is released with probability ≤ δ/4 per draw
   (the Lap(2/ε) tail above the 1 + (2/ε)·ln(2/δ) threshold).  The CI-based
   verdict: fail only when the CP lower bound on the release rate clears
   that tail bound — i.e. we are confident of over-release, not unlucky. *)
let test_stability_hist_release_rate r =
  let eps = 1.0 and delta = 1e-4 in
  let runs = 20_000 in
  let released = ref 0 in
  for _ = 1 to runs do
    match Prim.Stability_hist.select r ~eps ~delta [ ("new-cell", 1) ] with
    | Some _ -> incr released
    | None -> ()
  done;
  let ci = Check.Stats.clopper_pearson ~alpha:0.01 ~k:!released ~n:runs in
  check_true
    (Printf.sprintf "singleton release rate %d/%d (CP lo %.2g) within delta/4 = %.2g"
       !released runs ci.Check.Stats.lo (delta /. 4.))
    (ci.Check.Stats.lo <= delta /. 4.)

(* Neighbouring singleton histograms through the distinguisher: adding one
   element to a fresh cell shifts the release law by at most (ε, δ). *)
let test_stability_hist_dp r =
  let eps = 1.0 and delta = 1e-4 in
  let obs cells rng =
    match Prim.Stability_hist.select rng ~eps ~delta cells with
    | None -> 0
    | Some cell -> if cell.Prim.Stability_hist.key = "x" then 1 else 2
  in
  assert_private "stability-hist"
    (Check.Distinguisher.For_testing.run r
       ~claimed:(Prim.Dp.v ~eps ~delta)
       ~trials
       ~events:(Check.Distinguisher.categories ~k:3)
       ~left:(obs [ ("x", 30) ])
       ~right:(obs [ ("x", 30); ("y", 1) ])
       ())

(* The count lower bound m̂ must undershoot the true count (that is what
   makes σ safe); equality-direction errors would show as m̂ > m often. *)
let test_noisy_avg_count_offset r =
  let vs = Array.init 500 (fun _ -> [| 0.5 |]) in
  let overshoot = ref 0 in
  for _ = 1 to 2000 do
    match
      Prim.Noisy_avg.run r ~eps:1.0 ~delta:1e-6 ~diameter:1.0 ~pred:(fun _ -> true) ~dim:1 vs
    with
    | Prim.Noisy_avg.Average a -> if a.Prim.Noisy_avg.m_hat > 500. then incr overshoot
    | Prim.Noisy_avg.Bottom -> ()
  done;
  check_int "m_hat never exceeds the true count by design margin" 0 !overshoot

(* AboveThreshold calibration: the Above probability must be monotone in
   the query's distance to the threshold and near-saturated far from it,
   with Clopper–Pearson intervals doing the separating. *)
let test_sparse_vector_calibration r =
  let eps = 1.0 and threshold = 100. in
  let above_ci value =
    let runs = 10_000 in
    let above = ref 0 in
    for _ = 1 to runs do
      let sv = Prim.Sparse_vector.create r ~eps ~threshold in
      if Prim.Sparse_vector.query sv value = Prim.Sparse_vector.Above then incr above
    done;
    Check.Stats.clopper_pearson ~alpha:0.01 ~k:!above ~n:runs
  in
  let far_below = above_ci 60. in
  let below = above_ci 90. in
  let above = above_ci 110. in
  let far_above = above_ci 140. in
  check_true "far-below fires almost never" (far_below.Check.Stats.hi < 0.05);
  check_true "far-above fires almost always" (far_above.Check.Stats.lo > 0.95);
  check_true
    (Printf.sprintf "monotone: [%.3f, %.3f] below < above [%.3f, %.3f]"
       below.Check.Stats.lo below.Check.Stats.hi above.Check.Stats.lo above.Check.Stats.hi)
    (below.Check.Stats.hi < above.Check.Stats.lo)

(* Below-threshold answers are "free": a long stream of Belows must not
   change a later Above decision's distribution (one noisy threshold is
   kept).  CI-based: the two rates' intervals must overlap. *)
let test_sparse_vector_budget_independence r =
  let rate_ci prefix_len =
    let above = ref 0 in
    let runs = 20_000 in
    for _ = 1 to runs do
      let sv = Prim.Sparse_vector.create r ~eps:1.0 ~threshold:100. in
      for _ = 1 to prefix_len do
        if not (Prim.Sparse_vector.For_testing.halted sv) then ignore (Prim.Sparse_vector.query sv 0.)
      done;
      if
        (not (Prim.Sparse_vector.For_testing.halted sv))
        && Prim.Sparse_vector.query sv 100. = Prim.Sparse_vector.Above
      then incr above
    done;
    Check.Stats.clopper_pearson ~alpha:0.01 ~k:!above ~n:runs
  in
  let r1 = rate_ci 1 and r100 = rate_ci 100 in
  check_true
    (Printf.sprintf "rate CIs [%.3f, %.3f] and [%.3f, %.3f] overlap" r1.Check.Stats.lo
       r1.Check.Stats.hi r100.Check.Stats.lo r100.Check.Stats.hi)
    (r1.Check.Stats.lo <= r100.Check.Stats.hi && r100.Check.Stats.lo <= r1.Check.Stats.hi)

(* The full AboveThreshold interaction as a distinguisher target: feed a
   neighbouring query stream (every query shifted by the sensitivity) and
   compare the law of the firing index. *)
let test_sparse_vector_dp r =
  let eps = 1.0 in
  let queries_a = [| 9.; 11.; 9.; 12.; 8. |] in
  let queries_b = Array.map (fun q -> q +. 1.) queries_a in
  let fire queries rng =
    let sv = Prim.Sparse_vector.create rng ~eps ~threshold:10. in
    let n = Array.length queries in
    let rec go i =
      if i >= n then n
      else
        match Prim.Sparse_vector.query sv queries.(i) with
        | Prim.Sparse_vector.Above -> i
        | Prim.Sparse_vector.Below -> go (i + 1)
    in
    go 0
  in
  assert_private "sparse-vector firing index"
    (Check.Distinguisher.For_testing.run r ~claimed:(Prim.Dp.pure ~eps) ~trials
       ~events:(Check.Distinguisher.categories ~k:(Array.length queries_a + 1))
       ~left:(fire queries_a) ~right:(fire queries_b) ())

(* The local randomizer is the whole privacy barrier of the LDP pipeline:
   neighbouring databases differ in one user, i.e. one true cell.  The
   report law is exactly known, so the distinguisher should certify most
   of the claimed loss — and a mis-calibrated variant (reports at 2ε
   while claiming ε) must be flagged, the LDP mirror of the mis-scaled
   Laplace canary above. *)
let test_local_randomizer_dp r =
  let eps = 1.2 and k = 6 in
  let v =
    Check.Distinguisher.For_testing.run r ~claimed:(Prim.Dp.pure ~eps) ~trials
      ~events:(Check.Distinguisher.categories ~k)
      ~left:(fun r -> Privcluster.Local_cluster.randomize r ~eps ~k 0)
      ~right:(fun r -> Privcluster.Local_cluster.randomize r ~eps ~k 1)
      ()
  in
  assert_private "local randomizer" v;
  check_true
    (Printf.sprintf "local randomizer eps_lb %.3f should certify most of %.3f"
       v.Check.Distinguisher.eps_lb eps)
    (v.Check.Distinguisher.eps_lb > 0.7 *. eps)

let test_misscaled_local_randomizer_flagged r =
  let eps = 1.2 and k = 6 in
  let broken cell rng = Privcluster.Local_cluster.randomize rng ~eps:(2. *. eps) ~k cell in
  let v =
    Check.Distinguisher.For_testing.run r ~claimed:(Prim.Dp.pure ~eps) ~trials
      ~events:(Check.Distinguisher.categories ~k)
      ~left:(broken 0) ~right:(broken 1) ()
  in
  assert_flagged "2-eps local randomizer claiming eps must be caught" v;
  check_true
    (Printf.sprintf "certified loss %.3f should exceed claimed %.3f"
       v.Check.Distinguisher.eps_lb eps)
    (v.Check.Distinguisher.eps_lb > eps)

let suite =
  [
    stat_slow_case "laplace neighbouring counts" test_laplace_count;
    stat_slow_case "mis-scaled laplace is flagged" test_misscaled_laplace_flagged;
    stat_slow_case "local randomizer neighbouring cells" test_local_randomizer_dp;
    stat_slow_case "mis-scaled local randomizer is flagged" test_misscaled_local_randomizer_flagged;
    stat_slow_case "gaussian neighbouring counts" test_gaussian;
    stat_slow_case "exp-mech neighbouring scores" test_exp_mech;
    stat_slow_case "noisy-max neighbouring scores" test_noisy_max;
    stat_slow_case "stability-hist singleton release rate" test_stability_hist_release_rate;
    stat_slow_case "stability-hist neighbouring histograms" test_stability_hist_dp;
    stat_slow_case "noisy-avg count offset direction" test_noisy_avg_count_offset;
    stat_slow_case "sparse-vector above/below calibration" test_sparse_vector_calibration;
    stat_slow_case "sparse-vector below-answers are free" test_sparse_vector_budget_independence;
    stat_slow_case "sparse-vector firing-index privacy" test_sparse_vector_dp;
  ]
