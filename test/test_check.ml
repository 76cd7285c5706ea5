(* Unit and integration tests for the lib/check verification harness:
   the special functions and estimators against closed forms, the exact
   reference laws, the distinguisher's verdict logic on synthetic counts,
   and (deep tier) the composite checks of the Suite registry. *)

open Testutil

(* ---- special functions against closed forms ----------------------- *)

let test_special_functions () =
  (* Γ(5) = 24. *)
  check_float ~tol:1e-9 "log_gamma 5" (log 24.) (Check.Stats.For_testing.log_gamma 5.);
  (* Regularized incomplete beta at a = b = 1 is the identity. *)
  check_float ~tol:1e-9 "I_1,1(0.3)" 0.3 (Check.Stats.For_testing.reg_inc_beta ~a:1. ~b:1. 0.3);
  (* chi2 survival at df = 2 is exp(-x/2). *)
  check_float ~tol:1e-9 "chi2_sf df=2" (exp (-1.)) (Check.Stats.For_testing.chi2_sf ~df:2 2.);
  (* Standard normal quantiles. *)
  check_float ~tol:1e-9 "Phi(0)" 0.5 (Check.Stats.normal_cdf ~sigma:1. 0.);
  check_float ~tol:1e-4 "Phi(1.96)" 0.975 (Check.Stats.normal_cdf ~sigma:1. 1.959964);
  check_float ~tol:1e-12 "erfc(0)" 1. (Check.Stats.For_testing.erfc 0.)

let test_clopper_pearson () =
  let n = 50 and alpha = 0.05 in
  (* k = 0: lo = 0, hi = 1 - (alpha/2)^(1/n) (exact closed form). *)
  let ci = Check.Stats.clopper_pearson ~alpha ~k:0 ~n in
  check_float ~tol:1e-9 "k=0 lo" 0. ci.Check.Stats.lo;
  check_float ~tol:1e-6 "k=0 hi" (1. -. ((alpha /. 2.) ** (1. /. float_of_int n))) ci.Check.Stats.hi;
  (* k = n mirrors it. *)
  let ci = Check.Stats.clopper_pearson ~alpha ~k:n ~n in
  check_float ~tol:1e-6 "k=n lo" ((alpha /. 2.) ** (1. /. float_of_int n)) ci.Check.Stats.lo;
  check_float ~tol:1e-9 "k=n hi" 1. ci.Check.Stats.hi;
  (* The interval contains the point estimate and is monotone in k. *)
  let ci = Check.Stats.clopper_pearson ~alpha ~k:25 ~n in
  check_in_range "k=n/2 straddles 0.5" ~lo:ci.Check.Stats.lo ~hi:ci.Check.Stats.hi 0.5;
  check_true "interval proper" (ci.Check.Stats.lo < ci.Check.Stats.hi)

(* ---- goodness-of-fit testers -------------------------------------- *)

let laplace_cdf x = Check.Dist.laplace_cdf ~eps:0.7 ~sensitivity:1.0 x

let test_ks_accepts_and_rejects r =
  let good = Array.init 4000 (fun _ -> Prim.Laplace.noise r ~eps:0.7 ~sensitivity:1.0) in
  let ks = Check.Stats.ks_test ~cdf:laplace_cdf good in
  check_true
    (Printf.sprintf "correct scale accepted (p = %.4f)" ks.Check.Stats.p_value)
    (ks.Check.Stats.p_value > 0.001);
  (* Half the intended noise scale must be rejected overwhelmingly. *)
  let bad = Array.map (fun x -> 0.5 *. x) good in
  let ks = Check.Stats.ks_test ~cdf:laplace_cdf bad in
  check_true
    (Printf.sprintf "wrong scale rejected (p = %.2g)" ks.Check.Stats.p_value)
    (ks.Check.Stats.p_value < 1e-6)

let test_ad_accepts_and_rejects r =
  let good = Array.init 4000 (fun _ -> Prim.Laplace.noise r ~eps:0.7 ~sensitivity:1.0) in
  let ad = Check.Stats.ad_test ~cdf:laplace_cdf good in
  check_true
    (Printf.sprintf "correct scale accepted (A2 = %.3f)" ad.Check.Stats.a2)
    (ad.Check.Stats.a2 < Check.Stats.ad_critical ~significance:0.01);
  let bad = Array.map (fun x -> 0.5 *. x) good in
  let ad = Check.Stats.ad_test ~cdf:laplace_cdf bad in
  check_true
    (Printf.sprintf "wrong scale rejected (A2 = %.1f)" ad.Check.Stats.a2)
    (ad.Check.Stats.a2 > Check.Stats.ad_critical ~significance:0.005)

let test_chi2_pools_and_rejects r =
  let expected = [| 0.5; 0.3; 0.15; 0.05 |] in
  let sample p rng =
    let u = Prim.Rng.float rng 1. in
    let rec go i acc = if u <= acc +. p.(i) || i = 3 then i else go (i + 1) (acc +. p.(i)) in
    go 0 0.
  in
  let counts p =
    let c = Array.make 4 0 in
    for _ = 1 to 4000 do
      let i = sample p r in
      c.(i) <- c.(i) + 1
    done;
    c
  in
  let ok = Check.Stats.chi2_test ~expected ~observed:(counts expected) in
  check_true
    (Printf.sprintf "matching law accepted (p = %.4f)" ok.Check.Stats.p_value)
    (ok.Check.Stats.p_value > 0.001);
  let skewed = Check.Stats.chi2_test ~expected ~observed:(counts [| 0.25; 0.25; 0.25; 0.25 |]) in
  check_true
    (Printf.sprintf "wrong law rejected (p = %.2g)" skewed.Check.Stats.p_value)
    (skewed.Check.Stats.p_value < 1e-6)

(* ---- exact reference laws ----------------------------------------- *)

let test_exp_mech_law () =
  let qualities = [| 3.; 5.; 4.; 1. |] in
  let p = Check.Dist.exp_mech_law ~eps:0.8 ~sensitivity:1.0 ~qualities in
  check_float ~tol:1e-12 "law sums to 1" 1. (Array.fold_left ( +. ) 0. p);
  (* Softmax ratio law: p_i/p_j = exp(eps (q_i - q_j) / 2). *)
  check_float ~tol:1e-9 "ratio law" (exp (0.8 *. (5. -. 3.) /. 2.)) (p.(1) /. p.(0))

let test_stability_hist_law () =
  (* Singleton fresh cell: released exactly when 1 + Lap(2/ε) clears the
     threshold 1 + (2/ε)·ln(2/δ), i.e. with probability δ/4. *)
  let eps = 1.0 and delta = 1e-4 in
  let law = Check.Dist.stability_hist_law ~eps ~delta [ ("only", 1) ] in
  check_int "law has k+1 entries" 2 (Array.length law);
  check_float ~tol:1e-7 "release prob = delta/4" (delta /. 4.) law.(0);
  check_float ~tol:1e-7 "none prob = 1 - delta/4" (1. -. (delta /. 4.)) law.(1);
  (* Multi-cell law remains a probability vector, dominated by the heavy
     cell once counts clear the threshold comfortably. *)
  let law = Check.Dist.stability_hist_law ~eps ~delta [ ("a", 60); ("b", 40) ] in
  check_float ~tol:1e-6 "multi-cell law sums to 1" 1. (Array.fold_left ( +. ) 0. law);
  check_true "heavy cell dominates" (law.(0) > 0.9)

(* ---- distinguisher verdict logic on synthetic counts --------------- *)

let test_verdict_logic () =
  let events = [ "e" ] in
  (* 900/1000 vs 100/1000: loss ≈ ln 9.  Claimed ε = 0.1 must be violated;
     claimed ε = 3 must not. *)
  let verdict eps =
    Check.Distinguisher.verdict ~claimed:(Prim.Dp.pure ~eps) ~events ~left:(1000, [| 900 |])
      ~right:(1000, [| 100 |]) ()
  in
  let v = verdict 0.1 in
  check_true "gross gap flagged at eps=0.1" v.Check.Distinguisher.violation;
  check_true
    (Printf.sprintf "certified loss %.2f below true ln 9" v.Check.Distinguisher.eps_lb)
    (v.Check.Distinguisher.eps_lb > 1.5 && v.Check.Distinguisher.eps_lb < log 9.);
  check_true "same gap legal at eps=3" (not (verdict 3.0).Check.Distinguisher.violation);
  (* delta absorbs a small event: 30/10000 vs 0/10000 under (0.1, 0.01). *)
  let v =
    Check.Distinguisher.verdict
      ~claimed:(Prim.Dp.v ~eps:0.1 ~delta:0.01)
      ~events ~left:(10_000, [| 30 |]) ~right:(10_000, [| 0 |]) ()
  in
  check_true "delta absorbs a rare event" (not v.Check.Distinguisher.violation);
  (* ...but not a large one. *)
  let v =
    Check.Distinguisher.verdict
      ~claimed:(Prim.Dp.v ~eps:0.1 ~delta:0.01)
      ~events ~left:(10_000, [| 3000 |]) ~right:(10_000, [| 100 |]) ()
  in
  check_true "large gap not absorbed" v.Check.Distinguisher.violation

let test_verdict_symmetry () =
  (* The inequality is checked in both directions: a gap hidden on the
     right side is caught too. *)
  let v =
    Check.Distinguisher.verdict ~claimed:(Prim.Dp.pure ~eps:0.1) ~events:[ "e" ]
      ~left:(1000, [| 100 |]) ~right:(1000, [| 900 |]) ()
  in
  check_true "right-side gap flagged" v.Check.Distinguisher.violation

(* ---- the suite registry -------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fast_cfg =
  { Check.Suite.default with Check.Suite.seed = suite_seed; trials = 2500; domains = 2 }

let test_suite_fast_checks () =
  let results = Check.Suite.run ~only:[ "laplace"; "exp_mech" ] fast_cfg in
  check_int "laplace + exp_mech checks" 5 (List.length results);
  List.iter
    (fun (r : Check.Suite.result) ->
      check_true (r.Check.Suite.name ^ " passes") (r.Check.Suite.status = Check.Suite.Pass))
    results;
  (* The JSON report is well-formed enough to round-trip names. *)
  let json = Obs.Json.to_string (Check.Suite.report_json fast_cfg results) in
  check_true "report mentions laplace/ks"
    (String.length json > 0
    && contains json "laplace/ks"
    && contains json "\"violations\": 0")

let test_suite_names_registered () =
  let names = Check.Suite.For_testing.names () in
  List.iter
    (fun expected ->
      check_true (expected ^ " registered") (List.mem expected names))
    [
      "laplace/ks"; "laplace/ad"; "gaussian/ks"; "gaussian/ad"; "exp_mech/chi2";
      "stability_hist/chi2"; "laplace/dp"; "gaussian/dp"; "exp_mech/dp"; "noisy_max/dp";
      "sparse_vector/dp"; "stability_hist/dp"; "noisy_avg/dp"; "good_radius/dp";
      "one_cluster/dp"; "engine_fallback/dp"; "one_cluster/utility"; "local_cluster/chi2";
      "local_cluster/dp"; "local_cluster/negative"; "local_cluster/utility"; "meb_fptas/dp";
      "meb_fptas/utility";
    ]

let test_grouped_names () =
  let groups = Check.Suite.grouped_names () in
  (* Every registered name appears exactly once, under its prefix group,
     and the flat registry order is preserved within each group. *)
  let flattened = List.concat_map snd groups in
  check_int "grouping is a partition" (List.length (Check.Suite.For_testing.names ())) (List.length flattened);
  List.iter (fun n -> check_true (n ^ " grouped") (List.mem n flattened)) (Check.Suite.For_testing.names ());
  List.iter
    (fun (group, members) ->
      check_true (group ^ " non-empty") (members <> []);
      List.iter
        (fun m ->
          check_true
            (Printf.sprintf "%s belongs under %s" m group)
            (contains m (group ^ "/") || m = group))
        members)
    groups;
  let local = List.assoc_opt "local_cluster" groups in
  check_true "local_cluster group has all four checks"
    (local = Some [ "local_cluster/chi2"; "local_cluster/dp"; "local_cluster/negative";
                    "local_cluster/utility" ])

let test_exit_status () =
  (* No match means no results ran, so violations is necessarily 0 there;
     the no-match code wins by construction. *)
  check_int "no match is 2" 2 (Check.Suite.exit_status ~matched:false ~violations:0);
  check_int "violations are 1" 1 (Check.Suite.exit_status ~matched:true ~violations:1);
  check_int "many violations still 1" 1 (Check.Suite.exit_status ~matched:true ~violations:7);
  check_int "clean run is 0" 0 (Check.Suite.exit_status ~matched:true ~violations:0)

let test_only_filtering () =
  (* Group prefix, exact name, and a name matching nothing. *)
  let by_group = Check.Suite.run ~only:[ "laplace" ] fast_cfg in
  check_int "group prefix matches the whole group" 3 (List.length by_group);
  (match Check.Suite.run ~only:[ "laplace/ks" ] fast_cfg with
  | [ r ] -> check_true "exact name matches itself" (r.Check.Suite.name = "laplace/ks")
  | rs -> Alcotest.failf "exact name matched %d checks" (List.length rs));
  check_int "unknown name matches nothing" 0
    (List.length (Check.Suite.run ~only:[ "no_such_check" ] fast_cfg))

(* ---- exact laws as QCheck properties -------------------------------- *)

(* Both selection laws are probability vectors by construction; these pin
   that they are so numerically, at ulp-scale tolerance, across the whole
   parameter range — and that exp-mech's law only sees quality gaps. *)

let test_exp_mech_probabilities_qcheck =
  qcheck "exp-mech probabilities sum to 1 and ignore translation"
    QCheck2.Gen.(
      triple (float_range 0.05 5.0)
        (array_size (int_range 2 30) (float_range (-50.) 50.))
        (float_range (-100.) 100.))
    (fun (eps, qualities, shift) ->
      let p = Prim.Exp_mech.probabilities ~eps ~sensitivity:1.0 ~qualities in
      let shifted =
        Prim.Exp_mech.probabilities ~eps ~sensitivity:1.0
          ~qualities:(Array.map (fun q -> q +. shift) qualities)
      in
      let n = Array.length qualities in
      let tol = 16. *. float_of_int n *. epsilon_float in
      Float.abs (Array.fold_left ( +. ) 0. p -. 1.) <= tol
      && Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9) p shifted)

let test_local_randomizer_law_qcheck =
  qcheck "local-randomizer law sums to 1 at ulp scale"
    QCheck2.Gen.(triple (float_range 0.05 5.0) (int_range 2 64) (int_range 0 1000))
    (fun (eps, k, cell_raw) ->
      let law = Check.Dist.local_randomizer_law ~eps ~k ~cell:(cell_raw mod k) in
      Float.abs (Array.fold_left ( +. ) 0. law -. 1.) <= 16. *. float_of_int k *. epsilon_float)

(* Determinism: the fan-out shards trials over a fixed chunk count, so the
   verdict is bit-identical for any worker-domain count. *)
let test_suite_domain_independence () =
  let run domains =
    Check.Suite.run ~only:[ "laplace/ks" ] { fast_cfg with Check.Suite.domains }
  in
  match (run 1, run 4) with
  | [ a ], [ b ] ->
      check_true "same detail across domain counts" (a.Check.Suite.detail = b.Check.Suite.detail)
  | _ -> Alcotest.fail "expected exactly one result per run"

(* ---- deep tier ------------------------------------------------------ *)

let deep_cfg =
  { Check.Suite.default with Check.Suite.seed = suite_seed; trials = 8000; domains = 4 }

let test_deep_composites () =
  let results =
    Check.Suite.run ~only:[ "good_radius/dp"; "one_cluster/dp"; "engine_fallback/dp" ] deep_cfg
  in
  check_int "three composite checks" 3 (List.length results);
  List.iter
    (fun (r : Check.Suite.result) ->
      if r.Check.Suite.status <> Check.Suite.Pass then
        Alcotest.failf "%s: %s" r.Check.Suite.name r.Check.Suite.detail)
    results

let test_deep_utility () =
  match Check.Suite.run ~only:[ "one_cluster/utility" ] deep_cfg with
  | [ r ] ->
      if r.Check.Suite.status <> Check.Suite.Pass then
        Alcotest.failf "utility certification: %s" r.Check.Suite.detail
  | _ -> Alcotest.fail "expected exactly one utility result"

(* The competitor checks: both distinguishers and the negative control
   (which passes exactly when the mis-calibrated randomizer IS flagged). *)
let test_deep_competitors () =
  let results =
    Check.Suite.run
      ~only:[ "local_cluster/chi2"; "local_cluster/dp"; "local_cluster/negative"; "meb_fptas/dp" ]
      deep_cfg
  in
  check_int "four competitor checks" 4 (List.length results);
  List.iter
    (fun (r : Check.Suite.result) ->
      if r.Check.Suite.status <> Check.Suite.Pass then
        Alcotest.failf "%s: %s" r.Check.Suite.name r.Check.Suite.detail)
    results

let test_deep_competitor_utility () =
  let results = Check.Suite.run ~only:[ "local_cluster/utility"; "meb_fptas/utility" ] deep_cfg in
  check_int "two utility contracts" 2 (List.length results);
  List.iter
    (fun (r : Check.Suite.result) ->
      if r.Check.Suite.status <> Check.Suite.Pass then
        Alcotest.failf "%s: %s" r.Check.Suite.name r.Check.Suite.detail)
    results

let suite =
  [
    case "special functions vs closed forms" test_special_functions;
    case "clopper-pearson closed forms" test_clopper_pearson;
    stat_case "ks accepts right / rejects wrong scale" test_ks_accepts_and_rejects;
    stat_case "ad accepts right / rejects wrong scale" test_ad_accepts_and_rejects;
    stat_case "chi2 accepts right / rejects wrong law" test_chi2_pools_and_rejects;
    case "exponential-mechanism law" test_exp_mech_law;
    case "stability-histogram law" test_stability_hist_law;
    case "distinguisher verdict logic" test_verdict_logic;
    case "distinguisher checks both directions" test_verdict_symmetry;
    slow_case "suite fast checks pass" test_suite_fast_checks;
    case "suite registry complete" test_suite_names_registered;
    case "grouped names partition the registry" test_grouped_names;
    case "exit-status contract" test_exit_status;
    slow_case "--only filtering: group, exact, none" test_only_filtering;
    test_exp_mech_probabilities_qcheck;
    test_local_randomizer_law_qcheck;
    slow_case "suite verdicts domain-independent" test_suite_domain_independence;
  ]
  @ deep_case "deep: composite distinguishers" (fun _ -> test_deep_composites ())
  @ deep_case "deep: utility certification" (fun _ -> test_deep_utility ())
  @ deep_case "deep: competitor distinguishers and negative control" (fun _ ->
        test_deep_competitors ())
  @ deep_case "deep: competitor utility contracts" (fun _ -> test_deep_competitor_utility ())
