(* Robustness and degenerate-input behaviour across the stack: tiny inputs,
   all-identical points, extreme parameters, and non-promised inputs.  The
   contract under stress is "fail loudly or degrade gracefully" — never a
   crash, never silent nonsense. *)

open Testutil

let delta = 1e-6
let beta = 0.1

let test_one_cluster_tiny_input () =
  let grid = Geometry.Grid.create ~axis_size:16 ~dim:1 in
  let r = rng () in
  (* Nine points is near the bare minimum; the run must terminate with a
     typed outcome either way. *)
  let points = Array.init 9 (fun i -> [| float_of_int i /. 15. |]) in
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:1.0 ~delta ~beta
      ~t:5 points
  with
  | Ok result -> check_true "radius finite" (Float.is_finite result.Privcluster.One_cluster.radius)
  | Error _ -> ()

let test_one_cluster_all_identical () =
  let grid = Geometry.Grid.create ~axis_size:64 ~dim:3 in
  let r = rng () in
  let p = Geometry.Grid.snap grid [| 0.4; 0.4; 0.4 |] in
  let points = Array.make 400 p in
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:2.0 ~delta ~beta
      ~t:300 points
  with
  | Ok result ->
      check_float "radius 0 on identical data" 0. result.Privcluster.One_cluster.radius;
      check_true "center is the point" (Geometry.Vec.For_testing.equal result.Privcluster.One_cluster.center p)
  | Error f -> Alcotest.failf "identical data should be easy: %a" Privcluster.One_cluster.pp_failure f

let test_one_cluster_t_equals_n () =
  let r, grid, w = small_workload ~n:400 ~fraction:1.0 ~radius:0.08 () in
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:4.0 ~delta ~beta
      ~t:400 w.Workload.Synth.points
  with
  | Ok result ->
      check_true "radius covers something" (result.Privcluster.One_cluster.radius >= 0.)
  | Error _ -> ()

let test_good_radius_t_one () =
  let r, grid, w = small_workload ~n:200 () in
  let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Workload.Synth.points) in
  let result =
    Privcluster.Good_radius.run r Privcluster.Profile.practical ~grid ~eps:2.0 ~delta ~beta ~t:1
      idx
  in
  (* t = 1: every single point is a radius-0 cluster; the zero shortcut or a
     tiny radius are both correct. *)
  check_true "t=1 yields a small radius"
    (result.Privcluster.Good_radius.radius <= Geometry.Grid.diameter grid)

let test_rec_concave_non_quasi_concave_terminates () =
  (* The promise can be violated by callers; the algorithm must still
     terminate and return a valid index (no guarantee on quality). *)
  let r = rng () in
  let a = Array.init 5000 (fun i -> if i mod 97 = 0 then 100. else float_of_int (i mod 7)) in
  let report = Recconcave.Rec_concave.solve r ~eps:1.0 (Recconcave.Quality.of_array a) in
  check_in_range "valid index" ~lo:0. ~hi:4999. (float_of_int report.Recconcave.Rec_concave.chosen)

let test_monotone_search_on_constant () =
  let r = rng () in
  let a = Array.make 1000 5. in
  let res =
    Recconcave.Monotone_search.solve r ~eps:2.0 ~sensitivity:1.0 ~target:5.
      (Recconcave.Quality.of_array a)
  in
  check_in_range "some index" ~lo:0. ~hi:999. (float_of_int res.Recconcave.Monotone_search.index)

let test_extreme_epsilon () =
  let r, grid, w = small_workload ~n:400 ~fraction:0.6 () in
  (* Absurdly small ε: the pipeline must still terminate (utility is gone,
     the certified Δ says so). *)
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:0.001 ~delta ~beta
      ~t:200 w.Workload.Synth.points
  with
  | Ok result ->
      check_true "certified loss is honest (huge)"
        (result.Privcluster.One_cluster.delta_bound > 1000.)
  | Error _ -> ()

let test_huge_epsilon_recovers_truth () =
  let r, grid, w = small_workload ~seed:15 ~n:800 ~fraction:0.6 ~radius:0.05 () in
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:100.0 ~delta ~beta
      ~t:400 w.Workload.Synth.points
  with
  | Ok result ->
      check_true "near-noiseless run is accurate"
        (Geometry.Vec.dist result.Privcluster.One_cluster.center w.Workload.Synth.cluster_center
        < 0.1)
  | Error f -> Alcotest.failf "huge eps should not fail: %a" Privcluster.One_cluster.pp_failure f

let test_stability_hist_empty () =
  let r = rng () in
  check_true "empty cell list yields None"
    (Prim.Stability_hist.select r ~eps:1.0 ~delta:1e-6 ([] : (int * int) list) = None);
  check_true "empty data count_by" (Prim.Stability_hist.count_by ~key:(fun x -> x) [||] = [])

let test_kdtree_single_point () =
  let tree = Geometry.Kdtree.For_testing.build [| [| 0.5; 0.5 |] |] in
  check_int "count self" 1 (Geometry.Kdtree.count_within tree ~center:[| 0.5; 0.5 |] ~radius:0.)

let test_threshold_release_uniform_vs_empty_range () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:1 in
  let tree = Baselines.Threshold_release.release r ~grid ~eps:4.0 (Array.make 1000 0.25) in
  let at_mass = Baselines.Threshold_release.range_count tree ~lo:0.2 ~hi:0.3 in
  let away = Baselines.Threshold_release.range_count tree ~lo:0.7 ~hi:0.8 in
  check_true "mass where the data is" (at_mass > 900.);
  check_true "little mass elsewhere" (Float.abs away < 100.);
  check_float "inverted range" 0. (Baselines.Threshold_release.range_count tree ~lo:0.9 ~hi:0.1)

let test_grid_min_axis () =
  let g = Geometry.Grid.create ~axis_size:2 ~dim:1 in
  check_float "step 1" 1.0 (Geometry.Grid.step g);
  check_true "two candidates at least" (Geometry.Grid.radius_candidates g >= 2);
  check_true "geometric covers" (Geometry.Grid.geometric_candidates g >= 2)

let test_sample_aggregate_constant_f () =
  (* A constant analysis is perfectly stable: SA must find its value. *)
  let r = rng ~seed:19 () in
  let grid = Geometry.Grid.create ~axis_size:64 ~dim:1 in
  let point = Geometry.Grid.snap grid [| 0.7 |] in
  match
    Privcluster.Sample_aggregate.run r Privcluster.Profile.practical ~grid ~eps:2.0 ~delta ~beta
      ~m:5 ~alpha:0.9
      ~f:(fun _ -> point)
      (Array.make 20_000 0)
  with
  | Ok result ->
      check_true "zero-radius stable point"
        (Geometry.Vec.dist result.Privcluster.Sample_aggregate.stable_point point < 0.05)
  | Error f -> Alcotest.failf "constant f should be trivial: %a" Privcluster.One_cluster.pp_failure f

let suite =
  [
    case "one-cluster on tiny input" test_one_cluster_tiny_input;
    case "one-cluster on identical points" test_one_cluster_all_identical;
    case "one-cluster with t = n" test_one_cluster_t_equals_n;
    case "good-radius with t = 1" test_good_radius_t_one;
    case "rec-concave without the promise" test_rec_concave_non_quasi_concave_terminates;
    case "monotone search on a constant" test_monotone_search_on_constant;
    case "extreme small epsilon" test_extreme_epsilon;
    case "huge epsilon recovers truth" test_huge_epsilon_recovers_truth;
    case "stability hist on empty input" test_stability_hist_empty;
    case "kdtree single point" test_kdtree_single_point;
    case "threshold release ranges" test_threshold_release_uniform_vs_empty_range;
    case "grid minimum axis" test_grid_min_axis;
    slow_case "sample-aggregate constant analysis" test_sample_aggregate_constant_f;
  ]
