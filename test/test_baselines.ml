(* The Table-1 comparators. *)

open Testutil

(* --- Nonprivate --- *)

let test_nonprivate_1d_exact () =
  let pts = Array.map (fun x -> [| x |]) [| 0.1; 0.12; 0.14; 0.8; 0.9 |] in
  let a = Baselines.Nonprivate.solve (Geometry.Pointset.create pts) ~t:3 in
  check_true "exact flag in 1-D" a.Baselines.Nonprivate.exact;
  check_float ~tol:1e-12 "optimal radius" 0.02 a.Baselines.Nonprivate.radius

let test_nonprivate_bounds_sandwich () =
  let r = rng () in
  let pts = Array.init 100 (fun _ -> [| Prim.Rng.float r 1.0; Prim.Rng.float r 1.0 |]) in
  let ps = Geometry.Pointset.create pts in
  let lo, hi = Baselines.Nonprivate.r_opt_bounds ps ~t:50 in
  check_true "lo <= hi" (lo <= hi);
  check_true "feasible at hi" (hi > 0.);
  let b = Baselines.Nonprivate.For_testing.two_approx ps ~t:50 in
  check_true "two_approx within sandwich x2" (b.Baselines.Nonprivate.radius <= 2. *. hi +. 1e-9)

(* --- Exponential-mechanism solver --- *)

let test_exp_mech_cluster () =
  let r = rng ~seed:91 () in
  let grid = Geometry.Grid.create ~axis_size:64 ~dim:2 in
  let w = Workload.Synth.planted_ball r ~grid ~n:600 ~cluster_fraction:0.4 ~cluster_radius:0.05 in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  let t = 200 in
  let res = Baselines.Exp_mech_cluster.run r ~grid ~eps:2.0 ~t ps in
  check_int "candidates" (64 * 64) res.Baselines.Exp_mech_cluster.candidates;
  let covered =
    Geometry.Pointset.ball_count ps ~center:res.Baselines.Exp_mech_cluster.center
      ~radius:(2. *. res.Baselines.Exp_mech_cluster.radius)
  in
  check_true (Printf.sprintf "covers most of t (%d/%d)" covered t) (covered >= t - 60)

let test_exp_mech_refuses_blowup () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:8 in
  check_true "count saturates"
    (Baselines.Exp_mech_cluster.candidate_count grid > Baselines.Exp_mech_cluster.max_candidates);
  Alcotest.check_raises "refuses"
    (Invalid_argument
       "Exp_mech_cluster.run: candidate set too large (that is the point of the paper)")
    (fun () ->
      ignore
        (Baselines.Exp_mech_cluster.run r ~grid ~eps:1.0 ~t:1
           (Geometry.Pointset.create [| Array.make 8 0.5 |])))

(* --- Threshold release --- *)

let test_tree_counts_accurate () =
  let r = rng ~seed:93 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:1 in
  let values = Array.init 2000 (fun i -> float_of_int (i mod 256) /. 255.) in
  let tree = Baselines.Threshold_release.release r ~grid ~eps:2.0 values in
  check_true "levels about log |X|" (Baselines.Threshold_release.For_testing.levels tree >= 8);
  (* True count in [0.25, 0.5] vs released. *)
  let truth =
    Array.fold_left (fun acc x -> if x >= 0.25 && x <= 0.5 then acc + 1 else acc) 0 values
  in
  let est = Baselines.Threshold_release.range_count tree ~lo:0.25 ~hi:0.5 in
  let bound = Baselines.Threshold_release.query_error_bound ~grid ~eps:2.0 ~beta:0.05 in
  check_true
    (Printf.sprintf "range count %.0f within %.0f of %d" est bound truth)
    (Float.abs (est -. float_of_int truth) <= bound)

let test_tree_full_range_total () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:64 ~dim:1 in
  let values = Array.init 500 (fun _ -> Prim.Rng.float r 1.0) in
  let tree = Baselines.Threshold_release.release r ~grid ~eps:2.0 values in
  let est = Baselines.Threshold_release.range_count tree ~lo:0. ~hi:1. in
  check_true "total roughly n" (Float.abs (est -. 500.) < 80.)

let test_threshold_release_finds_interval () =
  let r = rng ~seed:95 () in
  let grid = Geometry.Grid.create ~axis_size:1024 ~dim:1 in
  let w = Workload.Synth.planted_ball r ~grid ~n:3000 ~cluster_fraction:0.5 ~cluster_radius:0.03 in
  let values = Array.map (fun p -> p.(0)) w.Workload.Synth.points in
  let t = 1350 in
  let res = Baselines.Threshold_release.run r ~grid ~eps:2.0 ~beta:0.1 ~t values in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  let covered =
    Geometry.Pointset.ball_count ps ~center:res.Baselines.Threshold_release.center
      ~radius:(res.Baselines.Threshold_release.radius +. 0.01)
  in
  check_true
    (Printf.sprintf "interval captures most of t (%d/%d)" covered t)
    (covered > t - 700);
  check_true "radius near optimal (w = 1 row)"
    (res.Baselines.Threshold_release.radius <= 3. *. w.Workload.Synth.cluster_radius)

let test_smallest_interval_direct () =
  let r = rng ~seed:101 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:1 in
  (* 500 points packed into [0.40, 0.44], 100 spread out. *)
  let values =
    Array.init 600 (fun i ->
        if i < 500 then 0.40 +. Prim.Rng.float r 0.04 else Prim.Rng.float r 1.0)
  in
  let tree = Baselines.Threshold_release.release r ~grid ~eps:4.0 values in
  let res = Baselines.Threshold_release.For_testing.smallest_interval tree ~t:450 ~slack:50. in
  check_true "centered on the packed region"
    (Float.abs (res.Baselines.Threshold_release.center.(0) -. 0.42) < 0.05);
  check_true "short interval" (res.Baselines.Threshold_release.radius < 0.1);
  check_true "estimated count plausible" (res.Baselines.Threshold_release.estimated_count > 300.)

let test_tree_requires_1d () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:16 ~dim:2 in
  Alcotest.check_raises "1-D only"
    (Invalid_argument "Threshold_release.release: grid must be 1-D") (fun () ->
      ignore (Baselines.Threshold_release.release r ~grid ~eps:1.0 [| 0.5 |]))

(* --- Private aggregation --- *)

let test_coordinate_median () =
  let r = rng ~seed:97 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:1 in
  let coords = Array.init 1001 (fun i -> float_of_int i /. 2000.) in
  (* True median 0.25; private median lands close at high eps. *)
  let m = Baselines.Private_agg.For_testing.coordinate_median r ~grid ~eps:4.0 coords in
  check_in_range "median close" ~lo:0.2 ~hi:0.3 m

let test_private_agg_majority () =
  let r = rng ~seed:99 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let w = Workload.Synth.planted_ball r ~grid ~n:1500 ~cluster_fraction:0.8 ~cluster_radius:0.05 in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  let res = Baselines.Private_agg.run r ~grid ~eps:2.0 ~t:1000 ps in
  check_true "center inside cluster ball"
    (Geometry.Vec.dist res.Baselines.Private_agg.center w.Workload.Synth.cluster_center
    < 3. *. w.Workload.Synth.cluster_radius);
  let covered =
    Geometry.Pointset.ball_count ps ~center:res.Baselines.Private_agg.center
      ~radius:res.Baselines.Private_agg.radius
  in
  check_true "radius search covers" (covered > 800)

let test_gupt_average () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let points = Array.init 5000 (fun _ -> [| 0.4; 0.6 |]) in
  let avg = Baselines.Private_agg.gupt_average r ~grid ~eps:1.0 ~delta:1e-6 points in
  check_float ~tol:0.02 "x" 0.4 avg.(0);
  check_float ~tol:0.02 "y" 0.6 avg.(1)

let suite =
  [
    case "non-private exact 1-D" test_nonprivate_1d_exact;
    case "non-private sandwich" test_nonprivate_bounds_sandwich;
    case "exp-mech cluster" test_exp_mech_cluster;
    case "exp-mech refuses blowup" test_exp_mech_refuses_blowup;
    case "tree counts accurate" test_tree_counts_accurate;
    case "tree full-range total" test_tree_full_range_total;
    case "threshold release finds the interval" test_threshold_release_finds_interval;
    case "smallest interval direct" test_smallest_interval_direct;
    case "tree requires 1-D" test_tree_requires_1d;
    case "coordinate median" test_coordinate_median;
    case "private-agg on a majority cluster" test_private_agg_majority;
    case "gupt average" test_gupt_average;
  ]
