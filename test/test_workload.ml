(* Synthetic generators, metrics, report rendering, and the harness. *)

open Testutil

let test_planted_ball_shape () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:3 in
  let w = Workload.Synth.planted_ball r ~grid ~n:500 ~cluster_fraction:0.4 ~cluster_radius:0.06 in
  check_int "n points" 500 (Array.length w.Workload.Synth.points);
  check_int "cluster size" 200 w.Workload.Synth.cluster_size;
  Array.iter
    (fun p -> check_true "on grid" (Geometry.Grid.For_testing.mem grid p))
    w.Workload.Synth.points;
  (* Every cluster point within the (inflated) planted radius. *)
  Array.iter
    (fun i ->
      check_true "cluster point inside planted ball"
        (Geometry.Vec.dist w.Workload.Synth.points.(i) w.Workload.Synth.cluster_center
        <= w.Workload.Synth.cluster_radius +. 1e-9))
    w.Workload.Synth.cluster_indices

let test_ball_point_inside () =
  let r = rng () in
  for _ = 1 to 500 do
    let p = Workload.Synth.For_testing.ball_point r ~center:[| 0.5; 0.5; 0.5 |] ~radius:0.2 in
    check_true "inside the ball" (Geometry.Vec.dist p [| 0.5; 0.5; 0.5 |] <= 0.2 +. 1e-9)
  done

let test_ball_point_not_degenerate () =
  (* Points should fill the ball, not stick to the center or the shell. *)
  let r = rng () in
  let inner = ref 0 in
  let n = 5000 in
  for _ = 1 to n do
    let p = Workload.Synth.For_testing.ball_point r ~center:[| 0.; 0. |] ~radius:1.0 in
    if Geometry.Vec.norm2 p <= 0.5 then incr inner
  done;
  (* Uniform in a 2-D disc: P(r <= 1/2) = 1/4. *)
  check_float ~tol:0.03 "radial law" 0.25 (float_of_int !inner /. float_of_int n)

let test_adversarial_minority_corner () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:2 in
  let w =
    Workload.Synth.adversarial_minority r ~grid ~n:400 ~cluster_fraction:0.3 ~cluster_radius:0.05
  in
  check_true "cluster pinned near the corner"
    (Geometry.Vec.For_testing.norm_inf w.Workload.Synth.cluster_center <= 0.2);
  let w2 =
    Workload.Synth.adversarial_minority r ~grid ~n:400 ~cluster_fraction:0.7 ~cluster_radius:0.05
  in
  check_int "majority variant falls back to planted_ball" 280 w2.Workload.Synth.cluster_size

let test_planted_balls () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:2 in
  let w = Workload.Synth.planted_balls r ~grid ~n:900 ~k:3 ~cluster_radius:0.04 ~noise_fraction:0.1 in
  check_int "k centers" 3 (Array.length w.Workload.Synth.centers);
  check_int "total points" 900 (Array.length w.Workload.Synth.all_points);
  check_int "per-cluster size" 270 w.Workload.Synth.sizes.(0)

let test_with_outliers () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:2 in
  let w = Workload.Synth.with_outliers r ~grid ~n:300 ~outlier_fraction:0.2 ~inlier_radius:0.05 in
  check_int "outlier count" 60 (Array.length w.Workload.Synth.outlier_indices);
  Array.iteri
    (fun i p ->
      if not (Array.mem i w.Workload.Synth.outlier_indices) then
        check_true "inliers inside the ball"
          (Geometry.Vec.dist p w.Workload.Synth.inlier_center
          <= w.Workload.Synth.inlier_radius +. 0.02))
    w.Workload.Synth.data

let test_estimator_outputs () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:2 in
  let y =
    Workload.Synth.estimator_outputs r ~grid ~k:200 ~good_fraction:0.6
      ~good_center:[| 0.5; 0.5 |] ~good_radius:0.05
  in
  check_int "k outputs" 200 (Array.length y);
  let close =
    Array.fold_left
      (fun acc p -> if Geometry.Vec.dist p [| 0.5; 0.5 |] < 0.08 then acc + 1 else acc)
      0 y
  in
  check_true "about 60% good" (close >= 110 && close <= 160)

(* --- Metrics --- *)

let test_metrics_score () =
  let pts = Array.map (fun x -> [| x |]) [| 0.1; 0.11; 0.12; 0.9 |] in
  let ps = Geometry.Pointset.create pts in
  let s = Workload.Metrics.score ps ~t:3 ~center:[| 0.11 |] ~radius:0.02 in
  check_int "covered" 3 s.Workload.Metrics.covered;
  check_int "delta" 0 s.Workload.Metrics.delta_measured;
  check_true "ratio consistent"
    (s.Workload.Metrics.ratio_vs_hi >= 1. && s.Workload.Metrics.ratio_vs_lo >= s.Workload.Metrics.ratio_vs_hi);
  check_true "success predicate"
    (Workload.Metrics.For_testing.success s ~t:3 ~max_delta:0 ~max_ratio:10.)

let test_tight_radius () =
  let pts = Array.map (fun x -> [| x |]) [| 0.0; 0.5; 1.0 |] in
  let ps = Geometry.Pointset.create pts in
  check_float "t=2 around 0" 0.5 (Workload.Metrics.tight_radius ps ~center:[| 0. |] ~t:2);
  check_float "t=3 around 0" 1.0 (Workload.Metrics.tight_radius ps ~center:[| 0. |] ~t:3)

let test_quantiles () =
  let xs = [ 4.; 1.; 3.; 2. ] in
  check_float "median" 2.5 (Workload.Metrics.median xs);
  check_float "q0" 1.0 (Workload.Metrics.quantile xs ~q:0.);
  check_float "q1" 4.0 (Workload.Metrics.quantile xs ~q:1.);
  check_float "mean" 2.5 (Workload.Metrics.mean xs);
  check_true "empty is nan" (Float.is_nan (Workload.Metrics.median []))

let test_score_with_bounds () =
  let pts = Array.map (fun x -> [| x |]) [| 0.1; 0.11; 0.9 |] in
  let ps = Geometry.Pointset.create pts in
  let s = Workload.Metrics.For_testing.score_with_bounds ~r_lo:0.01 ~r_hi:0.02 ps ~t:2 ~center:[| 0.105 |] ~radius:0.04 in
  check_int "covered" 2 s.Workload.Metrics.covered;
  check_float ~tol:1e-9 "ratio vs hi" 2.0 s.Workload.Metrics.ratio_vs_hi;
  check_float ~tol:1e-9 "ratio vs lo" 4.0 s.Workload.Metrics.ratio_vs_lo

let test_bounds_indexed_matches () =
  let r = rng () in
  let pts = Array.init 60 (fun _ -> [| Prim.Rng.float r 1.0; Prim.Rng.float r 1.0 |]) in
  let ps = Geometry.Pointset.create pts in
  let idx = Geometry.Pointset.build_index ps in
  let _, hi = Workload.Metrics.r_opt_bounds_indexed idx ~t:30 in
  let b = Geometry.Seb.two_approx ps ~t:30 in
  check_float ~tol:1e-12 "indexed two-approx" b.Geometry.Seb.radius hi

(* --- Report / Harness --- *)

let test_report_renders () =
  (* Smoke: table/headline/kv must not raise on ragged input. *)
  Workload.Report.headline "test";
  Workload.Report.subhead "sub";
  Workload.Report.kv "key" "value";
  Workload.Report.table ~header:[ "a"; "b" ] [ [ "1" ]; [ "22"; "333"; "4" ] ];
  check_true "f2" (Workload.Report.f2 1.234 = "1.23");
  check_true "f2 nan" (Workload.Report.f2 Float.nan = "-");
  check_true "pct" (Workload.Report.pct 0.42 = "42%");
  check_true "g" (Workload.Report.g 0.5 = "0.5")

let test_csv_export () =
  let dir = Filename.temp_file "privcluster" "csv" in
  Sys.remove dir;
  Workload.Report.set_csv_dir (Some dir);
  Workload.Report.table ~csv:"unit" ~header:[ "a"; "b" ]
    [ [ "1"; "plain" ]; [ "2"; "with,comma" ]; [ "3"; "with\"quote" ] ];
  Workload.Report.set_csv_dir None;
  let file = Filename.concat dir "unit.csv" in
  check_true "file written" (Sys.file_exists file);
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check_int "four lines" 4 (List.length lines);
  check_true "header" (List.nth lines 0 = "a,b");
  check_true "comma quoted" (List.nth lines 2 = "2,\"with,comma\"");
  check_true "quote doubled" (List.nth lines 3 = "3,\"with\"\"quote\"");
  Sys.remove file;
  Sys.rmdir dir;
  (* Without a directory set, tables with a csv name are a no-op. *)
  Workload.Report.table ~csv:"ignored" ~header:[ "x" ] [ [ "1" ] ]

let test_harness_median_scores () =
  let ok time_ms w =
    {
      Workload.Harness.time_ms;
      center = Some [| 0. |];
      radius = 1.;
      covered = 10;
      delta_measured = 0;
      w_private = w;
      w_tight = w;
      failure = None;
    }
  in
  let m = Workload.Harness.median_scores [ ok 1. 1.; ok 3. 3.; ok 2. 2. ] in
  check_float "median time" 2. m.Workload.Harness.time_ms;
  check_float "median w" 2. m.Workload.Harness.w_private;
  check_true "no failure" (m.Workload.Harness.failure = None);
  let with_fail =
    Workload.Harness.median_scores [ ok 1. 1.; Workload.Harness.failed ~time_ms:5. "boom" ]
  in
  check_true "failure counted" (with_fail.Workload.Harness.failure = Some "1/2 failed");
  let all_fail = Workload.Harness.median_scores [ Workload.Harness.failed ~time_ms:5. "x" ] in
  check_true "all failed" (all_fail.Workload.Harness.failure = Some "all trials failed")

let suite =
  [
    case "planted ball shape" test_planted_ball_shape;
    case "ball_point inside" test_ball_point_inside;
    case "ball_point radial law" test_ball_point_not_degenerate;
    case "adversarial minority" test_adversarial_minority_corner;
    case "planted balls" test_planted_balls;
    case "with outliers" test_with_outliers;
    case "estimator outputs" test_estimator_outputs;
    case "metrics score" test_metrics_score;
    case "tight radius" test_tight_radius;
    case "quantiles" test_quantiles;
    case "score with bounds" test_score_with_bounds;
    case "indexed bounds match" test_bounds_indexed_matches;
    case "report renders" test_report_renders;
    case "csv export" test_csv_export;
    case "harness medians" test_harness_median_scores;
  ]
