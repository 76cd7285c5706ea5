(* The end-to-end 1-cluster pipeline (Theorem 3.2). *)

open Testutil

let delta = 1e-6
let beta = 0.1

let test_end_to_end_planted () =
  let r, grid, w = small_workload ~seed:41 ~n:2500 ~axis:256 ~fraction:0.55 ~radius:0.05 () in
  let t = 1200 in
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:4.0 ~delta ~beta ~t
      w.Workload.Synth.points
  with
  | Error f -> Alcotest.failf "pipeline failed: %a" Privcluster.One_cluster.pp_failure f
  | Ok result ->
      let ps = Geometry.Pointset.create w.Workload.Synth.points in
      let covered =
        Geometry.Pointset.ball_count ps ~center:result.Privcluster.One_cluster.center
          ~radius:result.Privcluster.One_cluster.radius
      in
      check_true
        (Printf.sprintf "covers t - certified (%d vs %d - %.0f)" covered t
           result.Privcluster.One_cluster.delta_bound)
        (float_of_int covered >= float_of_int t -. result.Privcluster.One_cluster.delta_bound);
      check_true "center near planted"
        (Geometry.Vec.dist result.Privcluster.One_cluster.center w.Workload.Synth.cluster_center
        < 0.25);
      check_true "center stage present" (result.Privcluster.One_cluster.center_stage <> None);
      check_int "t recorded" t result.Privcluster.One_cluster.t_requested;
      (* Clamping: the center must lie in the unit cube. *)
      Array.iter
        (fun c -> check_in_range "center clamped" ~lo:0. ~hi:1. c)
        result.Privcluster.One_cluster.center

let test_zero_path () =
  let grid = Geometry.Grid.create ~axis_size:64 ~dim:2 in
  let r = rng ~seed:43 () in
  let heavy = Geometry.Grid.snap grid [| 0.25; 0.75 |] in
  let points =
    Array.init 700 (fun i -> if i < 600 then heavy else Geometry.Grid.random_point grid r)
  in
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:2.0 ~delta ~beta
      ~t:500 points
  with
  | Error f -> Alcotest.failf "zero path failed: %a" Privcluster.One_cluster.pp_failure f
  | Ok result ->
      check_float "radius 0" 0. result.Privcluster.One_cluster.radius;
      check_true "no center stage" (result.Privcluster.One_cluster.center_stage = None);
      check_true "found the heavy point"
        (Geometry.Vec.For_testing.equal ~tol:1e-9 result.Privcluster.One_cluster.center heavy)

let test_run_indexed_consistent () =
  let r1 = rng ~seed:77 () and r2 = rng ~seed:77 () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:2 in
  let w =
    Workload.Synth.planted_ball (rng ~seed:1 ()) ~grid ~n:600 ~cluster_fraction:0.6
      ~cluster_radius:0.05
  in
  let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Workload.Synth.points) in
  let a =
    Privcluster.One_cluster.run r1 Privcluster.Profile.practical ~grid ~eps:4.0 ~delta ~beta
      ~t:300 w.Workload.Synth.points
  in
  let b =
    Privcluster.One_cluster.run_indexed r2 Privcluster.Profile.practical ~grid ~eps:4.0 ~delta
      ~beta ~t:300 idx
  in
  match (a, b) with
  | Ok ra, Ok rb ->
      (* Same seed, same data: identical results. *)
      check_true "same center"
        (Geometry.Vec.For_testing.equal ~tol:1e-12 ra.Privcluster.One_cluster.center
           rb.Privcluster.One_cluster.center);
      check_float "same radius" ra.Privcluster.One_cluster.radius rb.Privcluster.One_cluster.radius
  | _ -> Alcotest.fail "one of the runs failed"

let test_recommended_min_t () =
  let grid2 = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let m eps =
    Privcluster.One_cluster.recommended_min_t Privcluster.Profile.practical ~grid:grid2 ~eps
      ~delta ~beta ~n:3000
  in
  check_true "positive" (m 2.0 > 0.);
  check_true "decreasing in eps" (m 4.0 < m 1.0)

let test_budget_breakdown () =
  let eps = 2.0 and delta_total = 1e-6 in
  List.iter
    (fun d ->
      let charges =
        Privcluster.One_cluster.budget_breakdown Privcluster.Profile.practical ~eps
          ~delta:delta_total ~d
      in
      check_int "six ledger rows" 6 (List.length charges);
      let total = Prim.Composition.basic_list (List.map snd charges) in
      (* Summing the ledger under basic composition stays within (ε, δ). *)
      check_true
        (Printf.sprintf "total eps %.3f within budget" (Prim.Dp.eps total))
        (Prim.Dp.eps total <= eps +. 1e-9);
      check_true "total delta within budget" (Prim.Dp.delta total <= delta_total +. 1e-12);
      (* The axis row's advanced-composition total respects Lemma 4.11's
         ε_c/4 allotment. *)
      let _, axes = List.nth charges 4 in
      check_true "axes within eps_c/4" (Prim.Dp.eps axes <= (eps /. 2. /. 4.) +. 1e-9))
    [ 1; 2; 8; 64 ]

let test_failure_reported () =
  let r = rng ~seed:9 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let points = Workload.Synth.For_testing.uniform r ~grid ~n:300 in
  (* Demand an impossibly tight cluster: either the radius stage returns a
     big (harmless) radius or the center stage fails; both must be reported
     without raising. *)
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:1.0 ~delta ~beta
      ~t:290 points
  with
  | Error f ->
      let s = Format.asprintf "%a" Privcluster.One_cluster.pp_failure f in
      check_true "failure printable" (String.length s > 0)
  | Ok result -> check_true "radius positive" (result.Privcluster.One_cluster.radius >= 0.)

let suite =
  [
    slow_case "end-to-end planted workload" test_end_to_end_planted;
    case "radius-zero path" test_zero_path;
    case "run vs run_indexed" test_run_indexed_consistent;
    case "recommended_min_t" test_recommended_min_t;
    case "budget breakdown" test_budget_breakdown;
    case "failures reported, not raised" test_failure_reported;
  ]
