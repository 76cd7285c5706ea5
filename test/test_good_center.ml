(* Algorithm 2 — GoodCenter. *)

open Testutil

let delta = 1e-6
let beta = 0.1

let test_finds_planted_center () =
  let r, _, w = small_workload ~seed:21 ~n:2000 ~axis:256 ~fraction:0.6 ~radius:0.05 () in
  let t = 1000 in
  match
    Privcluster.Good_center.run r Privcluster.Profile.practical ~eps:4.0 ~delta ~beta ~t
      ~radius:0.08 w.Workload.Synth.points
  with
  | Error f -> Alcotest.failf "unexpected failure: %a" Privcluster.Good_center.pp_failure f
  | Ok s ->
      let dist = Geometry.Vec.dist s.Privcluster.Good_center.center w.Workload.Synth.cluster_center in
      check_true (Printf.sprintf "center within 0.2 of truth (got %.3f)" dist) (dist < 0.2);
      check_true "identity projection at d=2" s.Privcluster.Good_center.identity_projection;
      check_int "k = d" 2 s.Privcluster.Good_center.jl_dim;
      check_true "private radius covers capture"
        (s.Privcluster.Good_center.private_radius > 0.);
      check_true "noisy count near t"
        (Float.abs (s.Privcluster.Good_center.noisy_count -. float_of_int t)
        < 0.6 *. float_of_int t)

let test_fails_on_uniform_data () =
  let r = rng ~seed:5 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let points = Workload.Synth.For_testing.uniform r ~grid ~n:400 in
  (* No ball of radius 0.01 holds 300 uniform points: AboveThreshold should
     never fire, or the histogram should release nothing. *)
  let failures = ref 0 in
  for _ = 1 to 5 do
    match
      Privcluster.Good_center.run r Privcluster.Profile.practical ~eps:2.0 ~delta ~beta ~t:300
        ~radius:0.01 points
    with
    | Error _ -> incr failures
    | Ok _ -> ()
  done;
  check_true "uniform data mostly fails" (!failures >= 4)

let test_jl_path_runs () =
  (* Force the JL path: d larger than the capped k. *)
  let r = rng ~seed:31 () in
  let d = 48 in
  let grid = Geometry.Grid.create ~axis_size:64 ~dim:d in
  let w =
    Workload.Synth.planted_ball r ~grid ~n:600 ~cluster_fraction:0.8 ~cluster_radius:0.15
  in
  (* The paper's k = 46·ln(2n/β) exceeds d at this scale, which would make
     the projection the identity; shrink the JL constant so k < d and the
     genuine JL + rotation path runs (with the paper's box constants). *)
  let profile =
    {
      Privcluster.Profile.paper with
      Privcluster.Profile.max_rounds = Some 400;
      jl_constant = 0.8;
    }
  in
  match
    Privcluster.Good_center.run r profile ~eps:16.0 ~delta ~beta ~t:380 ~radius:0.2
      w.Workload.Synth.points
  with
  | Error f -> Alcotest.failf "JL path failed: %a" Privcluster.Good_center.pp_failure f
  | Ok s ->
      check_true "not identity" (not s.Privcluster.Good_center.identity_projection);
      check_true "k < d" (s.Privcluster.Good_center.jl_dim < d);
      check_true "capture radius positive" (s.Privcluster.Good_center.capture_radius > 0.);
      check_int "center in R^d" d (Geometry.Vec.dim s.Privcluster.Good_center.center)

let test_validation () =
  let r = rng () in
  Alcotest.check_raises "radius > 0" (Invalid_argument "Good_center.run: radius must be positive")
    (fun () ->
      ignore
        (Privcluster.Good_center.run r Privcluster.Profile.practical ~eps:1.0 ~delta ~beta ~t:5
           ~radius:0. [| [| 0.; 0. |] |]))

let test_rounds_respected () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let points = Workload.Synth.For_testing.uniform r ~grid ~n:200 in
  let profile = { Privcluster.Profile.practical with Privcluster.Profile.max_rounds = Some 3 } in
  (* With a hopeless target the loop must stop at the cap. *)
  match
    Privcluster.Good_center.run r profile ~eps:1.0 ~delta ~beta ~t:199 ~radius:0.001 points
  with
  | Error Privcluster.Good_center.No_heavy_box -> ()
  | Error f -> Alcotest.failf "unexpected failure kind: %a" Privcluster.Good_center.pp_failure f
  | Ok s ->
      check_true "if it fired, it did so within the cap" (s.Privcluster.Good_center.rounds_used <= 3)

let suite =
  [
    case "finds the planted center" test_finds_planted_center;
    case "fails on uniform data" test_fails_on_uniform_data;
    slow_case "JL path (paper constants) runs" test_jl_path_runs;
    case "validation" test_validation;
    case "round cap respected" test_rounds_respected;
  ]
