(* The private MEB fPTAS competitor: the non-private coreset fact it rests
   on (a sampled Bădoiu–Clarkson ball is within a modest factor of the
   full-data ball), the explicit privacy ledger, planted-workload utility,
   replay determinism, kernel-tier identity, and the engine job kind. *)

open Testutil

module M = Baselines.Meb_fptas

(* ---- the non-private coreset fact ------------------------------------ *)

let test_coreset_radius_vs_exhaustive r =
  (* Bădoiu–Clarkson on a 400-point uniform sample vs on all points: the
     sampled ball, inflated to cover the sample's discretization error,
     stays within 1.2x of the exhaustive radius across cluster shapes. *)
  List.iteri
    (fun i (fraction, radius) ->
      let r = Prim.Rng.derive r ~stream:i in
      let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
      let w =
        Workload.Synth.planted_ball r ~grid ~n:8_000 ~cluster_fraction:fraction
          ~cluster_radius:radius
      in
      let pts = w.Workload.Synth.points in
      let full = Geometry.Seb.For_testing.min_enclosing_ball pts in
      let sample = Prim.Rng.sample_with_replacement r ~k:400 pts in
      let core = Geometry.Seb.For_testing.min_enclosing_ball sample in
      check_true
        (Printf.sprintf "case %d: coreset radius %.4f within [%.4f/1.2, 1.2*%.4f]" i
           core.Geometry.Seb.radius full.Geometry.Seb.radius full.Geometry.Seb.radius)
        (core.Geometry.Seb.radius <= 1.2 *. full.Geometry.Seb.radius
        && core.Geometry.Seb.radius >= full.Geometry.Seb.radius /. 1.2))
    [ (0.9, 0.05); (0.6, 0.1); (1.0, 0.3) ]

(* ---- the privacy ledger ---------------------------------------------- *)

let test_budget_breakdown_composes =
  qcheck "stage charges compose within (eps, delta)"
    QCheck2.Gen.(
      triple (float_range 0.2 4.0) (float_range 1e-9 1e-5) (int_range 1_000 50_000))
    (fun (eps, delta, n) ->
      let stages = M.For_testing.budget_breakdown ~eps ~delta ~n ~coreset:400 in
      let total =
        Prim.Composition.basic_list (List.map snd stages)
      in
      List.length stages = 3
      && total.Prim.Dp.eps <= eps +. 1e-9
      && total.Prim.Dp.delta <= delta +. 1e-15)

let test_breakdown_amplification () =
  (* The coreset stage's charge is the amplified secrecy-of-subsample
     cost, so growing n with a fixed coreset must shrink it. *)
  let charge n =
    match M.For_testing.budget_breakdown ~eps:1.0 ~delta:1e-6 ~n ~coreset:400 with
    | (_, c) :: _ -> c.Prim.Dp.eps
    | [] -> Alcotest.fail "empty breakdown"
  in
  check_true "amplification engages as n grows" (charge 100_000 < charge 2_000)

(* ---- planted workloads ----------------------------------------------- *)

let test_planted_majority_radius r =
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let w =
    Workload.Synth.planted_ball r ~grid ~n:10_000 ~cluster_fraction:0.9 ~cluster_radius:0.05
  in
  let t = int_of_float (0.85 *. float_of_int w.Workload.Synth.cluster_size) in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  match M.run r ~grid ~eps:1.0 ~delta:1e-6 ~t ps with
  | Error f -> Alcotest.failf "planted run failed: %a" M.pp_failure f
  | Ok res ->
      let covered = Geometry.Pointset.ball_count ps ~center:res.M.center ~radius:res.M.radius in
      check_true
        (Printf.sprintf "covers most of t (%d vs %d)" covered t)
        (float_of_int covered >= 0.9 *. float_of_int t);
      check_true
        (Printf.sprintf "radius %.4f not wildly loose" res.M.radius)
        (res.M.radius <= 20. *. w.Workload.Synth.cluster_radius);
      check_int "coreset capped at default" M.For_testing.default_coreset res.M.coreset_size;
      check_int "default rounds" M.For_testing.default_rounds res.M.refinement_rounds;
      Array.iter (fun c -> check_in_range "center in the cube" ~lo:0. ~hi:1. c) res.M.center

let test_tiny_database_bottom r =
  (* With 3 users and a strict eps the NoisyAVG count bound goes
     non-positive: the only failure mode, surfaced not raised. *)
  let grid = Geometry.Grid.create ~axis_size:64 ~dim:2 in
  let ps = Geometry.Pointset.create [| [| 0.5; 0.5 |]; [| 0.51; 0.5 |]; [| 0.5; 0.51 |] |] in
  match M.run r ~grid ~eps:0.1 ~delta:1e-9 ~t:2 ps with
  | Error M.Center_bottom -> ()
  | Ok res -> Alcotest.failf "expected bottom on a tiny database, got %a" M.For_testing.pp_result res

(* ---- determinism ------------------------------------------------------ *)

let test_replay_determinism () =
  let mk () =
    let r = rng ~seed:5150 () in
    let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
    let w =
      Workload.Synth.planted_ball r ~grid ~n:6_000 ~cluster_fraction:0.9 ~cluster_radius:0.06
    in
    let ps = Geometry.Pointset.create w.Workload.Synth.points in
    M.run (Prim.Rng.derive r ~stream:9) ~grid ~eps:1.0 ~delta:1e-6
      ~t:(int_of_float (0.85 *. float_of_int w.Workload.Synth.cluster_size))
      ps
  in
  match (mk (), mk ()) with
  | Ok a, Ok b ->
      check_true "same center" (Geometry.Vec.For_testing.equal ~tol:0. a.M.center b.M.center);
      check_float ~tol:0. "same radius" a.M.radius b.M.radius
  | Error M.Center_bottom, Error M.Center_bottom -> ()
  | _ -> Alcotest.fail "replay diverged"

let with_native_forced on f =
  let before = Kernel.native_active () in
  Kernel.set_native on;
  Fun.protect ~finally:(fun () -> Kernel.set_native before) f

let test_kernel_tier_identity () =
  (* The ball-count kernels MEB leans on are bit-identical across tiers,
     so the whole private pipeline must be too. *)
  let run () =
    let r = rng ~seed:808 () in
    let grid = Geometry.Grid.create ~axis_size:128 ~dim:3 in
    let w =
      Workload.Synth.planted_ball r ~grid ~n:5_000 ~cluster_fraction:0.9 ~cluster_radius:0.08
    in
    let ps = Geometry.Pointset.create w.Workload.Synth.points in
    M.run r ~grid ~eps:1.0 ~delta:1e-6
      ~t:(int_of_float (0.8 *. float_of_int w.Workload.Synth.cluster_size))
      ps
  in
  let a = with_native_forced true run and b = with_native_forced false run in
  match (a, b) with
  | Ok a, Ok b ->
      check_true "native and reference tiers agree"
        (Geometry.Vec.For_testing.equal ~tol:0. a.M.center b.M.center && a.M.radius = b.M.radius)
  | Error M.Center_bottom, Error M.Center_bottom -> ()
  | _ -> Alcotest.fail "tiers diverged"

(* ---- the engine job kind ---------------------------------------------- *)

let p ~eps ~delta = { Prim.Dp.eps; delta }

let batch_results ~domains ~seed =
  let service = Engine.Service.create ~domains ~seed ~faults:Engine.Faults.none () in
  let r = rng ~seed:6 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let w =
    Workload.Synth.planted_ball r ~grid ~n:8_000 ~cluster_fraction:0.9 ~cluster_radius:0.05
  in
  let ds =
    Engine.Service.register service ~name:"meb" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
      w.Workload.Synth.points
  in
  ( Engine.Registry.pointset ds,
    Engine.Service.run_batch service ~dataset:ds
    [
      {
        Engine.Job.id = "m";
        kind = Engine.Job.Meb { t_fraction = 0.8; coreset = 200 };
        eps = 1.0;
        delta = 1e-7;
        beta = 0.1;
        deadline_s = None;
        fallback = false;
      };
    ] )

let canonical results =
  List.map
    (fun (r : Engine.Job.result) ->
      (r.Engine.Job.spec.Engine.Job.id, Engine.Job.status_name r.Engine.Job.status,
       Engine.Job.detail r))
    results

let test_engine_job_kind () =
  let ps, r1 = batch_results ~domains:1 ~seed:31 in
  (match r1 with
  | [ r ] -> (
      check_true "job ok" (Engine.Job.status_name r.Engine.Job.status = "ok");
      match r.Engine.Job.status with
      | Engine.Job.Completed (Engine.Job.Cluster { ball; t; _ }) ->
          check_true "t from t_fraction" (t = 6_400);
          check_true "ball covers something"
            (Geometry.Pointset.ball_count ps ~center:ball.Engine.Job.center
               ~radius:ball.Engine.Job.radius
            > 0)
      | _ -> Alcotest.fail "expected a Cluster output")
  | _ -> Alcotest.fail "expected exactly one result");
  let _, r4 = batch_results ~domains:4 ~seed:31 in
  Alcotest.(check (list (triple string string string)))
    "4 domains bit-identical to 1 domain" (canonical r1) (canonical r4)

let test_job_line_parse () =
  (match Engine.Job.parse "meb_fptas t_fraction=0.8 coreset=200 eps=1 delta=1e-7 id=m" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ spec ] -> (
      match spec.Engine.Job.kind with
      | Engine.Job.Meb { t_fraction; coreset } ->
          check_float "t_fraction" 0.8 t_fraction;
          check_int "coreset" 200 coreset
      | _ -> Alcotest.fail "wrong kind")
  | Ok _ -> Alcotest.fail "expected one spec");
  (match Engine.Job.parse "meb_fptas eps=1 delta=1e-7 id=m" with
  | Ok [ { Engine.Job.kind = Engine.Job.Meb { coreset; _ }; _ } ] ->
      check_int "coreset defaults" 400 coreset
  | _ -> Alcotest.fail "default-coreset line must parse");
  match Engine.Job.parse "meb_fptas coreset=zero eps=1 delta=1e-7 id=m" with
  | Error e -> check_true "bad coreset mentions the key" (String.length e > 0)
  | Ok _ -> Alcotest.fail "bad coreset value must be rejected"

let suite =
  [
    stat_slow_case "sampled Badoiu-Clarkson ball vs exhaustive" test_coreset_radius_vs_exhaustive;
    test_budget_breakdown_composes;
    case "subsample amplification shrinks the coreset charge" test_breakdown_amplification;
    stat_slow_case "planted majority: coverage and radius" test_planted_majority_radius;
    stat_case "tiny database surfaces Center_bottom" test_tiny_database_bottom;
    case "derived-stream replay is bit-identical" test_replay_determinism;
    case "native and reference kernel tiers agree" test_kernel_tier_identity;
    slow_case "engine job kind: run, output, domain independence" test_engine_job_kind;
    case "jobs-file lines: parse, default, rejection" test_job_line_parse;
  ]
