(* The local-model (LDP) 1-cluster competitor: exact algebraic laws of the
   randomizer and its debiasing inverse, planted-workload utility, the
   vacuous-certificate refusal, replay determinism, kernel-tier identity,
   and the engine job kind end to end. *)

open Testutil

module L = Privcluster.Local_cluster

(* ---- exact laws of the randomizer ---------------------------------- *)

let eps_k_gen =
  QCheck2.Gen.(
    triple (float_range 0.05 4.0) (int_range 2 40) (int_range 0 1000))

(* The exact law sums to 1, but its k computed terms do not telescope
   under naive left-to-right summation: by the recursive-summation bound
   the sum errs by at most (k - 1) u (u = epsilon_float / 2, the unit
   roundoff; the terms are nonnegative and sum to 1), and the terms carry
   a few u of their own rounding.  k * epsilon_float covers both; it is an
   ulp-scale bound, not a statistical slack. *)
let law_sums_to_one (eps, k, cell_raw) =
  let law = L.law ~eps ~k ~cell:(cell_raw mod k) in
  Float.abs (Array.fold_left ( +. ) 0. law -. 1.) <= float_of_int k *. epsilon_float

let test_law_sums_to_one = qcheck "randomizer law sums to 1 exactly" eps_k_gen law_sums_to_one

(* QCHECK_SEED=719177435 drew a law whose sum is 10 ulp off 1.0, over the
   former fixed 8-ulp tolerance. *)
let test_law_sums_to_one_pinned =
  qcheck ~seed:719177435 "randomizer law sums to 1, seed 719177435" eps_k_gen law_sums_to_one

let test_law_ratio =
  qcheck "p_keep / p_other = e^eps exactly" eps_k_gen (fun (eps, k, _) ->
      let r = L.For_testing.p_keep ~eps ~k /. L.For_testing.p_other ~eps ~k in
      Float.abs (r -. exp eps) <= 1e-9 *. exp eps)

let test_debias_sums_to_n =
  (* For ANY report vector with total n — not just plausible ones — the
     debiased estimates sum to exactly n: the estimator is the linear
     inverse of the randomizer's expectation operator. *)
  qcheck "debias sums to n for any report vector"
    QCheck2.Gen.(
      triple (float_range 0.05 4.0) (int_range 2 20) (list_size (int_range 1 100) (int_range 0 50)))
    (fun (eps, k, raw) ->
      let counts = Array.make k 0 in
      List.iter (fun v -> counts.(v mod k) <- counts.(v mod k) + 1) raw;
      let n = List.length raw in
      let est = L.For_testing.debias ~eps ~k ~n counts in
      let sum = Array.fold_left ( +. ) 0. est in
      Float.abs (sum -. float_of_int n) <= 1e-6 *. float_of_int (max 1 n))

let test_randomize_unbiased_after_debias r =
  (* Statistical: many randomized reports of a fixed histogram, debiased,
     must recover the true histogram within a few standard errors. *)
  let eps = 1.0 and k = 8 and n = 40_000 in
  let truth = [| 20_000; 10_000; 5_000; 5_000; 0; 0; 0; 0 |] in
  let counts = Array.make k 0 in
  let i = ref 0 in
  Array.iteri
    (fun cell c ->
      for _ = 1 to c do
        let report = L.randomize (Prim.Rng.derive r ~stream:!i) ~eps ~k cell in
        counts.(report) <- counts.(report) + 1;
        incr i
      done)
    truth;
  let est = L.For_testing.debias ~eps ~k ~n counts in
  (* Per-cell standard error of the debiased estimate is ≤ √n / (p − q). *)
  let p = L.For_testing.p_keep ~eps ~k and q = L.For_testing.p_other ~eps ~k in
  let se = sqrt (float_of_int n) /. (p -. q) in
  Array.iteri
    (fun j e ->
      check_true
        (Printf.sprintf "cell %d: |%.0f - %d| within 4 se = %.0f" j e truth.(j) (4. *. se))
        (Float.abs (e -. float_of_int truth.(j)) <= 4. *. se))
    est

(* ---- the planner ---------------------------------------------------- *)

let test_plan_shape () =
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let scales = L.For_testing.plan ~grid ~eps:2.0 ~n:10_000 () in
  check_true "at least two scales" (Array.length scales >= 2);
  Array.iteri
    (fun l s ->
      check_int "dyadic" (2 lsl l) s.L.cells_per_axis;
      check_float ~tol:1e-12 "cell side" (1. /. float_of_int s.L.cells_per_axis) s.L.cell_side;
      check_true "cells within cap" (s.L.cells <= 4096);
      check_true "positive slack" (s.L.slack > 0.))
    scales;
  let total = Array.fold_left (fun acc s -> acc + s.L.group_size) 0 scales in
  check_int "groups partition the users" 10_000 total

(* ---- planted workloads ---------------------------------------------- *)

let test_planted_success r =
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let w =
    Workload.Synth.planted_ball r ~grid ~n:20_000 ~cluster_fraction:0.6 ~cluster_radius:0.05
  in
  let t = int_of_float (0.8 *. float_of_int w.Workload.Synth.cluster_size) in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  match L.run r ~grid ~eps:2.0 ~t ps with
  | Error f -> Alcotest.failf "planted run failed: %a" L.pp_failure f
  | Ok res ->
      let covered = Geometry.Pointset.ball_count ps ~center:res.L.center ~radius:res.L.radius in
      check_true "certificate non-vacuous" (res.L.delta_bound < float_of_int t);
      check_true
        (Printf.sprintf "covers t - delta (%d vs %d - %.0f)" covered t res.L.delta_bound)
        (float_of_int covered >= float_of_int t -. res.L.delta_bound);
      let s = res.L.scales.(res.L.scale_index) in
      check_float ~tol:1e-12 "radius is the block ball" (s.L.cell_side *. sqrt 2.) res.L.radius;
      Array.iter (fun c -> check_in_range "center in the cube" ~lo:0. ~hi:1. c) res.L.center

let test_too_small_database_refuses r =
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let w =
    Workload.Synth.planted_ball r ~grid ~n:800 ~cluster_fraction:0.35 ~cluster_radius:0.05
  in
  let t = int_of_float (0.8 *. float_of_int w.Workload.Synth.cluster_size) in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  match L.run r ~grid ~eps:2.0 ~t ps with
  | Ok res -> Alcotest.failf "expected a refusal, got %a" L.For_testing.pp_result res
  | Error (L.All_certificates_vacuous { t = t'; min_delta }) ->
      check_int "failure echoes t" t t';
      check_true "min delta indeed reaches t" (min_delta >= float_of_int t)
  | Error (L.Not_enough_mass _ as f) ->
      (* Acceptable only if some certificate was live; at n = 800 and a 35%
         cluster none should be. *)
      Alcotest.failf "expected vacuous-certificate refusal, got %a" L.pp_failure f

(* ---- determinism ----------------------------------------------------- *)

let test_replay_determinism () =
  let mk () =
    let r = rng ~seed:90210 () in
    let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
    let w =
      Workload.Synth.planted_ball r ~grid ~n:15_000 ~cluster_fraction:0.7 ~cluster_radius:0.05
    in
    let ps = Geometry.Pointset.create w.Workload.Synth.points in
    (* A fixed derived stream, as the engine would use: the replay is a
       bit-identical transcript even after the generator above advanced. *)
    L.run (Prim.Rng.derive r ~stream:5) ~grid ~eps:2.0
      ~t:(int_of_float (0.8 *. float_of_int w.Workload.Synth.cluster_size))
      ps
  in
  match (mk (), mk ()) with
  | Ok a, Ok b ->
      check_true "same center" (Geometry.Vec.For_testing.equal ~tol:0. a.L.center b.L.center);
      check_float ~tol:0. "same radius" a.L.radius b.L.radius;
      check_float ~tol:0. "same estimate" a.L.est_count b.L.est_count;
      check_int "same scale" a.L.scale_index b.L.scale_index
  | Error a, Error b ->
      check_true "same failure rendering"
        (Format.asprintf "%a" L.pp_failure a = Format.asprintf "%a" L.pp_failure b)
  | _ -> Alcotest.fail "replay diverged between Ok and Error"

let with_native_forced on f =
  let before = Kernel.native_active () in
  Kernel.set_native on;
  Fun.protect ~finally:(fun () -> Kernel.set_native before) f

let test_kernel_tier_identity () =
  (* The LDP pipeline itself never calls a C kernel, so both tiers must
     produce the identical transcript — this pins that property. *)
  let run () =
    let r = rng ~seed:777 () in
    let grid = Geometry.Grid.create ~axis_size:128 ~dim:2 in
    let w =
      Workload.Synth.planted_ball r ~grid ~n:12_000 ~cluster_fraction:0.7 ~cluster_radius:0.06
    in
    let ps = Geometry.Pointset.create w.Workload.Synth.points in
    L.run r ~grid ~eps:2.0
      ~t:(int_of_float (0.75 *. float_of_int w.Workload.Synth.cluster_size))
      ps
  in
  let a = with_native_forced true run and b = with_native_forced false run in
  match (a, b) with
  | Ok a, Ok b ->
      check_true "native and reference tiers agree"
        (Geometry.Vec.For_testing.equal ~tol:0. a.L.center b.L.center && a.L.radius = b.L.radius
       && a.L.est_count = b.L.est_count)
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "tiers diverged between Ok and Error"

(* ---- the engine job kind --------------------------------------------- *)

let p ~eps ~delta = { Prim.Dp.eps; delta }

let batch_results ~domains ~seed =
  let service = Engine.Service.create ~domains ~seed ~faults:Engine.Faults.none () in
  let r = rng ~seed:4 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let w =
    Workload.Synth.planted_ball r ~grid ~n:20_000 ~cluster_fraction:0.7 ~cluster_radius:0.05
  in
  let ds =
    Engine.Service.register service ~name:"big" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
      w.Workload.Synth.points
  in
  ( Engine.Registry.pointset ds,
    Engine.Service.run_batch service ~dataset:ds
    [
      {
        Engine.Job.id = "ldp";
        kind = Engine.Job.Local_cluster { t_fraction = 0.5 };
        eps = 2.0;
        delta = 0.;
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
  let ps, r1 = batch_results ~domains:1 ~seed:21 in
  (match r1 with
  | [ r ] -> (
      check_true "job ok" (Engine.Job.status_name r.Engine.Job.status = "ok");
      match r.Engine.Job.status with
      | Engine.Job.Completed (Engine.Job.Cluster { ball; t; delta_bound; _ }) ->
          check_true "t from t_fraction" (t = 10_000);
          check_true "certificate non-vacuous" (delta_bound < float_of_int t);
          check_true "ball covers something"
            (Geometry.Pointset.ball_count ps ~center:ball.Engine.Job.center
               ~radius:ball.Engine.Job.radius
            > 0)
      | _ -> Alcotest.fail "expected a Cluster output")
  | _ -> Alcotest.fail "expected exactly one result");
  let _, r4 = batch_results ~domains:4 ~seed:21 in
  Alcotest.(check (list (triple string string string)))
    "4 domains bit-identical to 1 domain" (canonical r1) (canonical r4)

let test_job_line_parse () =
  match Engine.Job.parse "local_cluster t_fraction=0.6 eps=2 id=ldp" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ spec ] -> (
      (match spec.Engine.Job.kind with
      | Engine.Job.Local_cluster { t_fraction } -> check_float "t_fraction" 0.6 t_fraction
      | _ -> Alcotest.fail "wrong kind");
      check_float "delta defaults to 0" 0. spec.Engine.Job.delta)
  | Ok _ -> Alcotest.fail "expected one spec"

let suite =
  [
    test_law_sums_to_one;
    test_law_ratio;
    test_debias_sums_to_n;
    stat_slow_case "debiased reports recover the histogram" test_randomize_unbiased_after_debias;
    case "scale ladder shape" test_plan_shape;
    stat_slow_case "planted cluster found with live certificate" test_planted_success;
    stat_case "too-small database refuses with vacuous certificates"
      test_too_small_database_refuses;
    case "derived-stream replay is bit-identical" test_replay_determinism;
    case "native and reference kernel tiers agree" test_kernel_tier_identity;
    slow_case "engine job kind: run, certificate, domain independence" test_engine_job_kind;
    case "jobs-file line parse" test_job_line_parse;
    test_law_sums_to_one_pinned;
  ]
