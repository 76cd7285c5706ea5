type spec = {
  runs : int;
  n : int;
  dim : int;
  axis : int;
  fraction : float;
  radius : float;
  t_fraction : float;
  eps : float;
  delta : float;
  beta : float;
  w_max : float;
}

let default_spec =
  {
    runs = 200;
    n = 1500;
    dim = 2;
    axis = 256;
    fraction = 0.5;
    radius = 0.05;
    t_fraction = 0.9;
    eps = 2.0;
    delta = 1e-6;
    beta = 0.1;
    w_max = 40.;
  }

type outcome = {
  spec : spec;
  solver_failures : int;
  coverage_failures : int;
  radius_failures : int;
  failures : int;
  failure_rate : float;
  failure_ci : Stats.interval;
  median_w : float;
  median_coverage_margin : float;
  violation : bool;
}

(* One replayed run: solver failure / coverage failure / radius failure
   flags plus the diagnostics the medians are built from. *)
type run_result = {
  solver_failed : bool;
  coverage_failed : bool;
  radius_failed : bool;
  w : float option;
  coverage_margin : float option;
}

let one_run rng spec profile =
  let grid = Geometry.Grid.create ~axis_size:spec.axis ~dim:spec.dim in
  let w =
    Workload.Synth.planted_ball rng ~grid ~n:spec.n ~cluster_fraction:spec.fraction
      ~cluster_radius:spec.radius
  in
  let t =
    max 1 (int_of_float (spec.t_fraction *. float_of_int w.Workload.Synth.cluster_size))
  in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  let idx = Geometry.Pointset.build_index ps in
  let _, r_hi = Workload.Metrics.r_opt_bounds_indexed idx ~t in
  let r_hi = Float.min r_hi w.Workload.Synth.cluster_radius in
  match
    Privcluster.One_cluster.run_indexed rng profile ~grid ~eps:spec.eps ~delta:spec.delta
      ~beta:spec.beta ~t idx
  with
  | Error _ ->
      {
        solver_failed = true;
        coverage_failed = false;
        radius_failed = false;
        w = None;
        coverage_margin = None;
      }
  | Ok r ->
      let center = r.Privcluster.One_cluster.center in
      let radius = r.Privcluster.One_cluster.radius in
      let covered = Geometry.Pointset.ball_count ps ~center ~radius in
      let need = float_of_int t -. r.Privcluster.One_cluster.delta_bound in
      let ratio = if r_hi > 0. then radius /. r_hi else Float.infinity in
      {
        solver_failed = false;
        coverage_failed = float_of_int covered < need;
        radius_failed = ratio > spec.w_max;
        w = Some ratio;
        coverage_margin = Some (float_of_int covered -. need);
      }

let median xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
      let n = List.length sorted in
      let a = Array.of_list sorted in
      if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Shared fan-out and aggregation for every certified solver: [one] is the
   per-run replay, seeded from derived streams so the outcome is
   independent of [domains]. *)
let certify rng ~alpha ~domains ~spec one =
  if spec.runs <= 0 then invalid_arg "Certifier: runs must be positive";
  let tasks = Array.init spec.runs (fun i -> Engine.Pool.task i) in
  let outcomes =
    Engine.Pool.run ~domains
      ~f:(fun ~index:_ ~attempt:_ i -> one (Prim.Rng.derive rng ~stream:i) spec)
      tasks
  in
  let results =
    Array.to_list outcomes
    |> List.map (function
         | Engine.Pool.Done r -> r
         | Engine.Pool.Failed msg -> failwith ("Certifier: run raised: " ^ msg)
         | Engine.Pool.Timed_out _ -> assert false (* no deadlines set *))
  in
  let count f = List.length (List.filter f results) in
  let failures =
    count (fun r -> r.solver_failed || r.coverage_failed || r.radius_failed)
  in
  let failure_ci = Stats.clopper_pearson ~alpha ~k:failures ~n:spec.runs in
  {
    spec;
    solver_failures = count (fun r -> r.solver_failed);
    coverage_failures = count (fun r -> r.coverage_failed);
    radius_failures = count (fun r -> r.radius_failed);
    failures;
    failure_rate = float_of_int failures /. float_of_int spec.runs;
    failure_ci;
    median_w = median (List.filter_map (fun r -> r.w) results);
    median_coverage_margin = median (List.filter_map (fun r -> r.coverage_margin) results);
    violation = failure_ci.Stats.lo > spec.beta;
  }

let one_cluster rng ?(alpha = 0.05) ?(domains = 1) profile spec =
  certify rng ~alpha ~domains ~spec (fun rng spec -> one_run rng spec profile)

(* ---- the local-model competitor ----------------------------------- *)

(* The LDP pipeline needs n in the tens of thousands before its √n/ε
   count noise clears a minority cluster — exactly the crossover E1
   measures — so its contract is certified on a larger planted workload.
   The planted radius is itself a valid r_opt upper bound for
   t ≤ cluster_size (Synth), so no O(n²) index is ever built. *)
let local_default_spec =
  {
    default_spec with
    runs = 120;
    n = 20_000;
    fraction = 0.6;
    t_fraction = 0.8;
    w_max = 40.;
  }

let local_run rng spec =
  let grid = Geometry.Grid.create ~axis_size:spec.axis ~dim:spec.dim in
  let w =
    Workload.Synth.planted_ball rng ~grid ~n:spec.n ~cluster_fraction:spec.fraction
      ~cluster_radius:spec.radius
  in
  let t =
    max 1 (int_of_float (spec.t_fraction *. float_of_int w.Workload.Synth.cluster_size))
  in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  match Privcluster.Local_cluster.run rng ~grid ~eps:spec.eps ~beta:spec.beta ~t ps with
  | Error _ ->
      {
        solver_failed = true;
        coverage_failed = false;
        radius_failed = false;
        w = None;
        coverage_margin = None;
      }
  | Ok r ->
      let covered =
        Geometry.Pointset.ball_count ps ~center:r.Privcluster.Local_cluster.center
          ~radius:r.Privcluster.Local_cluster.radius
      in
      let need = float_of_int t -. r.Privcluster.Local_cluster.delta_bound in
      let ratio = r.Privcluster.Local_cluster.radius /. spec.radius in
      {
        solver_failed = false;
        coverage_failed = float_of_int covered < need;
        radius_failed = ratio > spec.w_max;
        w = Some ratio;
        coverage_margin = Some (float_of_int covered -. need);
      }

let local_cluster rng ?(alpha = 0.05) ?(domains = 1) spec =
  certify rng ~alpha ~domains ~spec local_run

(* ---- the coreset MEB competitor ----------------------------------- *)

let meb_default_spec =
  { default_spec with fraction = 0.9; t_fraction = 0.85; w_max = 20. }

let meb_run rng spec =
  let grid = Geometry.Grid.create ~axis_size:spec.axis ~dim:spec.dim in
  let w =
    Workload.Synth.planted_ball rng ~grid ~n:spec.n ~cluster_fraction:spec.fraction
      ~cluster_radius:spec.radius
  in
  let t =
    max 1 (int_of_float (spec.t_fraction *. float_of_int w.Workload.Synth.cluster_size))
  in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  (* The radius stage's certified slack: its monotone search aims at
     t − slack and its own noise costs at most another slack. *)
  let slack =
    Recconcave.Monotone_search.accuracy_bound
      ~size:(Geometry.Grid.radius_candidates grid)
      ~eps:(spec.eps /. 2.) ~sensitivity:1.0 ~beta:spec.beta
  in
  match
    Baselines.Meb_fptas.run rng ~grid ~eps:spec.eps ~delta:spec.delta ~t ps
  with
  | Error _ ->
      {
        solver_failed = true;
        coverage_failed = false;
        radius_failed = false;
        w = None;
        coverage_margin = None;
      }
  | Ok r ->
      let covered =
        Geometry.Pointset.ball_count ps ~center:r.Baselines.Meb_fptas.center
          ~radius:r.Baselines.Meb_fptas.radius
      in
      let need = float_of_int t -. (2. *. slack) in
      let ratio = r.Baselines.Meb_fptas.radius /. spec.radius in
      {
        solver_failed = false;
        coverage_failed = float_of_int covered < need;
        radius_failed = ratio > spec.w_max;
        w = Some ratio;
        coverage_margin = Some (float_of_int covered -. need);
      }

let meb_fptas rng ?(alpha = 0.05) ?(domains = 1) spec =
  certify rng ~alpha ~domains ~spec meb_run
