type planted = {
  points : Geometry.Vec.t array;
  cluster_center : Geometry.Vec.t;
  cluster_radius : float;
  cluster_size : int;
  cluster_indices : int array;
}

let ball_point rng ~center ~radius =
  let d = Geometry.Vec.dim center in
  let dir = Prim.Rng.gaussian_vector rng ~dim:d ~sigma:1.0 in
  let norm = Geometry.Vec.norm2 dir in
  let dir =
    if norm < 1e-12 then Array.init d (fun i -> if i = 0 then 1. else 0.)
    else Geometry.Vec.scale (1. /. norm) dir
  in
  let u = Prim.Rng.float rng 1.0 in
  let r = radius *. (u ** (1. /. float_of_int d)) in
  Geometry.Vec.add center (Geometry.Vec.scale r dir)

let interior_center rng ~grid ~margin =
  let d = Geometry.Grid.dim grid in
  let lo = Float.min margin 0.5 and hi = Float.max (1. -. margin) 0.5 in
  Array.init d (fun _ -> Prim.Rng.uniform rng ~lo ~hi)

let uniform rng ~grid ~n =
  Array.init n (fun _ -> Geometry.Grid.random_point grid rng)

let planted_ball rng ~grid ~n ~cluster_fraction ~cluster_radius =
  if not (cluster_fraction > 0. && cluster_fraction <= 1.) then
    invalid_arg "Synth.planted_ball: cluster_fraction in (0, 1]";
  let cluster_size = max 1 (int_of_float (cluster_fraction *. float_of_int n)) in
  let center = interior_center rng ~grid ~margin:(2. *. cluster_radius) in
  let snap = Geometry.Grid.snap grid in
  let points =
    Array.init n (fun i ->
        if i < cluster_size then snap (ball_point rng ~center ~radius:cluster_radius)
        else Geometry.Grid.random_point grid rng)
  in
  (* Snapping moves every point by at most (√d/2)·step, so the planted ball
     inflated by the snap error still covers the planted points. *)
  let snap_slack = Geometry.Grid.diameter grid *. Geometry.Grid.step grid /. 2. in
  {
    points;
    cluster_center = snap center;
    cluster_radius = cluster_radius +. (2. *. snap_slack);
    cluster_size;
    cluster_indices = Array.init cluster_size (fun i -> i);
  }

(* Pinning the cluster at a corner makes centrality-based aggregation land
   in empty space: the uniform background pulls every coordinate's
   mean/median toward 1/2, away from the only tight ball.  (A decoy *ball*
   would not do: any heavy ball is itself a valid 1-cluster answer.) *)
let adversarial_minority rng ~grid ~n ~cluster_fraction ~cluster_radius =
  let base = planted_ball rng ~grid ~n ~cluster_fraction ~cluster_radius in
  if cluster_fraction >= 0.5 then base
  else begin
    let d = Geometry.Grid.dim grid in
    let snap = Geometry.Grid.snap grid in
    let corner = snap (Array.make d (Float.max 0.1 (2.5 *. cluster_radius))) in
    let points =
      Array.mapi
        (fun i p ->
          if i < base.cluster_size then snap (ball_point rng ~center:corner ~radius:cluster_radius)
          else p)
        base.points
    in
    { base with points; cluster_center = corner }
  end

type multi = {
  all_points : Geometry.Vec.t array;
  centers : Geometry.Vec.t array;
  radii : float array;
  sizes : int array;
}

let planted_balls rng ~grid ~n ~k ~cluster_radius ~noise_fraction =
  if k < 1 then invalid_arg "Synth.planted_balls: k must be >= 1";
  let noise = int_of_float (noise_fraction *. float_of_int n) in
  let per = (n - noise) / k in
  let snap = Geometry.Grid.snap grid in
  let centers =
    Array.init k (fun _ -> interior_center rng ~grid ~margin:(2. *. cluster_radius))
  in
  let cluster_points =
    Array.concat
      (List.map
         (fun c -> Array.init per (fun _ -> snap (ball_point rng ~center:c ~radius:cluster_radius)))
         (Array.to_list centers))
  in
  let noise_points = uniform rng ~grid ~n:(n - (per * k)) in
  {
    all_points = Array.append cluster_points noise_points;
    centers = Array.map snap centers;
    radii = Array.make k cluster_radius;
    sizes = Array.make k per;
  }

type contaminated = {
  data : Geometry.Vec.t array;
  inlier_center : Geometry.Vec.t;
  inlier_radius : float;
  outlier_indices : int array;
}

let with_outliers rng ~grid ~n ~outlier_fraction ~inlier_radius =
  if not (outlier_fraction >= 0. && outlier_fraction < 1.) then
    invalid_arg "Synth.with_outliers: outlier_fraction in [0, 1)";
  let outliers = int_of_float (outlier_fraction *. float_of_int n) in
  let inliers = n - outliers in
  let center = interior_center rng ~grid ~margin:(2. *. inlier_radius) in
  let snap = Geometry.Grid.snap grid in
  let data =
    Array.init n (fun i ->
        if i < inliers then snap (ball_point rng ~center ~radius:inlier_radius)
        else Geometry.Grid.random_point grid rng)
  in
  {
    data;
    inlier_center = snap center;
    inlier_radius;
    outlier_indices = Array.init outliers (fun i -> inliers + i);
  }

let estimator_outputs rng ~grid ~k ~good_fraction ~good_center ~good_radius =
  if not (good_fraction >= 0. && good_fraction <= 1.) then
    invalid_arg "Synth.estimator_outputs: good_fraction in [0, 1]";
  let good = int_of_float (good_fraction *. float_of_int k) in
  let snap = Geometry.Grid.snap grid in
  Array.init k (fun i ->
      if i < good then snap (ball_point rng ~center:good_center ~radius:good_radius)
      else Geometry.Grid.random_point grid rng)

module For_testing = struct
  let ball_point = ball_point
  let uniform = uniform
end
