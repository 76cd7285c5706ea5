(** Synthetic workloads.

    The paper has no datasets (DESIGN.md, substitution 5); every experiment
    runs on generators that realize the regimes its theory distinguishes:
    a planted minority/majority ball inside uniform background noise,
    several planted balls (k-clustering / map-search), heavy outlier
    contamination, and sample-and-aggregate estimator outputs that are
    concentrated for most subsamples but wild on the rest.

    All generators snap their output to the given grid (Definition 1.2
    requires inputs from [X^d]) and return the ground truth alongside the
    data so metrics can score against it. *)

type planted = {
  points : Geometry.Vec.t array;
  cluster_center : Geometry.Vec.t;
  cluster_radius : float;  (** Planted radius (after snapping, a valid upper
                               bound on [r_opt] for [t ≤ cluster_size]). *)
  cluster_size : int;
  cluster_indices : int array;
}

val planted_ball :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  n:int ->
  cluster_fraction:float ->
  cluster_radius:float ->
  planted
(** [n] points: a [cluster_fraction] share uniform in a ball of the given
    radius around a random center (kept [2·radius] clear of the cube
    boundary when possible), the rest uniform over the cube. *)

val adversarial_minority :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  n:int ->
  cluster_fraction:float ->
  cluster_radius:float ->
  planted
(** Like {!planted_ball}, but the background is adversarial for
    centrality-based aggregation: when the target cluster is a minority, the
    remaining mass is split between two decoy balls placed at opposite
    corners, so coordinatewise medians/means land in empty space between
    them (this is the regime where Table 1's private-aggregation row
    requires [t ≥ 0.51·n]). *)

type multi = {
  all_points : Geometry.Vec.t array;
  centers : Geometry.Vec.t array;
  radii : float array;
  sizes : int array;
}

val planted_balls :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  n:int ->
  k:int ->
  cluster_radius:float ->
  noise_fraction:float ->
  multi
(** [k] planted balls of equal share plus a [noise_fraction] uniform
    background — the k-clustering / map-search workload (E9). *)

type contaminated = {
  data : Geometry.Vec.t array;
  inlier_center : Geometry.Vec.t;
  inlier_radius : float;
  outlier_indices : int array;
}

val with_outliers :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  n:int ->
  outlier_fraction:float ->
  inlier_radius:float ->
  contaminated
(** A tight inlier ball plus far-flung outliers (E8). *)

val estimator_outputs :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  k:int ->
  good_fraction:float ->
  good_center:Geometry.Vec.t ->
  good_radius:float ->
  Geometry.Vec.t array
(** Simulated sample-and-aggregate block outputs: a [good_fraction] share
    lands within [good_radius] of [good_center], the rest is uniform junk —
    the regime of Definition 6.1 with [α = good_fraction] (E7). *)

module For_testing : sig
  val ball_point : Prim.Rng.t -> center:Geometry.Vec.t -> radius:float -> Geometry.Vec.t
  (** One point uniform in a Euclidean ball (rejection-free: Gaussian
      direction × beta-distributed radius). *)

  val uniform : Prim.Rng.t -> grid:Geometry.Grid.t -> n:int -> Geometry.Vec.t array
  (** Pure background noise (failure-mode tests). *)
end
