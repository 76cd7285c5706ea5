(** Arbitrary rectangular domains (Remark 3.3).

    The solvers operate on the unit cube quantized by {!Geometry.Grid};
    Remark 3.3 notes the results extend to any grid step [ℓ] and axis
    length [L] by replacing [|X|] with [L/ℓ].  This module implements that
    extension as an affine change of coordinates: build a {!t} from the
    bounding box of your data space; {!solve} maps the points into the
    unit cube, runs the solver, and maps the center and radius back out.

    To keep the radius mapping exact the box is inflated to a {e cube}
    (all axes get the longest side): an isotropic scaling multiplies every
    distance by the same factor, so a ball in unit space is a ball in data
    space.  {!solve} wraps the whole round trip around
    {!One_cluster.run}. *)

type t

val create : lo:Geometry.Vec.t -> hi:Geometry.Vec.t -> axis_size:int -> t
(** [create ~lo ~hi ~axis_size] — the data cube spans [lo … hi] per axis
    (inflated to the longest side) with [axis_size] grid points per axis.
    @raise Invalid_argument unless [lo.(i) < hi.(i)] for every axis. *)

type result = {
  center : Geometry.Vec.t;  (** In data coordinates. *)
  radius : float;  (** In data coordinates. *)
  unit_result : One_cluster.result;  (** The raw unit-cube result. *)
}

val solve :
  Prim.Rng.t ->
  Profile.t ->
  t ->
  eps:float ->
  delta:float ->
  beta:float ->
  t:int ->
  Geometry.Vec.t array ->
  (result, One_cluster.failure) Stdlib.result
(** Map in, run {!One_cluster.run}, map out. *)

module For_testing : sig
  val grid : t -> Geometry.Grid.t

  val of_points : ?margin:float -> axis_size:int -> Geometry.Vec.t array -> t
  (** Bounding box of the data, inflated by [margin] (fraction of the side,
      default 0.05) on every side.  {b Privacy note}: the box is derived from
      the data; treat it as public context (e.g. sensor ranges are known) or
      supply a fixed box via {!create} — the solvers' guarantees are stated
      for a data-independent domain. *)

  val of_unit : t -> Geometry.Vec.t -> Geometry.Vec.t
  val radius_of_unit : t -> float -> float
  val radius_to_unit : t -> float -> float

  val scale : t -> float
  (** The side length of the (inflated) data cube. *)

  val to_unit : t -> Geometry.Vec.t -> Geometry.Vec.t
  (** Affine map into the unit cube, snapped to the grid.  Points outside
      the box are clamped. *)
end
