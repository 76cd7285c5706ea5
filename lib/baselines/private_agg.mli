(** Table 1, row 1 — private aggregation in the style of Nissim,
    Raskhodnikova and Smith [16] (see DESIGN.md, substitution 4).

    A coordinatewise private median (exponential mechanism over the grid
    values of each axis, quality = negated distance of the rank from n/2)
    followed by a private radius search around it.  This reproduces the
    row's qualitative profile, which experiment E1 confirms:

    - it only works when the target cluster holds a {e majority} of the
      points ([t ≥ 0.51·n]) — with a minority cluster the medians land in
      no-man's land;
    - the center error (hence the needed radius) grows with [√d], because
      each coordinate independently contributes [O(r_opt + 1/ε')] error;
    - it is fast: no candidate enumeration, no heavy geometry.

    Also includes the GUPT-style noisy-average aggregator used as the
    sample-and-aggregate comparator in experiment E7. *)

type result = { center : Geometry.Vec.t; radius : float }

val run :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  t:int ->
  Geometry.Pointset.t ->
  result
(** [(ε, 0)]-DP: ε/2 split across the [d] coordinate medians, ε/2 on the
    radius search. *)

val gupt_average :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  delta:float ->
  Geometry.Vec.t array ->
  Geometry.Vec.t
(** Differentially private averaging over the full domain (the GUPT
    aggregation): mean + Gaussian noise at L2 sensitivity [√d / n]. *)

module For_testing : sig
  val coordinate_median : Prim.Rng.t -> grid:Geometry.Grid.t -> eps:float -> float array -> float
  (** One axis's private median. *)
end
