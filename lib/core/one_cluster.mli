(** The full 1-cluster solver (Theorem 3.2): GoodRadius then GoodCenter.

    On input a database of [n] grid points and a target [t], outputs a
    center [c] and radius [r] such that, with probability ≥ 1 − β,
    [B(c, r)] contains at least [t − Δ] input points and [r] is within the
    profile's approximation factor of [r_opt] (the paper's [O(√log n)]).
    Privacy budget is split evenly: GoodRadius gets [(ε/2, δ/2)], the
    center stage [(ε/2, δ/2)]; total [(ε, δ)]-DP by Theorem 2.1.

    When GoodRadius's step-2 shortcut reports a radius-0 cluster, the
    center stage degenerates to one stability-histogram query on the exact
    grid coordinates (this is the natural completion of the paper's "halt
    and return z = 0" branch). *)

type failure =
  | Center_failure of Good_center.failure
  | Zero_cluster_not_found
      (** The radius stage reported a radius-0 cluster but the histogram on
          exact coordinates released nothing (only possible when the two
          stages' noise draws disagree). *)

type result = {
  center : Geometry.Vec.t;
  radius : float;
      (** Private (data-independent) output radius; 0 on the zero-radius
          path. *)
  t_requested : int;
  delta_bound : float;
      (** Certified bound on the cluster-size loss Δ (sum of both stages'
          losses). *)
  radius_stage : Good_radius.result;
  center_stage : Good_center.success option;  (** [None] on the zero path. *)
}

val pp_failure : Format.formatter -> failure -> unit

val run :
  Prim.Rng.t ->
  Profile.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  delta:float ->
  beta:float ->
  t:int ->
  Geometry.Vec.t array ->
  (result, failure) Stdlib.result
(** Builds the O(n²) distance index internally; see {!run_indexed} to
    amortize it across calls. *)

val run_ps :
  Prim.Rng.t ->
  Profile.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  delta:float ->
  beta:float ->
  t:int ->
  Geometry.Pointset.t ->
  (result, failure) Stdlib.result
(** Like {!run} but over an existing pointset (possibly a zero-copy view)
    — no repacking; same results bit for bit on equal data and RNG
    state. *)

val run_indexed :
  Prim.Rng.t ->
  Profile.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  delta:float ->
  beta:float ->
  t:int ->
  Geometry.Pointset.index ->
  (result, failure) Stdlib.result

val budget_breakdown :
  Profile.t -> eps:float -> delta:float -> d:int -> (string * Prim.Dp.params) list
(** The per-mechanism privacy ledger of one run at the given total budget —
    the splitting rules of Lemmas 4.5/4.11 made explicit (GoodRadius's
    Laplace test and search at ε/4 each; GoodCenter's AboveThreshold, box
    histogram, d-fold per-axis histograms and NoisyAVG at ε/8 each, with
    the axis row showing the advanced-composition total).  Summing the
    entries under basic composition recovers at most [(ε, δ)]; pinned by a
    test. *)

val recommended_min_t :
  Profile.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  delta:float ->
  beta:float ->
  n:int ->
  float
(** A back-of-envelope lower bound on workable cluster sizes for this
    profile — the sum of the radius-stage Δ, the sparse-vector slack, the
    histogram utility requirement, and the noisy-average count offset.  The
    empirical minimum (experiment E5) is typically close to it. *)

module For_testing : sig
  val pp_result : Format.formatter -> result -> unit
end
