(** Private quantiles over a 1-D grid domain via RecConcave.

    This is the canonical application of the quasi-concave machinery the
    paper imports from [BNS13], and it is the engine behind IntPoint's last
    step: the rank quality [q(S, v) = −|#{x ≤ v} − q·n|] is sensitivity-1
    and quasi-concave in [v], so RecConcave selects a point whose rank is
    within the search loss of the target quantile.  The library exposes it
    directly because a private median / interquartile range is the most
    common need next to clustering itself.

    Guarantee: with probability ≥ 1 − β the returned value's rank error is
    at most {!rank_error_bound}; privacy is [(ε, 0)]-DP per call. *)

type result = {
  value : float;  (** The selected grid value. *)
  target_rank : float;  (** [q·n]. *)
}

val quantile :
  Prim.Rng.t ->
  ?profile:Profile.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  q:float ->
  float array ->
  result
(** [quantile rng ~grid ~eps ~q values] with [q ∈ [0, 1]].
    @raise Invalid_argument unless the grid is 1-D and [q ∈ [0, 1]]. *)

val rank_error_bound :
  ?profile:Profile.t -> grid:Geometry.Grid.t -> eps:float -> beta:float -> unit -> float
(** The RecConcave loss bound over the [|X|]-point solution domain. *)

module For_testing : sig
  val interquartile_range :
    Prim.Rng.t ->
    ?profile:Profile.t ->
    grid:Geometry.Grid.t ->
    eps:float ->
    float array ->
    float * float
  (** The (q25, q75) pair, each charged ε/2 (basic composition). *)

  val median :
    Prim.Rng.t -> ?profile:Profile.t -> grid:Geometry.Grid.t -> eps:float -> float array -> result

  val rank_count : float array -> float -> int
  (** [rank_count values] sorts [values] once (O(n log n)); the function
      it returns maps [v] to [#{x ∈ values : x <= v}] by bisection
      (O(log n)).  A NaN value is never counted, and a NaN [v] counts
      nothing, as with the comparison itself. *)
end
