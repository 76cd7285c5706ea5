(** Local-model 1-cluster in the style of Nissim–Stemmer 2017
    ("Clustering Algorithms for the Centralized and Local Models",
    arXiv:1707.04766).

    Each user holds one point of the database and sends the server a
    {e single} ε-LDP report: the index of their histogram cell, passed
    through [k]-ary randomized response.  Everything after that is
    server-side post-processing, so the whole pipeline is [(ε, 0)]-DP in
    the local model (which implies the same in the central model).

    The server runs a multi-scale heavy-cell search: users are split
    round-robin across a ladder of dyadic grids (cell side 1/2, 1/4, …),
    each group reports its cell at its own scale with the {e full} ε
    (disjoint users — parallel composition), the per-scale histograms are
    debiased into unbiased count estimates, and the finest scale whose
    best 2^d-cell block clears [t] minus a Hoeffding slack — among the
    scales whose certificate is non-vacuous (twice the slack below [t]),
    so a noisy fine scale can never win with a ball that promises
    nothing — wins.  The
    released ball is that block's circumscribed ball, so the radius is
    [O(cell side · √d)] — the local model pays an [Ω(√n/ε)] additive
    count error per cell where the centralized pipeline pays [O(1/ε)]
    (polylog factors aside), which is exactly the crossover experiment
    E1 measures.

    Every user's reports are drawn from {!Prim.Rng.derive}d streams keyed
    by the user index, so an engine retry replays the identical
    randomizer transcript charge-free. *)

type scale = {
  cells_per_axis : int;  (** [2^l] dyadic cells per axis. *)
  cell_side : float;  (** [1 / cells_per_axis]. *)
  cells : int;  (** [cells_per_axis^d] histogram buckets. *)
  group_size : int;  (** Users assigned to this scale. *)
  slack : float;
      (** High-probability bound on the block-estimate error at this scale
          (randomized-response noise + group-extrapolation error). *)
}

type result = {
  center : Geometry.Vec.t;  (** Center of the winning cell block. *)
  radius : float;  (** [cell_side · √d] — the block's circumscribed ball. *)
  t_requested : int;
  est_count : float;  (** Debiased estimate of the points in the block. *)
  delta_bound : float;
      (** With probability ≥ 1 − β the released ball misses at most this
          many of the [est_count] estimated points (twice the scale's
          slack: one for selection, one for realization). *)
  scale_index : int;  (** Index into [scales] of the winning scale. *)
  scales : scale array;  (** The whole ladder, coarse to fine. *)
}

type failure =
  | Not_enough_mass of { best : float; needed : float }
      (** No scale's best block cleared [t] minus its slack; [best] is the
          largest debiased block estimate seen, [needed] the smallest
          threshold it failed. *)
  | All_certificates_vacuous of { t : int; min_delta : float }
      (** Every scale's certified loss (twice its slack) reaches [t], so no
          released ball could promise any coverage: the database is too
          small for this [ε] — the local model's [Ω(√n/ε)] floor. *)

val pp_failure : Format.formatter -> failure -> unit

(** {1 The local randomizer}

    The only data-dependent message in the protocol, hence the whole
    privacy barrier.  [k]-ary randomized response keeps the true cell
    with probability [e^ε / (e^ε + k − 1)] and otherwise reports one of
    the [k − 1] other cells uniformly; each report is [(ε, 0)]-LDP. *)

val randomize : Prim.Rng.t -> eps:float -> k:int -> int -> int
(** One user's report.  @raise Invalid_argument unless [0 ≤ cell < k] and
    [k ≥ 2] and [eps > 0]. *)

val law : eps:float -> k:int -> cell:int -> float array
(** The exact output law of {!randomize}: [p_keep] at [cell], [p_other]
    elsewhere.  Sums to 1 exactly (the two closed forms share one
    denominator); the verification harness's chi-square tester compares
    empirical report counts against this. *)

val run :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  ?beta:float ->
  ?max_cells:int ->
  t:int ->
  Geometry.Pointset.t ->
  (result, failure) Stdlib.result
(** [(ε, 0)]-DP in the local model.  [beta] (default 0.1) sets the
    high-probability slack used both to pick the winning scale and in the
    reported [delta_bound].
    @raise Invalid_argument if [t ≤ 0], the pointset dimension disagrees
    with the grid, or even the coarsest scale exceeds [max_cells]. *)

module For_testing : sig
  val debias : eps:float -> k:int -> n:int -> int array -> float array
  (** The unbiased histogram estimator: cell [j] of the reported counts
      maps to [(count_j − n·p_other) / (p_keep − p_other)].  For any report
      vector summing to [n] the estimates sum to exactly [n] (the estimator
      is the linear inverse of the randomizer's expectation operator), and
      [E (debias (reports))] equals the true histogram — both are
      property-tested. *)

  val p_keep : eps:float -> k:int -> float
  (** [e^ε / (e^ε + k − 1)], the probability the true cell is reported. *)

  val p_other : eps:float -> k:int -> float
  (** [1 / (e^ε + k − 1)], the probability of any specific other cell.
      [p_keep / p_other = e^ε] exactly. *)

  val plan :
    grid:Geometry.Grid.t -> eps:float -> ?beta:float -> ?max_cells:int -> n:int -> unit -> scale array
  (** The scale ladder {!run} will use for an [n]-user database on this
      grid: dyadic scales, coarse to fine, while the bucket count stays
      ≤ [max_cells] (default 4096) and the cell side stays above the grid
      resolution. *)

  val pp_result : Format.formatter -> result -> unit
end
