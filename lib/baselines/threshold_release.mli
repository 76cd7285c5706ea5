(** Table 1, row 3 — query release for threshold functions, d = 1 only.

    The paper's row 3 cites the Bun et al. [4] release mechanism with error
    [2^{(1+o(1))·log*|X|}/ε]; as documented in DESIGN.md (substitution 3) we
    implement the standard practical instantiation — the binary-tree
    (hierarchical) mechanism — whose error is [O(log^{1.5}|X|)/ε] per
    threshold query.  All of the row's qualitative behaviour is preserved:
    exact radius ([w = 1] up to grid resolution), polylogarithmic Δ, and no
    extension beyond d = 1.

    The released tree is a {e sanitization}: every interval query afterwards
    is post-processing, so the smallest-interval search pays no further
    privacy. *)

type tree
(** A released hierarchy of noisy dyadic counts over the grid [X]. *)

val release : Prim.Rng.t -> grid:Geometry.Grid.t -> eps:float -> float array -> tree
(** [(ε, 0)]-DP: each point lands in one node per level, so the per-node
    Laplace scale is [levels/ε].  @raise Invalid_argument unless the grid is
    1-D. *)

val range_count : tree -> lo:float -> hi:float -> float
(** Noisy number of released points in [\[lo, hi\]] — O(log |X|) node
    lookups (post-processing). *)

val query_error_bound : grid:Geometry.Grid.t -> eps:float -> beta:float -> float
(** With probability ≥ 1 − β, every range count is within this additive
    error: [(levels/ε)·√(4·levels·ln(2|X|²/β))] — the sub-Gaussian
    concentration of the ≤ 2·levels Laplace summands a range touches,
    union-bounded over all ranges (the usual [O(log^{1.5}|X|/ε)] rate). *)

type result = { center : Geometry.Vec.t; radius : float; estimated_count : float }

val run :
  Prim.Rng.t -> grid:Geometry.Grid.t -> eps:float -> beta:float -> t:int -> float array -> result
(** Release then search, with [slack = query_error_bound]. *)

module For_testing : sig
  val levels : tree -> int

  val smallest_interval : tree -> t:int -> slack:float -> result
  (** Smallest grid interval whose released count reaches [t − slack], as a
      (center, radius) answer (two-pointer scan over noisy prefix counts;
      post-processing). *)
end
