(** The finite domain X^d of Definition 1.2.

    Following Remark 3.3 we identify X^d with the real d-dimensional unit
    cube quantized with grid step [1/(|X|−1)]; [axis_size] is [|X|].  The
    lower bound of Section 5 shows finiteness is necessary, so the domain is
    an explicit value threaded through the solvers, and the candidate radius
    set of Algorithm 1 — [{0, 1/(2|X|), 2/(2|X|), …, ⌈√d⌉}] — is derived
    from it here. *)

type t

val create : axis_size:int -> dim:int -> t
(** @raise Invalid_argument unless [axis_size >= 2] and [dim >= 1]. *)

val axis_size : t -> int
val dim : t -> int
val step : t -> float
(** [1/(|X|−1)]. *)

val diameter : t -> float
(** [√d], the diameter of the unit cube. *)

val log_star_term : t -> float
(** [log*(2·|X|·√d)] — the iterated logarithm controlling the Γ promise of
    Algorithm 1 (see {!Recconcave.Rec_concave.log_star}). *)

val snap : t -> Vec.t -> Vec.t
(** Nearest grid point (each coordinate clamped to [0, 1] and rounded to a
    multiple of the step). *)

val snap_row : t -> float array -> off:int -> Vec.t
(** {!snap} of the [dim]-length row starting at element [off] of a flat
    store (the only allocation is the returned grid point). *)

val random_point : t -> Prim.Rng.t -> Vec.t
(** Uniform grid point. *)

(** {1 Candidate radii for GoodRadius} *)

val radius_candidates : t -> int
(** Size of the candidate set [{0, 1/(2|X|), 2/(2|X|), …, ⌈√d⌉}]; candidates
    are indexed [0 … radius_candidates − 1]. *)

val radius_of_index : t -> int -> float
(** [radius_of_index g i = i / (2|X|)], with the last index clamped to
    [⌈√d⌉]. *)

(** {1 Geometric candidate radii}

    A coarser candidate set [{0, r_min, r_min·√2, r_min·2, …, ≥ √d}] with
    [r_min = step/2]: only [O(log(|X|·√d))] candidates, at the price of a
    [√2] factor in the radius approximation (consecutive candidates differ
    by [√2], and [r_i / 2 = r_{i−2}] exactly, which is what GoodRadius's
    quality function needs).  Used by the [practical] profile. *)

val geometric_candidates : t -> int
val geometric_radius_of_index : t -> int -> float

module For_testing : sig
  val geometric_index_of_radius : t -> float -> int
  (** Smallest geometric candidate index whose radius is ≥ the argument. *)

  val index_of_radius : t -> float -> int
  (** Smallest candidate index whose radius is ≥ the argument. *)

  val mem : t -> Vec.t -> bool
  (** Is the point exactly on the grid (within 1e-9 of a grid coordinate)? *)
end
