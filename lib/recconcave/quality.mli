(** Sensitivity-1 quality functions over a totally ordered finite solution
    set, memoized.

    A quasi-concave promise problem (Definition 4.2) is a database together
    with a sensitivity-1 quality [Q : F → R] over a totally ordered finite
    [F], promised to be quasi-concave with [max Q ≥ p].  Solutions are
    identified with indices [0 … size−1].  Evaluations are cached because
    RecConcave's scale-quality computation revisits the same indices many
    times; the evaluation counter feeds the complexity assertions in the
    test-suite. *)

type t

val create : size:int -> f:(int -> float) -> t
(** @raise Invalid_argument unless [size >= 1]. *)

val of_array : float array -> t

val size : t -> int

val eval : t -> int -> float
(** Memoized.  @raise Invalid_argument out of range. *)

val evals : t -> int
(** Number of distinct underlying evaluations performed so far. *)

val is_quasi_concave : t -> bool
(** Exhaustive check (for tests): [Q(ℓ) ≥ min(Q(i), Q(j))] for all
    [i ≤ ℓ ≤ j]; verified in O(size) via the prefix/suffix running maxima
    characterization. *)

module For_testing : sig
  val argmax : t -> int
  (** Exhaustive argmax (non-private; tests and reference baselines only). *)
end
