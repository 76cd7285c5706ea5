(** Randomly shifted interval partitions of an axis.

    Both failed attempts and the final construction of Section 3.2 partition
    each axis into intervals of a fixed length with a uniformly random phase
    (Algorithm 2 steps 3a and 9a).  A {!partition} assigns every real to the
    integer index of its interval; the randomness of the shift is what makes
    a diameter-[ℓ'] set land inside a single length-[ℓ] interval with
    probability [1 − ℓ'/ℓ]. *)

type partition
(** A partition of R into [\[shift + j·len, shift + (j+1)·len)] for j ∈ Z. *)

val make : Prim.Rng.t -> len:float -> partition
(** Random phase uniform in [\[0, len)].  @raise Invalid_argument unless
    [len > 0]. *)

val len : partition -> float

val index_of : partition -> float -> int
(** Interval index containing the given coordinate. *)

val bounds : partition -> int -> float * float
(** [(lo, hi)] of interval [j]: [lo = shift + j·len], [hi = lo + len]. *)

val extend : partition -> int -> by:float -> float * float
(** Interval [j] extended by [by] on each side — the [Î] construction that
    turns a "heavy" interval into one containing the whole cluster
    (Figure 2 / Algorithm 2 step 9c). *)

(** {1 Plain 1-D intervals} *)

type t = { lo : float; hi : float }

val intersect : t -> t -> t option

module For_testing : sig
  val center : t -> float
  val contains : t -> float -> bool

  val fixed : shift:float -> len:float -> partition
  (** Deterministic partition (tests, baselines). *)

  val length : t -> float
  val of_center : center:float -> radius:float -> t
  val shift : partition -> float
end
