(** Non-private k-means (Lloyd's algorithm with k-means++ seeding).

    The paper's Section 1.1 recalls that [NRS07] obtained differentially
    private k-means by feeding an off-the-shelf k-means routine to the
    sample-and-aggregate framework; this module is that off-the-shelf
    routine, and {!Privcluster.Kmeans_sa} is the compilation.  It is also a
    convenient non-private reference for clustering experiments.

    Outputs are returned in {!For_testing.canonical_order} so that independent runs on
    similar data produce {e comparable} center lists — the property
    sample-and-aggregate needs, since its stability definition (6.1)
    compares outputs as points of R^{k·d}. *)

type result = {
  centers : Vec.t array;  (** [k] centers, canonically ordered. *)
  inertia : float;  (** Sum of squared distances to the nearest center. *)
  iterations : int;  (** Lloyd iterations actually performed. *)
}

val lloyd :
  Prim.Rng.t -> k:int -> ?max_iterations:int -> ?tolerance:float -> Vec.t array -> result
(** k-means++ seeding followed by Lloyd iterations until the center
    movement drops below [tolerance] (default 1e-9) or [max_iterations]
    (default 64).  @raise Invalid_argument if there are fewer points than
    centers. *)

val assign : Vec.t array -> Vec.t -> int
(** Index of the nearest center. *)

val flatten : Vec.t array -> Vec.t
(** Concatenate [k] centers into one R^{k·d} point (the SA output space). *)

val unflatten : d:int -> Vec.t -> Vec.t array
(** Inverse of {!flatten}.  @raise Invalid_argument if the length is not a
    multiple of [d]. *)

module For_testing : sig
  val canonical_order : Vec.t array -> Vec.t array
  (** Lexicographic order on coordinates — a permutation-invariant
      normal form for center lists. *)

  val inertia : centers:Vec.t array -> Vec.t array -> float
end
