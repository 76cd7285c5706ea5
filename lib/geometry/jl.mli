(** The Johnson–Lindenstrauss transform (Lemma 4.10).

    [f(x) = (1/√k)·A·x] with [A] a k×d matrix of iid N(0, 1) entries.  For a
    set of [n] points and distortion [η], taking
    [k ≥ (8/η²)·ln(2n²/β)] preserves all pairwise squared distances within a
    [1 ± η] factor with probability ≥ 1 − β.  GoodCenter projects to
    [k = O(log n)] dimensions before hunting for a heavy box, which is what
    replaces the [poly(d)] loss of the "second attempt" by [√log n]. *)

type t

val make : Prim.Rng.t -> input_dim:int -> output_dim:int -> t

val apply : t -> Vec.t -> Vec.t
val apply_all : t -> Vec.t array -> Vec.t array

val project : t -> Pointset.t -> Pointset.t
(** Projects a whole pointset as one flat mat-mul into fresh contiguous
    storage (row [i] of the result is [apply t] of point [i], bit for
    bit, but without boxing any intermediate vector). *)

val paper_dim : n:int -> beta:float -> int
(** GoodCenter's choice [k = ⌈46·ln(2n/β)⌉] (Algorithm 2 step 1), which
    instantiates the lemma at [η = 1/2]. *)

module For_testing : sig
  val input_dim : t -> int
  val output_dim : t -> int

  val target_dim : n:int -> eta:float -> beta:float -> int
  (** The smallest [k] the lemma licenses: [⌈(8/η²)·ln(2n²/β)⌉]. *)
end
