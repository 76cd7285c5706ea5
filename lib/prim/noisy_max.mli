(** Report-noisy-max: add iid Lap(2·s/ε) noise to each of a finite family of
    sensitivity-[s] scores and report the argmax.  [(ε, 0)]-DP regardless of
    the number of candidates.  Used by baselines where the exponential
    mechanism's exact distribution is not needed. *)

val argmax : Rng.t -> eps:float -> sensitivity:float -> float array -> int
(** Index of the noisy maximizer. *)

module For_testing : sig
  val argmax_value : Rng.t -> eps:float -> sensitivity:float -> float array -> int * float
  (** Noisy maximizer together with its noisy score (the score itself is not
      part of the privacy guarantee of plain report-noisy-max; callers who
      release it should budget a separate Laplace query — see
      {!Laplace.scalar}). *)
end
