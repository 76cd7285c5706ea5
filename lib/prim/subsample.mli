(** Secrecy-of-the-subsample amplification (Lemma 6.4; Kasiviswanathan et
    al. / Bun et al.).

    If [A] is [(ε, δ)]-DP on databases of size [m] with [ε ≤ 1], then the
    algorithm that draws [m] rows with replacement from a database of size
    [n ≥ 2m] and runs [A] on them is [(ε̃, δ̃)]-DP with

    [ε̃ = 6·ε·m/n]   and   [δ̃ = exp(6·ε·m/n) · 4·(m/n) · δ].

    Algorithm 4 (sample and aggregate) relies on this with its [n/9]
    subsample; {!Privcluster.Sample_aggregate.amplified} is the
    corresponding instantiation. *)

val amplify : eps:float -> delta:float -> m:int -> n:int -> Dp.params
(** @raise Invalid_argument unless [0 < ε ≤ 1], [m ≥ 1] and [n ≥ 2m]. *)

module For_testing : sig
  val amplification_factor : m:int -> n:int -> float
  (** The [6·m/n] multiplier on ε. *)
end
