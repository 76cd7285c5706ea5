(** The exponential mechanism (McSherry–Talwar).

    Given a finite candidate set and a sensitivity-[s] quality score, select
    candidate [f] with probability proportional to [exp(ε·q(f)/(2s))].  This
    is [(ε, 0)]-DP.  It is the base case of RecConcave (Theorem 4.3) and the
    engine of the Table-1 "exponential mechanism" baseline. *)

val select : Rng.t -> eps:float -> sensitivity:float -> qualities:float array -> int
(** Index of the selected candidate.  Implemented with the Gumbel-max trick
    so arbitrarily large score ranges cannot overflow. *)

val probabilities : eps:float -> sensitivity:float -> qualities:float array -> float array
(** The exact output law of {!select}: candidate [i] is chosen with
    probability [exp(ε·q_i/(2s)) / Σ_j exp(ε·q_j/(2s))] (computed in a
    max-shifted, overflow-free form).  The verification harness's chi-square
    tester compares empirical selection counts against this. *)

val error_bound : eps:float -> sensitivity:float -> n_candidates:int -> beta:float -> float
(** With probability ≥ 1 − beta the selected candidate's quality is within
    this additive amount of the maximum:
    [(2s/ε)·ln(n_candidates/β)] (standard utility theorem). *)
