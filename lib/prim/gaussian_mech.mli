(** The Gaussian mechanism (Theorem 2.4, Dwork et al. 2006).

    For [f] of L2-sensitivity [k] and [ε, δ ∈ (0, 1)], adding iid
    N(0, σ²) noise with [σ ≥ (k/ε)·√(2 ln(1.25/δ))] to each coordinate is
    [(ε, δ)]-differentially private.  GoodCenter's final step (step 11 /
    Algorithm 5) releases the average of the captured cluster this way. *)

val sigma : eps:float -> delta:float -> l2_sensitivity:float -> float
(** The smallest noise level the theorem licenses.  Theorem 2.4 is stated
    for [ε < 1]; budgets ≥ 1 are clamped to 1 (more privacy than asked,
    never less). *)

val vector :
  Rng.t -> eps:float -> delta:float -> l2_sensitivity:float -> float array -> float array
(** Adds iid N(0, σ²) noise (σ from {!sigma}) to every coordinate. *)

val vector_with_sigma : Rng.t -> sigma:float -> float array -> float array
(** Adds iid N(0, σ²) noise at an explicitly chosen level (used when the
    caller derives σ itself, as NoisyAVG does from its noisy count). *)

val coordinate_tail_bound : sigma:float -> dim:int -> beta:float -> float
(** Magnitude [m] with:  P(∃ coordinate with |noise| > m) ≤ beta, via the
    Gaussian tail and a union bound over [dim] coordinates —
    [m = σ·√(2 ln(2·dim/β))].  This is the bound behind Lemma 4.12's
    [|η_i| ≤ r√(k/d)] step. *)
