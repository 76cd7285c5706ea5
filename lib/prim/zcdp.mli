(** Zero-concentrated differential privacy (zCDP) accounting
    (Bun–Steinke 2016).

    The paper predates zCDP and budgets its d-fold per-axis composition in
    GoodCenter with the advanced composition theorem (Theorem 4.7); modern
    releases ship the tighter concentrated-DP accounting, so this module
    provides its arithmetic: [Engine.Accountant]'s zCDP mode keeps the
    ledger, and experiment E12's accounting ablation compares the two on
    exactly that step.

    A mechanism is ρ-zCDP when its Rényi divergence at every order
    [α > 1] is bounded by [ρ·α].  Facts used here:

    - the Gaussian mechanism with noise [σ] on an L2-sensitivity-[Δ] query
      is [ρ = Δ²/(2σ²)]-zCDP;
    - [(ε, 0)]-DP implies [ρ = ε²/2]-zCDP (so Laplace-based pieces can be
      folded into the same ledger);
    - zCDP composes additively: [ρ₁ + ρ₂];
    - ρ-zCDP implies [(ρ + 2·√(ρ·ln(1/δ)), δ)]-DP for every [δ > 0]. *)

type rho = float
(** The zCDP parameter ρ. *)

val of_pure_dp : eps:float -> rho
(** [ε²/2]. *)

val compose : rho list -> rho
(** Additive composition. *)

val to_dp : rho -> delta:float -> Dp.params
(** The standard conversion [(ρ + 2√(ρ·ln(1/δ)), δ)]. *)

module For_testing : sig
  val eps_budget_to_rho : eps:float -> delta:float -> rho
  (** Largest ρ whose {!to_dp} conversion stays within [(ε, δ)] (bisection on
      the monotone conversion). *)

  val gaussian_sigma : rho:float -> l2_sensitivity:float -> float
  (** Smallest σ achieving the given ρ: [Δ/√(2ρ)]. *)

  val of_gaussian : sigma:float -> l2_sensitivity:float -> rho
  (** [Δ²/(2σ²)]. *)

  val per_mechanism_rho : total_rho:float -> k:int -> rho
  (** Even split of a ρ budget over [k] mechanisms (composition is additive,
      so this is exact — no advanced-composition slack). *)
end
