(** Composition theorems: the arithmetic behind [Engine.Accountant]'s
    basic and advanced modes.

    Two composition rules from the paper:
    - {b basic} (Theorem 2.1): k adaptive [(ε, δ)]-DP mechanisms compose to
      [(kε, kδ)]-DP;
    - {b advanced} (Theorem 4.7, Dwork–Rothblum–Vadhan): they compose to
      [(ε', kδ + δ')]-DP with [ε' = 2kε² + ε·√(2k·ln(1/δ'))].

    GoodCenter's per-axis interval choices (step 9c) are budgeted with the
    advanced rule, which is where its [ε/(10√(d·ln(8/δ)))] per-axis parameter
    comes from; everything else in the paper uses basic composition. *)

val basic : Dp.params -> k:int -> Dp.params
(** Total cost of [k] mechanisms each charged the given params. *)

val basic_list : Dp.params list -> Dp.params
(** Heterogeneous basic composition: sum the ε's and the δ's. *)

val advanced : Dp.params -> k:int -> delta':float -> Dp.params
(** Total cost under Theorem 4.7 with slack [δ']. *)

val advanced_per_mechanism : total_eps:float -> k:int -> delta':float -> float
(** Inverse direction: the per-mechanism ε that makes [k]-fold advanced
    composition (with slack δ') stay within [total_eps], found by bisection
    on the (monotone) advanced-composition bound.  GoodCenter uses the
    closed-form under-approximation [ε_i = ε/(2·√(2k·ln(1/δ')))]; this
    function is the exact version, for tests and for callers who want the
    tightest split. *)
