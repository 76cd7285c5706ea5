(** The Laplace mechanism (Theorem 2.3, Dwork–McSherry–Nissim–Smith).

    For a function [f] of L1-sensitivity [k], releasing [f(S) + Lap(k/ε)] in
    each coordinate is [(ε, 0)]-differentially private.  GoodRadius uses this
    on the sensitivity-2 score [L(0, S)] (step 2 of Algorithm 1), and it is
    the workhorse behind noisy counting throughout the baselines. *)

val noise : Rng.t -> eps:float -> sensitivity:float -> float
(** One draw from Lap(sensitivity/ε). *)

val scalar : Rng.t -> eps:float -> sensitivity:float -> float -> float
(** [scalar rng ~eps ~sensitivity x] releases [x] with Laplace noise
    calibrated to the given L1 sensitivity. *)

val count : Rng.t -> eps:float -> int -> float
(** Noisy counting query: sensitivity 1. *)

val tail_bound : eps:float -> sensitivity:float -> beta:float -> float
(** [tail_bound ~eps ~sensitivity ~beta] is the magnitude [m] such that one
    Laplace draw exceeds [m] in absolute value with probability at most
    [beta]:  [m = (sensitivity/ε) · ln(1/beta)].  Used by utility analyses
    (e.g. the [4/ε · ln(2/β)] slack in GoodRadius step 2). *)

val cdf : eps:float -> sensitivity:float -> ?mu:float -> float -> float
(** The exact CDF of one released value centered at [mu] (the true answer):
    [P(mu + Lap(sensitivity/ε) ≤ x)].  This is the reference law the
    statistical verification harness ({!Check}) tests empirical samples
    against — kept here so test and mechanism can never disagree about the
    intended scale. *)
