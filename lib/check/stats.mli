(** Statistical estimators for the verification harness.

    Everything here is classical frequentist machinery — goodness-of-fit
    statistics against a fully specified reference law, and exact binomial
    confidence bounds — implemented from scratch so the test-suite carries
    no numerical dependency.  The special functions (log-gamma, regularized
    incomplete gamma and beta) follow the standard series / continued-
    fraction evaluations and are accurate to ~1e-10 over the ranges the
    harness uses; the inverse used by {!clopper_pearson} is a plain
    bisection, which is plenty at test sample sizes.

    Conventions: every test reports an upper-tail p-value ("probability of
    a statistic at least this extreme under the null"), and a caller
    declares failure by comparing it to an explicit significance level —
    never by a magic count threshold. *)

(** {1 Special functions} *)

val normal_cdf : ?mu:float -> sigma:float -> float -> float
(** Exact Gaussian CDF — the reference law for Gaussian-mechanism output. *)

(** {1 Binomial confidence intervals} *)

type interval = { lo : float; hi : float }

val clopper_pearson : alpha:float -> k:int -> n:int -> interval
(** The exact (conservative) two-sided Clopper–Pearson [1 − alpha]
    confidence interval for a binomial proportion after observing [k]
    successes in [n] trials.  [lo = 0] when [k = 0] and [hi = 1] when
    [k = n]. *)

(** {1 Goodness-of-fit tests} *)

type ks = { d : float; p_value : float; n : int }

val ks_test : cdf:(float -> float) -> float array -> ks
(** One-sample Kolmogorov–Smirnov against the fully specified [cdf]
    (two-sided [D], asymptotic p-value with Stephens' small-sample
    correction).  The sample array is not modified. *)

type ad = { a2 : float; p_value : float; n : int }

val ad_test : cdf:(float -> float) -> float array -> ad
(** One-sample Anderson–Darling [A²] against the fully specified [cdf]
    (the "case 0" statistic — no estimated parameters).  The p-value is
    interpolated from the asymptotic critical-value table and clamped to
    [\[0.005, 0.25\]]; values at the clamps mean "at most" / "at least".
    For verdicts at standard significance levels use {!ad_critical}. *)

val ad_critical : significance:float -> float
(** The case-0 asymptotic critical value of [A²] at the given upper-tail
    [significance] (log-interpolated between the standard table points;
    clamped to the tabulated range [\[0.005, 0.25\]]). *)

type chi2 = { stat : float; df : int; p_value : float; pooled_cells : int }

val chi2_test : expected:float array -> observed:int array -> chi2
(** Pearson chi-square of observed counts against expected cell
    probabilities ([expected] is normalized internally).  Cells whose
    expected count falls below 5 are pooled into one (the classical
    validity rule); [pooled_cells] reports how many were merged.
    @raise Invalid_argument on length mismatch or an all-zero expectation. *)

module For_testing : sig
  val chi2_sf : df:int -> float -> float
  (** Chi-square survival function [P(X² ≥ x)] at [df] degrees of freedom. *)

  val erfc : float -> float
  (** Complementary error function, via the incomplete gamma. *)

  val log_gamma : float -> float
  (** [ln Γ(x)] (Lanczos, with reflection for [x < 0.5]). *)

  val reg_inc_beta : a:float -> b:float -> float -> float
  (** [reg_inc_beta ~a ~b x] is the regularized incomplete beta [I_x(a, b)] —
      the CDF at [x] of a Beta(a, b) variable. *)
end
