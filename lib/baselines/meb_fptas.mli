(** Coreset-based private minimum enclosing ball, in the style of
    Mahpud–Sheffet 2022 ("A Differentially Private Linear-Time fPTAS for
    the Minimum Enclosing Ball Problem", arXiv:2206.03319).

    Three stages under basic composition, each a standard mechanism:

    + {b Coreset average} — sample [m] rows with replacement, release
      their NoisyAVG ({!Prim.Noisy_avg}).  By secrecy of the subsample
      ({!Prim.Subsample}) the stage's charge against the full database is
      the amplified [(6·ε₀·m/n, δ̃)], budgeted at [(ε/4, δ)]; the sample
      plays the coreset's role — stage cost is [O(m·d)], independent of
      [n].
    + {b Center refinement} — a private coordinate descent toward the
      mass: a few rounds of the exponential mechanism over the [2d + 1]
      candidates [{ĉ} ∪ {ĉ ± step·e_a}] with quality the capped in-ball
      count (sensitivity 1), the step halving every round ([ε/4] total).
      This is the fPTAS knob: more rounds, finer final step.
    + {b Radius release} — noisy binary search
      ({!Recconcave.Monotone_search}) for the smallest grid radius whose
      in-ball count around the refined center reaches [t] ([ε/2]).

    Totals [(ε, δ)]-DP; {!For_testing.budget_breakdown} makes the ledger explicit and
    a test pins the sum.  The non-private coreset fact the QCheck suite
    certifies separately: the Bădoiu–Clarkson ball of a uniform sample is
    within the (1+α) factor of the full-data ball
    ({!Geometry.Seb.min_enclosing_ball}). *)

type result = {
  center : Geometry.Vec.t;
  radius : float;
  coreset_size : int;  (** Rows actually sampled (capped at [n]). *)
  refinement_rounds : int;
}

type failure =
  | Center_bottom
      (** NoisyAVG returned ⊥ (its noisy count lower bound was
          non-positive) — only likely when [n] is tiny relative to ε. *)

val pp_failure : Format.formatter -> failure -> unit

val run :
  Prim.Rng.t ->
  grid:Geometry.Grid.t ->
  eps:float ->
  delta:float ->
  ?coreset:int ->
  ?rounds:int ->
  t:int ->
  Geometry.Pointset.t ->
  (result, failure) Stdlib.result
(** [(ε, δ)]-DP (central model).  @raise Invalid_argument if [t ≤ 0] or
    the pointset dimension disagrees with the grid. *)

module For_testing : sig
  val budget_breakdown :
    eps:float -> delta:float -> n:int -> coreset:int -> (string * Prim.Dp.params) list
  (** The per-stage privacy ledger of one run: the amplified coreset charge
      actually incurred, the refinement total, and the radius search.  The
      basic-composition sum is at most [(ε, δ)]; pinned by a test. *)

  val default_coreset : int
  (** 400 — past this the sample average is far tighter than the privacy
      noise floor, so larger coresets only cost time. *)

  val default_rounds : int
  (** 6 refinement rounds: final step = diameter/2⁷. *)

  val pp_result : Format.formatter -> result -> unit
end
