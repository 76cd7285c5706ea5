(** The sparse vector technique — algorithm AboveThreshold (Theorem 4.8).

    An [(ε, 0)]-DP interactive mechanism: the curator fixes a threshold [t],
    then receives an adaptive stream of sensitivity-1 queries; each query is
    answered [Below] until the first whose noisy value clears the noisy
    threshold, which is answered [Above], after which the mechanism halts.
    GoodCenter (Algorithm 2, steps 2/5/6) uses it to detect an iteration in
    which some randomly shifted box captures ≳ t projected points.

    Accuracy (Theorem 4.8): over [k] queries, with probability ≥ 1 − β every
    [Above] answer has true value ≥ t − (8/ε)·ln(2k/β) and every [Below]
    answer has true value ≤ t + (8/ε)·ln(2k/β). *)

type t

type answer = Above | Below

val create : Rng.t -> eps:float -> threshold:float -> t
(** Fresh mechanism.  The noisy threshold is drawn once, here. *)

val create_multi : Rng.t -> eps:float -> threshold:float -> firings:int -> t
(** Variant answering up to [firings] Above answers before halting,
    implemented as [firings] sequential AboveThreshold instances at
    [ε/firings] each (a fresh noisy threshold is drawn after every Above) —
    exactly basic composition, total [(ε, 0)]-DP.  Per-instance accuracy is
    {!accuracy_bound} at [ε/firings]. *)

val query : t -> float -> answer
(** Feed the (true) value of the next sensitivity-1 query.

    @raise Invalid_argument if the mechanism already answered [Above]. *)

val create_numeric : Rng.t -> eps:float -> threshold:float -> t
(** NumericSparse (Dwork–Roth §3.6): an AboveThreshold instance whose
    firing answer also releases a Laplace estimate of the fired query's
    value.  Budget split: ε/2 to the threshold test (threshold Lap(4/ε),
    comparisons Lap(8/ε)) and ε/2 to the one released value (Lap(2/ε) at
    sensitivity 1) — [(ε, 0)]-DP total by basic composition. *)

val query_numeric : t -> float -> float option
(** Feed the next sensitivity-1 query to a {!create_numeric} mechanism:
    [Some noisy_value] on Above (then the mechanism halts), [None] on Below.
    @raise Invalid_argument on a mechanism not built by {!create_numeric},
    or after it has halted. *)

val accuracy_bound : eps:float -> k:int -> beta:float -> float
(** The [(8/ε)·ln(2k/β)] slack of Theorem 4.8. *)

module For_testing : sig
  val firings_left : t -> int

  val halted : t -> bool
  (** [true] once [Above] has been returned. *)

  val queries_asked : t -> int
end
