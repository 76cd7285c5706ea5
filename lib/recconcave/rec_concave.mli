(** RecConcave — private optimization of quasi-concave promise problems
    (Theorem 4.3, Beimel–Nissim–Stemmer 2013; "recursion on binary search").

    Given a sensitivity-1 quasi-concave quality [Q] over [{0 … T−1}] with
    promise [max Q ≥ p], return an index [f] with [Q(f) ≥ (1−α)·p] with
    probability ≥ 1 − β, privately.

    {b Structure} (faithful to the cited construction): if [T] is small the
    exponential mechanism solves the problem directly.  Otherwise the
    scale-quality reduction ({!Scale_quality}) turns the problem into a
    quasi-concave promise problem over only [⌈log₂ T⌉ + 1] scales, solved
    recursively; the returned scale [j] certifies an interval of width
    [w = 2^j] on which [Q] is everywhere large, and a cell of the two
    staggered width-[2w] partitions containing that interval is selected,
    then a solution inside the cell.  The recursion depth is [log*(T)].

    {b Documented deviation from BNS13} (see DESIGN.md §1): the per-level
    cell and in-cell selections use the exponential mechanism, so the whole
    algorithm is pure [(ε, 0)]-DP, and the utility loss carries a
    [log T / ε] term (matching the "noisy binary search" bound the paper
    quotes in §3.1) instead of BNS13's [2^{O(log* T)} / ε]; the recursion
    skeleton, privacy accounting and promise interface are those of
    Theorem 4.3.  {!loss_bound} gives this implementation's actual
    guarantee and is what GoodRadius uses to size its promise Γ. *)

type report = {
  chosen : int;  (** The selected solution index. *)
  mechanisms : int;  (** Number of exponential-mechanism invocations. *)
  eps_each : float;  (** Privacy budget given to each invocation. *)
  depth : int;  (** Recursion depth (number of scale reductions). *)
}

val solve :
  Prim.Rng.t ->
  eps:float ->
  ?base:int ->
  ?sensitivity:float ->
  Quality.t ->
  report
(** Run the algorithm.  [(eps, 0)]-differentially private whenever the
    supplied quality has the stated sensitivity (default 1).  The promise
    and [α, β] do not appear: they are analysis-side quantities — use
    {!loss_bound} to size a promise. *)

val loss_bound : ?base:int -> size:int -> eps:float -> beta:float -> unit -> float
(** Additive quality loss [max Q − Q(chosen)] guaranteed with probability
    ≥ 1 − β, obtained by summing the exponential-mechanism utility bound
    over every selection the recursion performs on a domain of the given
    size.  A quality promise [p ≥ loss_bound / α] certifies a
    [(1−α)·p] outcome. *)

val paper_promise : eps:float -> beta:float -> delta:float -> domain_size:float -> float
(** The promise Γ that Algorithm 1 (GoodRadius) quotes from Theorem 4.3:
    [8^{log* F} · (144·log* F / ε) · ln(24·log* F / (βδ))] with
    [F = domain_size].  Provided for reporting alongside {!loss_bound};
    astronomically conservative at practical scales. *)

(**/**)

module For_testing : sig
  val cells : size:int -> w:int -> (int * int) list
  (** The two staggered partitions of [{0 … size−1}] into width-[2w] cells
      (clipped), as inclusive [(lo, hi)] pairs.  The tests check their
      coverage invariant: every width-[w] subinterval of the domain is fully
      contained in at least one cell. *)

  val depth : ?base:int -> int -> int
  (** Recursion depth for a domain of the given size (number of times the
      scale reduction is applied before the domain fits the base case;
      [base] defaults to 32).  Grows as [log*]: 0 for T ≤ 32, and at most 4
      for any T representable in 63 bits. *)

  val log_star : float -> float
  (** Iterated base-2 logarithm. *)

  val mechanism_count : ?base:int -> int -> int
  (** [2·depth + 1] exponential-mechanism invocations. *)
end
