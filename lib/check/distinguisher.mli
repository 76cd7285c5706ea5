(** An empirical DP distinguisher in the StatDP / DP-Sniper style.

    Given a mechanism closure, a neighbouring-dataset pair presented as two
    sampling closures, and a family of output events, run the mechanism
    many times on each side, estimate the probability of every event on
    both, and compare the ratio against the claimed [(ε, δ)].

    No finite test can prove privacy; this one can {e refute} a
    calibration with statistical confidence.  To keep the false-alarm rate
    controlled, a violation is declared for an event only when the exact
    Clopper–Pearson {e lower} bound on one side exceeds
    [e^ε·(1+slack) · upper bound on the other side + δ] — i.e. even the
    most favourable reading of both intervals breaks the DP inequality
    with room to spare.  With [alpha = 0.05] and [slack = 0.1] a correctly
    calibrated mechanism sits at ratio ≤ e^ε, so a false alarm needs both
    one-sided 97.5% bounds to be simultaneously wrong {e and} to clear the
    10% slack: in practice well under [alpha] per event.

    The reported [eps_lb] is the certified empirical privacy loss — the
    largest [ln((lo − δ)/hi)] over all events and both directions — a
    lower confidence bound on the true ε of the mechanism.  For a healthy
    mechanism it sits below the claimed ε (typically slightly, since the
    worst event approaches the bound). *)

type estimate = {
  event : string;
  p_hat : float;  (** Empirical probability on the left side. *)
  q_hat : float;  (** Empirical probability on the right side. *)
  p_ci : Stats.interval;
  q_ci : Stats.interval;
  eps_lb : float;
      (** Certified loss this event witnesses (max of the two directions);
          [neg_infinity] when the intervals certify nothing. *)
  violation : bool;
}

type verdict = {
  claimed : Prim.Dp.params;
  slack : float;
  alpha : float;
  trials : int;  (** Per side. *)
  estimates : estimate list;
  eps_lb : float;  (** Max over events. *)
  violation : bool;  (** Any event in violation. *)
}

val count :
  Prim.Rng.t -> trials:int -> events:('o -> bool) array -> (Prim.Rng.t -> 'o) -> int array
(** Run the mechanism [trials] times on the given stream and count how
    often each event holds.  Exposed so callers (the suite's
    {!Engine.Pool} fan-out, the deep test tier) can shard trials over
    independent derived streams and merge counts. *)

val verdict :
  claimed:Prim.Dp.params ->
  ?slack:float ->
  ?alpha:float ->
  events:string list ->
  left:int * int array ->
  right:int * int array ->
  unit ->
  verdict
(** [verdict ~claimed ~events ~left:(n_left, counts_left)
    ~right:(n_right, counts_right) ()] — the pure estimation step on
    already-merged counts.  [slack] defaults to [0.1], [alpha] to
    [0.05]. *)

val thresholds : lo:float -> hi:float -> count:int -> (string * (float -> bool)) list
(** The event family [{x ≥ c}] for [count] cut points evenly spaced on
    [\[lo, hi\]] — the workhorse family for real-valued outputs (every
    one-sided tail event of a monotone likelihood-ratio family). *)

val categories : k:int -> (string * (int -> bool)) list
(** Singleton events [{o = i}] for integer outputs in [\[0, k)], plus a
    final ["other"] event catching everything outside the range. *)

val pp_verdict : Format.formatter -> verdict -> unit

module For_testing : sig
  val run :
    Prim.Rng.t ->
    claimed:Prim.Dp.params ->
    ?slack:float ->
    ?alpha:float ->
    trials:int ->
    events:(string * ('o -> bool)) list ->
    left:(Prim.Rng.t -> 'o) ->
    right:(Prim.Rng.t -> 'o) ->
    unit ->
    verdict
  (** Single-threaded convenience: [count] both sides on independent derived
      streams, then [verdict]. *)
end
