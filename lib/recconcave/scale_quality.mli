(** The scale-quality reduction at the heart of RecConcave.

    For a quality [Q] over [{0 … T−1}] define, for each scale
    [j ∈ {0 … ⌈log₂ T⌉}], the width [w_j = min(2^j, T)] and

    [L(j) = max over a of min_{f ∈ [a, a+w_j)} Q(f)]
          [= max over a of min(Q(a), Q(a + w_j − 1))]   (when Q is quasi-concave)

    — the best guaranteed quality of an interval of width [w_j].  [L]
    inherits sensitivity 1 from [Q], is non-increasing in [j] (hence
    quasi-concave), and satisfies [L(0) = max Q]; RecConcave recurses on it,
    shrinking the solution domain from [T] to [⌈log₂ T⌉ + 1]. *)

val num_scales : int -> int
(** [⌈log₂ T⌉ + 1] scales for a domain of size [T ≥ 1]. *)

val width : size:int -> int -> int
(** [w_j = min(2^j, size)]. *)

val quality : Quality.t -> Quality.t
(** [L] packaged as a (memoized) quality over [{0 … num_scales − 1}]. *)

module For_testing : sig
  val eval : Quality.t -> int -> float
  (** [L(j)] by a full scan of the start positions (every [Q] access is
      memoized, so evaluating [L] at every scale costs O(T) distinct [Q]
      evaluations in total). *)

  val interval_min : Quality.t -> lo:int -> hi:int -> float
  (** [min(Q(lo), Q(hi))] — the quasi-concave shortcut for
      [min_{f ∈ [lo, hi]} Q(f)] (the tests compare it against the exhaustive
      minimum). *)
end
