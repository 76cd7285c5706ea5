(** Seeded pseudo-random sampling for every randomized component.

    All algorithms in this library thread an explicit [Rng.t] so that every
    experiment is reproducible from a printed seed.  The samplers implemented
    here are exactly the noise distributions the paper relies on: Laplace
    (Theorem 2.3), Gaussian (Theorem 2.4), the exponential/Gumbel trick used
    to implement the exponential mechanism, and the auxiliary uniform /
    Bernoulli / categorical draws used by workload generators and by the
    randomly shifted grids of Algorithm 2. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a deterministic generator.  Without [seed] the
    generator is seeded from the system entropy source. *)

val split : t -> t
(** [split t] derives a fresh generator from [t], advancing [t]; the two
    streams are (statistically) independent.  Used to hand sub-algorithms
    their own stream without coupling their consumption patterns. *)

val derive : t -> stream:int -> t
(** [derive t ~stream] is the [stream]-th independent child generator of
    [t], computed from [t]'s {e creation seed} only — the parent's state is
    neither read nor advanced, so the result does not depend on how much
    randomness has already been consumed, nor on the order in which streams
    are derived.  This is the seeding primitive the concurrent query engine
    uses to give each job a reproducible stream no matter which worker
    domain picks it up.  Streams are decorrelated by a SplitMix64 hash of
    [(seed, stream)].
    @raise Invalid_argument if [stream < 0]. *)

(** {1 Basic draws} *)

val float : t -> float -> float
(** [float t b] is uniform on [\[0, b)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform on [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] is uniform on [{0, …, n−1}]. Requires [n > 0]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to [0, 1]). *)

(** {1 Noise distributions} *)

val gaussian : t -> ?mu:float -> sigma:float -> unit -> float
(** One draw from N(mu, sigma²) via Box–Muller.  [sigma >= 0]. *)

val laplace : t -> ?mu:float -> scale:float -> unit -> float
(** One draw from Lap(scale) centered at [mu]: density
    [1/(2·scale) · exp(−|y−mu|/scale)].  [scale > 0]. *)

val gaussian_vector : t -> dim:int -> sigma:float -> float array
(** [dim] iid N(0, sigma²) draws — the noise vector of Theorem 2.4 and the
    rows of the JL matrix (Lemma 4.10). *)

(** {1 Discrete distributions} *)

val categorical_log : t -> log_weights:float array -> int
(** Numerically stable categorical sampling from unnormalized log-weights
    (the exponential mechanism's native parameterization); implemented with
    the Gumbel-max trick so no normalization is ever computed. *)

val sample_with_replacement : t -> k:int -> 'a array -> 'a array
(** [k] iid uniform elements (the subsampling step of Algorithm 4). *)

module For_testing : sig
  val copy : t -> t
  (** Independent snapshot of the current state. *)

  val exponential : t -> rate:float -> float
  (** Exp(rate), mean [1/rate].  [rate > 0]. *)

  val gumbel : t -> scale:float -> float
  (** Standard Gumbel scaled by [scale]; adding iid Gumbel(1/ε·…) noise to
      scores and taking argmax realizes the exponential mechanism. *)

  val sample_without_replacement : t -> k:int -> 'a array -> 'a array
  (** [k] distinct elements drawn uniformly.  Requires [k <= Array.length]. *)

  val seed_of : t -> int
  (** The seed this generator was created from (for logging). *)

  val shuffle : t -> 'a array -> unit
  (** In-place Fisher–Yates shuffle. *)
end
