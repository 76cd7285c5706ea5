(** Privacy parameters and budget bookkeeping.

    A value of type {!params} is the [(ε, δ)] pair of Definition 1.1.  The
    helpers here are pure arithmetic on parameters; actual noise addition
    lives in the mechanism modules ({!Laplace}, {!Gaussian_mech}, …) and
    multi-mechanism accounting in {!Composition}. *)

type params = { eps : float; delta : float }

val v : eps:float -> delta:float -> params
(** Smart constructor; raises [Invalid_argument] unless [eps > 0] and
    [0 <= delta < 1]. *)

val pure : eps:float -> params
(** [(ε, 0)]-DP. *)

val eps : params -> float
val delta : params -> float

val to_string : params -> string

module For_testing : sig
  val is_pure : params -> bool

  val scale : params -> float -> params
  (** [scale p c] multiplies both ε and δ by [c] (c > 0). *)

  val split : params -> int -> params
  (** [split p k] gives the per-piece budget when [p] is divided evenly over
      [k] sequential mechanisms under basic composition (Theorem 2.1):
      each piece gets [(ε/k, δ/k)]. *)
end
