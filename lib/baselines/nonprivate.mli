(** Non-private reference solvers for the 1-cluster problem (Section 3's
    facts 1–3), presented through the same (center, radius) interface as the
    private solvers so the experiment harness can treat every method
    uniformly.  The exact problem is NP-hard in general; these give the
    exact answer for d = 1 and the classical 2-approximation (tightened by
    core-set iteration) otherwise. *)

type answer = {
  center : Geometry.Vec.t;
  radius : float;
  exact : bool;  (** Whether the answer is provably optimal (d = 1 only). *)
}

val solve : Geometry.Pointset.t -> t:int -> answer
(** Exact for 1-D inputs; {!Geometry.Seb.t_ball_heuristic} otherwise. *)

val r_opt_bounds : Geometry.Pointset.t -> t:int -> float * float
(** [(lo, hi)] with [lo ≤ r_opt ≤ hi]: [hi] is the best feasible radius
    found, [lo = (two-approx radius)/2] — the experiments report measured
    approximation ratios against both ends. *)

module For_testing : sig
  val two_approx : Geometry.Pointset.t -> t:int -> answer
  (** The plain 2-approximation (balls centered at input points). *)
end
