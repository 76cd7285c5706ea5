(** Non-private enclosing-ball computations.

    Section 3 recalls three facts about the minimal ball enclosing [t] of
    [n] points: exact solution is NP-hard [Shenmaier 2013]; a PTAS exists
    [Agarwal et al.]; and restricting centers to input points gives a simple
    2-approximation.  This module supplies the non-private reference
    solvers the experiments compare against:

    - the exact 1-D solver (sliding window over sorted coordinates);
    - the 2-approximation (fact 3) in any dimension;
    - Bădoiu–Clarkson core-set iteration for the (1+α)-approximate minimum
      enclosing ball of {e all} points, used to tighten reference radii and
      as the aggregation step of non-private pipelines. *)

type ball = { center : Vec.t; radius : float }

val exact_1d : float array -> t:int -> ball
(** Smallest interval (as a 1-D ball) containing [t] of the coordinates.
    O(n log n).  @raise Invalid_argument if [t] is not in [1, n]. *)

val two_approx : Pointset.t -> t:int -> ball
(** Smallest ball {e centered at an input point} containing [t] points;
    its radius is at most [2·r_opt] (Section 3, fact 3).
    {!two_approx_indexed} over a fresh {!Pointset.build_index}.
    @raise Invalid_argument if [t] is not in [1, n]. *)

val two_approx_indexed : Pointset.index -> t:int -> ball
(** Same via a prebuilt index: {!Pointset.min_kth_neighbor_distance}, the
    pruned scan.  A point's [t]-th neighbor distance is computed only when
    it is a distinct point ({!Pointset.For_testing.is_representative}) that can hold
    the minimum and {!Pointset.For_testing.holds_at_least} says the ball of the
    running best radius around it holds [t] points.  When the index
    memoizes a sweep with final count columns (GoodRadius ran on it),
    they narrow the distinct points to those in the lowest radius bracket
    that reaches [t]; otherwise every distinct point is probed.  A skipped point could
    not have won, so the ball — radius bits and center, first index on
    ties — equals the unpruned scan's over every point.  Cost: one tree
    query per candidate plus one exact evaluation (an O(n·d) distance
    pass and a quickselect) per candidate whose distance is at most the
    running best: each improvement of the minimum, and each tie with it.
    @raise Invalid_argument if [t] is not in [1, n]. *)

val t_ball_heuristic : ?iterations:int -> ?start:ball -> Pointset.t -> t:int -> ball
(** Best-effort reference for [r_opt]: start from [start] (by default
    {!two_approx}; a caller that already holds it passes it), then
    alternate (a) keep the [t] points nearest the current center and
    (b) recenter with {!For_testing.min_enclosing_ball} on them.  Radius never exceeds
    the 2-approximation; experiments use it as the non-private [r_opt]
    estimate (together with the planted radius when the workload knows it). *)

module For_testing : sig
  val count_inside : ball -> Vec.t array -> int

  val min_enclosing_ball : ?iterations:int -> Vec.t array -> ball
  (** Bădoiu–Clarkson: after [k] iterations the radius is within a factor
      [1 + O(1/√k)] of the minimum enclosing ball of all the points (default
      100 iterations).  @raise Invalid_argument on an empty array. *)
end
