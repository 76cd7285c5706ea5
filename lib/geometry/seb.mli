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

val contains : ball -> Vec.t -> bool
val count_inside : ball -> Vec.t array -> int

val exact_1d : float array -> t:int -> ball
(** Smallest interval (as a 1-D ball) containing [t] of the coordinates.
    O(n log n).  @raise Invalid_argument if [t] is not in [1, n]. *)

val two_approx : Pointset.t -> t:int -> ball
(** Smallest ball {e centered at an input point} containing [t] points;
    its radius is at most [2·r_opt] (Section 3, fact 3).  O(n²·d). *)

val two_approx_indexed : Pointset.index -> t:int -> ball
(** Same via a prebuilt index.  The scan is pruned: point [i]'s [t]-th
    neighbor distance is computed only when [i] is the first of its
    identical points ({!Pointset.is_representative}) and
    {!Pointset.holds_at_least} says the ball of the running best radius
    around it holds [t] points.  A duplicate's distance is its
    representative's, already evaluated or pruned; otherwise the count and
    the distance share one predicate, so a count below [t] means the
    [t]-th distance exceeds the best.  Either way the skipped point could
    not have won, and the ball — radius bits and center, first index on
    ties — equals the unpruned scan's.  Cost: one tree query per distinct
    point plus one exact evaluation (an O(n·d) distance pass and a
    quickselect) per distinct point whose distance is at most the running
    best: each improvement of the minimum, and each tie with it.  On
    spread-out data that is a handful of evaluations; the worst case
    (every distinct point tied) costs what the unpruned scan over the
    distinct points did plus their probes. *)

val min_enclosing_ball : ?iterations:int -> Vec.t array -> ball
(** Bădoiu–Clarkson: after [k] iterations the radius is within a factor
    [1 + O(1/√k)] of the minimum enclosing ball of all the points (default
    100 iterations).  @raise Invalid_argument on an empty array. *)

val t_ball_heuristic : ?iterations:int -> Pointset.t -> t:int -> ball
(** Best-effort reference for [r_opt]: start from {!two_approx}, then
    alternate (a) keep the [t] points nearest the current center and
    (b) recenter with {!min_enclosing_ball} on them.  Radius never exceeds
    the 2-approximation; experiments use it as the non-private [r_opt]
    estimate (together with the planted radius when the workload knows it). *)
