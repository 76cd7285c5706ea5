(** Scoring a (center, radius) answer against a workload's ground truth —
    the two quantities of Definition 1.2:

    - {b coverage}: how many input points the returned ball actually
      contains ([t − Δ_measured]);
    - {b radius ratio}: [w_measured = returned radius / r_opt].

    Because [r_opt] is NP-hard, ratios are reported against the sandwich
    [(r_lo, r_hi)] of {!Baselines.Nonprivate.r_opt_bounds} (for planted
    workloads the planted radius tightens [r_hi]). *)

type score = {
  covered : int;  (** Points inside the returned ball. *)
  delta_measured : int;  (** [max 0 (t − covered)]. *)
  ratio_vs_hi : float;  (** radius / r_hi — optimistic ratio (≥ this). *)
  ratio_vs_lo : float;  (** radius / r_lo — pessimistic ratio (≤ this). *)
  r_lo : float;
  r_hi : float;
}

val score :
  ?planted_radius:float ->
  Geometry.Pointset.t ->
  t:int ->
  center:Geometry.Vec.t ->
  radius:float ->
  score

val r_opt_bounds_indexed : Geometry.Pointset.index -> t:int -> float * float
(** The [(r_lo, r_hi)] sandwich via a prebuilt distance index — compute once
    per workload and feed {!For_testing.score_with_bounds} for every method/trial. *)

val tight_radius : Geometry.Pointset.t -> center:Geometry.Vec.t -> t:int -> float
(** Diagnostic (non-private): the smallest radius around the given center
    that captures [t] points — how good the {e center} is, independent of
    the conservative private radius. *)

val mean : float list -> float
val median : float list -> float
val quantile : float list -> q:float -> float

module For_testing : sig
  val score_with_bounds :
    r_lo:float ->
    r_hi:float ->
    Geometry.Pointset.t ->
    t:int ->
    center:Geometry.Vec.t ->
    radius:float ->
    score

  val success : score -> t:int -> max_delta:int -> max_ratio:float -> bool
  (** Did the answer meet Definition 1.2 with the given [Δ] and [w]? (Uses the
      optimistic ratio; callers exploring failure report both.) *)
end
