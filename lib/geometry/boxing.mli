(** Axis-aligned boxes from per-axis randomly shifted partitions.

    GoodCenter (Algorithm 2, step 4) partitions the projected space R^k into
    boxes [B_{j⃗}] whose projection on axis [i] is the [j_i]-th interval of
    that axis's partition.  Only non-empty boxes are ever materialized: a box
    is identified by its integer index vector, which doubles as the histogram
    key fed to {!Prim.Stability_hist}. *)

type t
(** A product of per-axis partitions over R^k. *)

type key = int array
(** Index vector [j⃗]; structural equality/hashing identifies boxes. *)

val make : Prim.Rng.t -> dim:int -> len:float -> t
(** Independent random phases on every axis, all intervals of length [len]. *)

val row_in_box : t -> float array -> off:int -> key -> bool
(** [row_in_box t st ~off key] is [key_of_row t st ~off = key], decided
    axis by axis without building the row's key.
    @raise Invalid_argument if [key] has the wrong length. *)

val center : t -> key -> Vec.t

val occupancy : t -> Pointset.t -> (key * int) list
(** Non-empty boxes with their counts, in first-seen row order — the input
    to the stability histogram, as [Stability_hist.count_by] over the rows'
    keys would list it, without boxing any point.
    @raise Invalid_argument on dimension mismatch. *)

module For_testing : sig
  val bounds : t -> key -> (float * float) array
  (** Per-axis [(lo, hi)] of a box. *)

  val key_of : t -> Vec.t -> key
  (** Box containing a point. *)

  val key_of_row : t -> float array -> off:int -> key
  (** Box containing the row at [off] of a flat store (no boxed point is
      materialized). *)

  val l2_diameter : t -> float
  (** [√(Σ side²)] — the data-independent diameter used by the privacy
      analysis of the subsequent averaging step. *)

  val of_partitions : Interval.partition array -> t

  val side : t -> int -> float
  (** Interval length on the given axis. *)
end
