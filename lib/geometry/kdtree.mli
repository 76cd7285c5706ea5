(** A k-d tree over R^d for ball-counting queries.

    This tree answers single ball-count queries in O(n^{1−1/d} + out)
    without any quadratic precomputation.  It is the one index behind
    every {!Pointset.index}, at every n and d: single-radius counts,
    [holds_at_least] and the [r_opt] scan reach it through the index,
    every registry epoch builds its own, and only the
    exponential-mechanism baseline queries it directly.  A GoodRadius
    candidate sweep does not query it: {!Pointset.score_l_many} pairs
    the distinct points block by block, in the tree's leaf order
    ({!leaves}), with the same ball predicate.

    Ball membership is [sqrt acc <= radius] for the computed squared
    distance [acc] — the predicate of {!Vec.dist} — tested as
    [acc <= Vec.ball_r2 radius], which is equivalent bit for bit.

    The tree is a {e view}: built from flat row-major storage, it keeps a
    reference to the backing store and permutes only an array of row
    offsets — no coordinate is ever copied.  The storage must not be
    mutated while the tree is live (see DESIGN.md, "Memory layout").
    Queries never allocate more than the output. *)

type t

val build_flat : storage:float array -> offs:int array -> dim:int -> unit -> t
(** Zero-copy construction over existing flat storage: [offs.(i)] is the
    element offset of point [i]'s row.  [offs] is copied (the build permutes
    it); [storage] is shared.
    @raise Invalid_argument on empty [offs]. *)

val leaves : t -> int array * int array
(** [(rows, starts)]: every stored row, leaf by leaf from left to right,
    as its position in the build's input ([offs] for {!build_flat}, the
    points for {!For_testing.build}); leaf [l] holds [rows.(starts.(l))] up to
    [rows.(starts.(l + 1) - 1)], and the last entry of [starts] is
    {!For_testing.size}.  A leaf holds at most 64 rows, or rows that are all equal;
    each is a cell of the tree's median splits, so the order is spatial.
    {!Pointset.score_l_many} cuts its pair sweep into blocks along it. *)

val count_within : t -> center:Vec.t -> radius:float -> int
(** Number of stored points with [dist p center <= radius] (inclusive, like
    {!Pointset.ball_count}); 0 for a negative radius. *)

val count_within_row : t -> float array -> off:int -> radius:float -> int
(** Same, with the center given as a row of a flat store (allocation-free;
    the store may be the tree's own backing storage). *)

module For_testing : sig
  val build : Vec.t array -> t
  (** O(n log n) construction (median splits along the widest axis); packs
      the boxed input into fresh flat storage first.
      @raise Invalid_argument on an empty array or mixed dimensions. *)

  val dim : t -> int
  val size : t -> int
end
