(** Finite point sets in R^d with the counting machinery of Section 3.1,
    stored flat.

    For a database [S = (x_1 … x_n)], a center [p] and radius [r ≥ 0], the
    paper defines
    - [B_r(p, S)]  — the number of input points in the ball of radius [r]
      around [p];
    - [B̄_r(p, S) = min(B_r(p, S), t)] — the same count capped at the target
      cluster size [t];
    - [L(r, S) = (1/t)·max over distinct i_1…i_t of Σ B̄_r(x_{i_j}, S)] — the
      average of the [t] largest capped counts over balls centered at input
      points.

    [L(·, S)] is non-decreasing in [r] and has sensitivity 2 (Lemma 4.5);
    both facts are property-tested in [test/test_pointset.ml].

    {b Memory layout.}  A pointset owns a single row-major [float array] of
    length n·d; point [i] is the row at {!row_offset}[ t i].  {!subset} and
    {!filter} return index {e views} sharing that storage; {!point} and
    {!points} return fresh copies, so callers can never mutate the backing
    store through them.  The raw store is reachable via {!storage} /
    {!row_offsets} for flat-path kernels (k-d tree, JL, SEB, NoisyAVG) and
    is read-only by contract — see DESIGN.md, "Memory layout".

    An {!index} is a k-d tree ({!Kdtree}) over the points, turning each
    [L] evaluation into [n] tree queries instead of an O(n²·d) scan, and
    memoizes the count matrix of the last candidate sweep.  Points with
    bit-identical coordinates ({!is_representative}) share one
    count-matrix column: every per-row sweep runs once per distinct
    point.

    {b One ball predicate.}  Every count here — {!ball_count},
    {!score_l_direct} and every indexed query — includes a point when
    [sqrt acc <= radius] for its computed squared distance [acc], tested
    as [acc <= Vec.ball_r2 radius].  {!kth_neighbor_distance} returns a
    value of the same [sqrt acc], so "at least [k] points within [r]"
    holds exactly when the [k]-th neighbour distance is at most [r]. *)

type t

val create : Vec.t array -> t
(** Packs the boxed points into fresh flat storage.
    @raise Invalid_argument on an empty array or mixed dimensions. *)

val of_storage : dim:int -> float array -> t
(** Adopts an existing row-major store of length n·d (not copied; the
    caller must not mutate it afterwards).
    @raise Invalid_argument if empty or not a multiple of [dim]. *)

val view : storage:float array -> offs:int array -> dim:int -> t
(** A view selecting the rows at [offs] (element offsets, in point order)
    of an existing store.  [offs] is copied, [storage] shared; rows need
    not be contiguous, in order, or cover the store — this is how the
    epoch-versioned registry presents a slice of its append-only arena.
    Referenced rows are read-only by contract; elements of [storage] {e
    outside} every referenced row may be written freely (an arena append
    is invisible to live views).
    @raise Invalid_argument if [offs] is empty or any row falls outside
    the store. *)

val n : t -> int
val dim : t -> int

val point : t -> int -> Vec.t
(** A fresh copy of point [i]. *)

val points : t -> Vec.t array
(** Fresh copies of all points (O(n·d) allocation; mutating the result
    never affects the pointset). *)

val storage : t -> float array
(** The shared backing store — read-only by contract.  Row [i] of this
    pointset starts at [row_offset t i]; a view's rows need not be
    contiguous or in storage order. *)

val row_offset : t -> int -> int
val row_offsets : t -> int array
(** Element offsets of every row, aligned with point indices — read-only
    by contract (shared with the pointset and any k-d tree built on it). *)

val coords_axis : t -> int -> float array
(** Coordinate [axis] of every point, in point order (one flat pass).
    @raise Invalid_argument if the axis is out of range. *)

val map_points : (Vec.t -> Vec.t) -> t -> t
(** Applies [f] to a copy of each point and packs the results into a new
    pointset (fresh storage). *)

val filter : (Vec.t -> bool) -> t -> t
(** Index view of the points satisfying the predicate (which receives a
    fresh copy per point); shares storage, may be empty. *)

val filter_rows : (float array -> int -> bool) -> t -> t
(** Allocation-free filter: the predicate receives [(storage, offset)]. *)

val subset : t -> indices:int array -> t
(** Zero-copy view selecting [indices] in order (duplicates allowed). *)

val ball_count : t -> center:Vec.t -> radius:float -> int
(** [B_r(center, S)] — one flat O(n·d) pass, no allocation. *)

val ball_points : t -> center:Vec.t -> radius:float -> Vec.t array
(** Fresh copies of the points realizing {!ball_count}. *)

val capped_ball_count : t -> cap:int -> center:Vec.t -> radius:float -> int
(** [B̄_r]. *)

val score_l_direct : t -> cap:int -> radius:float -> float
(** [L(radius, S)] computed by brute force (O(n²·d)); reference
    implementation used by tests and fine for small inputs. *)

(** {1 Indexed evaluation} *)

type index
(** A k-d tree over the pointset's rows (sharing its storage, zero copy)
    plus a one-entry memo of the count matrix behind {!score_l_many}
    (points × non-negative candidate radii, at most about 4 M counts).
    The matrix is a deterministic function of the index's rows and the
    radii — never of the cap, ε or a seed — so sharing it across jobs
    changes no result.  Indexes are immutable snapshots: every epoch of a
    mutating dataset gets a fresh index ({!build_index},
    {!index_of_tree}) and with it an empty memo. *)

val build_index : t -> index
(** O(n log n) construction over the pointset's storage: median splits
    along the widest axis, serial (at the sizes callers build, a second
    domain saved under 1 ms; PERFORMANCE.md §4), and the row grouping of
    {!is_representative}.  Memory is O(n), at every n and d. *)

val auto_index : ?domains:int -> t -> index
(** {!build_index}; [domains] is ignored.  Kept only because the
    end-to-end benchmark driver (bench/e2e) calls it. *)

val index_is_dense : index -> bool
(** Always [false]: every index is the k-d tree.  Kept only because the
    end-to-end benchmark driver (bench/e2e) calls it. *)

val index_pointset : index -> t

val index_tree : index -> Kdtree.t
(** The k-d tree behind the index — the registry reads it to maintain
    the tree incrementally across epochs. *)

val index_of_tree : t -> Kdtree.t -> index
(** Wrap an externally maintained tree (see {!Kdtree.insert_bulk} /
    {!Kdtree.remove_bulk}) as the index of [ps].  The tree must hold
    exactly [ps]'s points (same storage, same rows).
    @raise Invalid_argument if the sizes disagree. *)

val cold_copy : index -> index
(** The same index (tree shared, nothing copied) with an empty
    {!score_l_many} memo — for timing the cold sweep. *)

val counts_within : index -> radius:float -> int array
(** For every input point, the number of input points within [radius]
    (inclusive); one tree query per distinct point. *)

val score_l : index -> cap:int -> radius:float -> float
(** [L(radius, S)] via the index: per-point counts, cap at [cap], average the
    [cap] largest. *)

val score_l_many : index -> cap:int -> radii:float array -> float array
(** [Array.map (fun r -> score_l idx ~cap ~radius:r) radii], computed in
    one batched pass when [radii] is ascending (the candidate grids are):
    each distinct point answers all radii in one multi-radius traversal
    ({!Kdtree.count_within_row_many}), and the capped top-[cap] average
    runs on a counting histogram.  Results are bit-identical to the
    per-radius path (exact integer counts; top-k sums below 2^53).  This
    is GoodRadius's candidate sweep on the RecConcave backend.

    The count matrix does not depend on [cap], so when the non-negative
    radii fit one block of about 4 M counts (n · |radii| ≤ 4·10⁶) it is
    memoized on the index, keyed on those radii: a repeat sweep over the
    same grid is one lookup plus a top-[cap] average per radius.  The memo
    holds one entry (a sweep over a different grid replaces it) and is
    mutex-guarded, so a concurrent first caller waits for the fill in
    flight.  Larger grids are swept block by block and never memoized. *)

val memo_holds : index -> radii:float array -> bool
(** Whether {!score_l_many} over the ascending [radii] would be answered
    from the memo (exposed for tests). *)

val is_representative : index -> int -> bool
(** [is_representative idx i] — whether row [i] is the first row whose
    coordinates are bit-identical to its own ([Int64.bits_of_float] of
    every coordinate, so [0.0] and [-0.0] are distinct).  The
    representatives are the index's distinct points; the grouping is
    computed once, when the index is built. *)

val holds_at_least : index -> radius:float -> k:int -> int -> bool
(** [holds_at_least idx ~radius ~k i] — whether at least [k] input points
    lie within [radius] of point [i] (inclusive), i.e.
    [(counts_within idx ~radius).(i) >= k] for one point, one tree query.
    Monotone in [radius]; true exactly when
    [kth_neighbor_distance idx ~k i <= radius].  [k] must be in [1, n]. *)

val kth_neighbor_distance : index -> k:int -> int -> float
(** [kth_neighbor_distance idx ~k i] — distance from point [i] to its
    [k]-th nearest input point, counting the point itself as the 1st
    (so [k = t] gives the radius of the smallest ball centered at [x_i]
    containing [t] points).  Exact: the [k]-th smallest of point [i]'s
    distances to every point, found by one O(n·d) pass and a quickselect
    ({!Kernel.kth_smallest}).
    @raise Invalid_argument if [k] is not in [1, n]. *)

val top_average : float array -> k:int -> float
(** Mean of the [k] largest entries (used by {!score_l}; exposed for tests).
    @raise Invalid_argument if [k <= 0] or [k] exceeds the length. *)
