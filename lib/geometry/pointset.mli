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
    length n·d; point [i] is the row at {!row_offset}[ t i].  {!subset}
    returns an index {e view} sharing that storage; {!point} returns a
    fresh copy, so callers can never mutate the backing store through
    it.  The raw store is reachable via {!storage} /
    {!row_offsets} for flat-path kernels (k-d tree, JL, SEB, NoisyAVG) and
    is read-only by contract — see DESIGN.md, "Memory layout".

    An {!index} is a k-d tree ({!Kdtree}) over the points, turning each
    single-radius [L] evaluation into [n] tree queries instead of an
    O(n²·d) scan, and memoizes the last candidate sweep: the pairs of
    distinct points, taken nearest block first, are counted only up to
    the first radius whose score reaches its maximum, and a later sweep
    over the same radii resumes where that one stopped
    ({!score_l_many}).  The count columns it has made final later narrow
    the [r_opt] scan ({!min_kth_neighbor_distance}), so an epoch's first
    use pays at most one pass over the pairs.  Points with bit-identical
    coordinates ({!For_testing.is_representative}) share one
    count-matrix column: every per-row query and the pair pass run once
    per distinct point.

    {b One ball predicate.}  Every count here — {!ball_count},
    {!For_testing.score_l_direct} and every indexed query — includes a
    point when [sqrt acc <= radius] for its computed squared distance
    [acc], tested as [acc <= Vec.ball_r2 radius].  {!kth_neighbor_distance} returns a
    value of the same [sqrt acc], so "at least [k] points within [r]"
    holds exactly when the [k]-th neighbour distance is at most [r]
    ({!min_kth_neighbor_distance} relies on it). *)

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

val filter_rows : (float array -> int -> bool) -> t -> t
(** Allocation-free filter: the predicate receives [(storage, offset)]. *)

val subset : t -> indices:int array -> t
(** Zero-copy view selecting [indices] in order (duplicates allowed). *)

val ball_count : t -> center:Vec.t -> radius:float -> int
(** [B_r(center, S)] — one flat O(n·d) pass, no allocation. *)

val capped_ball_count : t -> cap:int -> center:Vec.t -> radius:float -> int
(** [B̄_r]. *)

(** {1 Indexed evaluation} *)

type index
(** A k-d tree over the pointset's rows (sharing its storage, zero copy),
    the row grouping of {!For_testing.is_representative}, and a one-entry
    memo of the sweep behind {!score_l_many}.  Its count matrix (points × non-negative
    candidate radii, at most about 4 M counts) is a deterministic
    function of the index's rows and the radii — never of the cap, ε or a
    seed — so sharing it across jobs changes no result.  Memory: the
    memo holds, besides that matrix, the gathered distinct rows (m × d
    floats for m distinct points), a pair histogram of m × |radii| ints
    and the table of block pairs (at most one pair of ints per pair of
    tree leaves): at n = 3000 with 21 radii the matrix is 0.5 MB and the
    rest about 0.4 MB, most of it the 0.33 MB histogram (PERFORMANCE.md
    §4 reports the peak RSS this adds).  Indexes are immutable snapshots: every epoch of a
    mutating dataset builds a fresh index ({!build_index}) and with it an
    empty memo. *)

val build_index : t -> index
(** O(n log n) construction over the pointset's storage: median splits
    along the widest axis, serial (at the sizes callers build, a second
    domain saved under 1 ms; PERFORMANCE.md §4), and the row grouping of
    {!For_testing.is_representative}.  Memory is O(n), at every n and
    d. *)

val auto_index : ?domains:int -> t -> index
(** {!build_index}; [domains] is ignored.  Kept only because the
    end-to-end benchmark driver (bench/e2e) calls it. *)

val index_is_dense : index -> bool
(** Always [false]: every index is the k-d tree.  Kept only because the
    end-to-end benchmark driver (bench/e2e) calls it. *)

val index_pointset : index -> t

val cold_copy : index -> index
(** The same index (tree shared, nothing copied) with an empty
    {!score_l_many} memo — for timing the cold sweep. *)

val counts_within : index -> radius:float -> int array
(** For every input point, the number of input points within [radius]
    (inclusive); one tree query per distinct point. *)

val score_l : index -> cap:int -> radius:float -> float
(** [L(radius, S)] via the index: per-point counts, cap at [cap], average the
    [cap] largest.
    @raise Invalid_argument if [cap < 1]. *)

val score_l_many : index -> cap:int -> radii:float array -> float array
(** [Array.map (fun r -> score_l idx ~cap ~radius:r) radii], computed in
    one batched sweep when [radii] is ascending and NaN-free (the
    candidate grids are), bit for bit.  Any other [radii] (out of order,
    or holding a NaN) is scored one radius at a time.  This is
    GoodRadius's candidate sweep on the RecConcave backend.

    The sweep pairs the distinct points block by block (blocks of the
    k-d tree's leaves), nearest block pairs first: advancing to radius
    [r_j] runs every block pair whose lower bound on the squared
    distance is within [r_j] ({!Kernel.pair_hist_blocks}), which makes
    every count at [r_0 .. r_j] final.  [L] never exceeds
    [float (min cap n)] and is non-decreasing in [r], so at the first
    radius that scores this maximum the sweep stops and every larger
    radius gets it without pairing.  Below it, counts are exact integers
    and the capped top-[cap] average sums integers below 2^53.
    @raise Invalid_argument if [cap < 1].

    The sweep does not depend on [cap], so when the non-negative radii
    fit one block of about 4 M counts (n · |radii| ≤ 4·10⁶) it is
    memoized on the index, keyed on those radii: a later call over the
    same grid resumes it from where it stopped (a larger cap may need
    more radii), so no pair is evaluated twice.  The memo holds one
    entry (a sweep over a different grid replaces it).  A mutex
    serializes building and advancing the sweep, so a concurrent caller
    that needs a column not yet final waits for the advance in flight;
    a caller whose columns are already final takes no lock.  Larger grids run
    a fresh sweep per block of radii, never memoized; they stop at the
    first saturated radius too, filling no later block. *)

val fill_counts : index -> radii:float array -> int array
(** The count matrix of [radii] (ascending, non-negative, NaN-free),
    radius-major: entry [j * n + i] is [(counts_within idx
    ~radius:radii.(j)).(i)] — a fresh {!score_l_many} sweep advanced to
    the last radius, so every block pair within it is paired.  O(m²·d)
    at worst for m distinct points; bypasses the memo (exposed for
    tests). *)

val kth_neighbor_distance : index -> k:int -> int -> float
(** [kth_neighbor_distance idx ~k i] — distance from point [i] to its
    [k]-th nearest input point, counting the point itself as the 1st
    (so [k = t] gives the radius of the smallest ball centered at [x_i]
    containing [t] points).  Exact: the [k]-th smallest of point [i]'s
    distances to every point, found by one O(n·d) pass and a quickselect
    ({!Kernel.kth_smallest}).
    @raise Invalid_argument if [k] is not in [1, n]. *)

val min_kth_neighbor_distance : index -> k:int -> int * float
(** [(i, r)]: the first row [i] attaining the smallest [k]-th neighbour
    distance [r] over every row — what scanning {!kth_neighbor_distance}
    over all rows with a strict [<] returns, bit for bit, found by a
    pruned scan over the distinct points.  It does not read the memoized
    sweep.  Each distinct point is probed with
    {!For_testing.holds_at_least} just below the running best
    ([Float.pred], or [infinity] for the first probe) and evaluated exactly only when it
    holds, so a point that can at most tie the best costs one count.
    This is the scan behind {!Seb.two_approx_indexed}.
    @raise Invalid_argument if [k] is not in [1, n]. *)

module For_testing : sig
  val ball_points : t -> center:Vec.t -> radius:float -> Vec.t array
  (** Fresh copies of the points realizing {!ball_count}. *)

  val block_pair_bounds : index -> int array array * (int * int * float) array
  (** The sweep's blocks, each as the rows it holds, and every block pair
      [(p, q, bound)], [p <= q]: [bound] is at most the squared distance
      {!Kernel.pair_hist_blocks} computes for any row of block [p] paired
      with any row of block [q]. *)

  val filter : (Vec.t -> bool) -> t -> t
  (** Index view of the points satisfying the predicate (which receives a
      fresh copy per point); shares storage, may be empty. *)

  val holds_at_least : index -> radius:float -> k:int -> int -> bool
  (** [holds_at_least idx ~radius ~k i] — whether at least [k] input points
      lie within [radius] of point [i] (inclusive), i.e.
      [(counts_within idx ~radius).(i) >= k] for one point, one tree query.
      Monotone in [radius]; true exactly when
      [kth_neighbor_distance idx ~k i <= radius].  [k] must be in [1, n]. *)

  val is_representative : index -> int -> bool
  (** [is_representative idx i] — whether row [i] is the first row whose
      coordinates are bit-identical to its own ([Int64.bits_of_float] of
      every coordinate, so [0.0] and [-0.0] are distinct).  The
      representatives are the index's distinct points; the grouping is
      computed once, when the index is built. *)

  val map_points : (Vec.t -> Vec.t) -> t -> t
  (** Applies [f] to a copy of each point and packs the results into a new
      pointset (fresh storage). *)

  val memo_exact : index -> radii:float array -> int
  (** How many of the leading non-negative [radii] have final counts in
      the memoized sweep: 0 when the memo holds another grid or none, the
      number of non-negative radii once it is fully advanced. *)

  val memo_holds : index -> radii:float array -> bool
  (** Whether {!score_l_many} over the ascending [radii] would resume the
      memoized sweep. *)

  val points : t -> Vec.t array
  (** Fresh copies of all points (O(n·d) allocation; mutating the result
      never affects the pointset). *)

  val score_l_direct : t -> cap:int -> radius:float -> float
  (** [L(radius, S)] computed by brute force (O(n²·d)); reference
      implementation used by tests and fine for small inputs.
      @raise Invalid_argument if [cap < 1]. *)

  val top_average : float array -> k:int -> float
  (** Mean of the [k] largest entries (the tests' oracle for
      {!Kernel.top_avg_capped}).
      @raise Invalid_argument if [k <= 0] or [k] exceeds the length. *)
end
