(** A k-d tree over R^d for ball-counting queries.

    This tree answers single ball-count queries in O(n^{1−1/d} + out)
    without any quadratic precomputation, and a whole ascending radius
    grid per point in one traversal ({!count_within_row_many}).  It is
    {!Pointset}'s index backend beyond a few thousand points, where the
    O(n²)-memory dense distance index stops scaling: the pipeline reaches
    it through a {!Pointset.index}, the registry maintains it across
    epochs, and only the exponential-mechanism baseline queries it
    directly.  A GoodRadius candidate sweep costs one traversal per point
    on the tree against shared binary searches over sorted rows on the
    dense index; either way the count matrix it produces is memoized on
    the {!Pointset.index}, so only an epoch's first sweep over a grid
    pays for it.

    The tree is a {e view}: built from flat row-major storage, it keeps a
    reference to the backing store and permutes only an array of row
    offsets — no coordinate is ever copied.  The storage must not be
    mutated while the tree is live (see DESIGN.md, "Memory layout").
    Queries never allocate more than the output. *)

type t

val build : Vec.t array -> t
(** O(n log n) construction (median splits along the widest axis); packs
    the boxed input into fresh flat storage first.
    @raise Invalid_argument on an empty array or mixed dimensions. *)

val build_flat : storage:float array -> offs:int array -> dim:int -> unit -> t
(** Zero-copy construction over existing flat storage: [offs.(i)] is the
    element offset of point [i]'s row.  [offs] is copied (the build permutes
    it); [storage] is shared.
    @raise Invalid_argument on empty [offs]. *)

val size : t -> int
val dim : t -> int

(** {1 Incremental maintenance}

    The epoch-versioned registry mutates datasets far more rarely than it
    queries them, so the tree supports cheap structural-sharing updates
    instead of a rebuild per mutation.  Both operations preserve {e query}
    results bit-exactly versus a fresh build over the same points: every
    query this library's pipeline issues is a sum of per-point
    ball-membership indicators (or a bisection over such sums), which is
    independent of the order points are visited in. *)

val with_storage : t -> storage:float array -> t
(** The same tree reading through [storage] instead of its original
    backing store.  The caller guarantees [storage] begins with the old
    store's contents (an append-only arena after growth); offsets and
    therefore all results are unchanged.
    @raise Invalid_argument if [storage] is shorter than the old store. *)

val insert_bulk : t -> offs:int array -> t
(** Insert the rows at [offs] (offsets into the tree's storage) by routing
    each down the existing splits to its leaf and widening bounding boxes
    on the way — no re-splitting, O((n + k)·depth).  The original tree is
    untouched (the result shares its storage, not its index permutation).
    Leaves can grow beyond the build-time capacity; callers that mutate
    heavily should rebuild once a drift threshold is crossed.
    @raise Invalid_argument if an offset falls outside the storage. *)

val remove_bulk : t -> dead:(int -> bool) -> t
(** Drop every row whose offset satisfies [dead].  Bounding boxes are left
    unshrunk (pruning only weakens; counts stay exact).  The original tree
    is untouched.  The result may be empty — counting queries on an empty
    tree return 0. *)

val count_within : t -> center:Vec.t -> radius:float -> int
(** Number of stored points with [dist p center <= radius] (inclusive, like
    {!Pointset.ball_count}). *)

val count_within_row : t -> float array -> off:int -> radius:float -> int
(** Same, with the center given as a row of a flat store (allocation-free;
    the store may be the tree's own backing storage). *)

val count_within_row_many :
  t -> float array -> off:int -> radii:float array -> out:int array -> stride:int ->
  col:int -> unit
(** One query, many radii in a single traversal:
    [out.((j * stride) + col) <- count_within_row t cst ~off ~radius:radii.(j)]
    for every [j].  [radii] must be ascending and non-negative.  Counts are
    exact integers, identical to the per-radius calls (same per-point
    membership indicators, summed in a different order); the batched
    traversal shares pruning work across all radii.  This is the kernel
    behind [Pointset.score_l_many] / GoodRadius's candidate sweep. *)
