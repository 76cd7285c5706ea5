(** Hot inner-loop kernels: C stubs over flat [float array] storage, each
    paired with a pure-OCaml reference that computes bit-identical results.

    Selection is process-wide: the C path is used when [compiled] is true
    and native execution has not been disabled via the
    [PRIVCLUSTER_NO_NATIVE] environment variable (any non-empty value
    other than ["0"]) or {!set_native}.  Every entry point dispatches at
    call time, so flipping the switch mid-process affects subsequent
    calls only — useful for differential tests.

    Determinism contract: the C kernels execute the same floating-point
    operations in the same order as the {!Ref} implementations, compiled
    with [-ffp-contract=off] (no FMA fusion), so outputs are bit-for-bit
    equal — the ULP bound is zero.  This preserves the exact-replay
    contract of [Engine.Result_cache] and budget-free retries.  See
    DESIGN.md §11. *)

val compiled : bool
(** Whether the C stubs are linked into this executable.  Always true in
    practice (the stubs are part of the library); exposed so callers and
    benches can report it. *)

val native_active : unit -> bool
(** True when calls will take the C path. *)

val set_native : bool -> unit
(** Force the C path on or off for subsequent calls.  [set_native true]
    is a no-op if the stubs are not compiled in. *)

val count_within :
  st:float array -> offs:int array -> lo:int -> hi:int ->
  q:float array -> qoff:int -> dim:int -> r2:float -> int
(** Number of rows [offs.(lo..hi)] (inclusive) of [st] whose squared
    distance to the row of [q] starting at [qoff] is [<= r2]. *)

val dists_to_rows :
  st:float array -> offs:int array -> n:int ->
  q:float array -> qoff:int -> dim:int -> out:float array -> unit
(** [out.(i) <- dist (q@qoff) (st@offs.(i))] for [i < n]. *)

val kth_smallest : float array -> len:int -> k:int -> float
(** The [k]-th smallest (1-based) of the first [len] entries.  Destroys
    the buffer (quickselect scratch).
    @raise Invalid_argument unless [1 <= k <= len <= Array.length a],
    on either tier. *)

val top_avg_capped :
  counts:int array -> off:int -> len:int -> cap:int -> k:int -> float
(** Mean of the [k] largest values of [min cap counts.(off+i)] over
    [i < len].
    @raise Invalid_argument unless [0 <= off], [off + len <= Array.length
    counts], [1 <= k <= len] and [cap >= 0], on either tier. *)

val jl_project :
  mat:float array -> st:float array -> offs:int array -> n:int ->
  in_dim:int -> out_dim:int -> scale:float -> out:float array -> unit
(** [out.(i*out_dim + r) <- scale *. dot (mat row r) (st @ offs.(i))]. *)

val sum_rows :
  st:float array -> sel:int array -> m:int -> dim:int ->
  acc:float array -> unit
(** [acc.(j) <- acc.(j) +. st.(sel.(s) + j)] accumulated in [s]-major,
    [j]-minor order, for [s < m], [j < dim]. *)

val argmin_center :
  st:float array -> off:int -> centers:float array -> k:int -> dim:int -> int
(** Index of the nearest of the [k] rows of the flat [k*dim] matrix
    [centers] to the point at [st@off]; first of equals wins. *)

val argmax_dist :
  st:float array -> offs:int array -> n:int ->
  q:float array -> qoff:int -> dim:int -> int
(** Index [i < n] maximizing [dist2 (st@offs.(i)) (q@qoff)]; first of
    equals wins.  Requires [n >= 1]. *)

val min_dist2_update :
  st:float array -> n:int -> dim:int ->
  centers:float array -> coff:int -> dist2:float array -> unit
(** [dist2.(i) <- min dist2.(i) (dist2 (st row i) (centers@coff))] for
    the contiguous layout [st.(i*dim + j)]. *)

val pair_hist_blocks :
  rows:float array -> dim:int -> w:int array -> starts:int array ->
  pairs:int array -> lo:int -> hi:int -> r2s:float array ->
  hist:int array -> unit
(** Weighted pair histogram over a range of block pairs.  The rows are
    contiguous (row [a] is [rows.(a*dim .. a*dim + dim - 1)]: the
    distinct points, gathered in block order, with multiplicities [w]);
    block [p] holds rows [starts.(p) .. starts.(p+1) - 1].  Block pair
    [s] is [(pairs.(2s), pairs.(2s+1))] with [p <= q]; the call runs
    [s] in [lo, hi).  A diagonal block ([p = q]) pairs its rows
    [a <= b], [a = b] included once; an off-diagonal one pairs every
    row of [p] with every row of [q].  For each such pair let [j] be
    the first index with [d2 <= r2s.(j)] for their squared distance
    [d2]; when there is one, [hist.(a*nr + j) += w.(b)] and, for
    [b <> a], [hist.(b*nr + j) += w.(a)], where [nr = Array.length r2s].
    Run over every block pair of a partition of the rows, with [r2s]
    ascending and NaN-free, the running sum of row [a] up to [j] is the
    weighted number of rows within [r2s.(j)] of row [a].  The indices
    are trusted: the caller keeps every block inside [rows], [w] and
    [hist].

    [d2] sums [(a - b)²] over the axes in axis order: since
    [fl(x - y) = -fl(y - x)], it equals, bit for bit, the squared
    distance {!count_within} computes from [b - a] for the query [a].  The C path finds [j]
    with a bucket table on the high bits of [d2], built once per call
    (at most 4096 keys; without one if its allocation fails), then scans
    forward on the same predicate; keys outside the table take the
    reference's bisection.  Both land on the same [j].  The C path credits
    a pair with one add on the tagged words of [hist]. *)

(** Pure-OCaml reference implementations — always available, bit-identical
    to the C kernels.  Used for differential testing and as the fallback
    path when native execution is disabled. *)
module Ref : sig
  val count_within :
    st:float array -> offs:int array -> lo:int -> hi:int ->
    q:float array -> qoff:int -> dim:int -> r2:float -> int

  val dists_to_rows :
    st:float array -> offs:int array -> n:int ->
    q:float array -> qoff:int -> dim:int -> out:float array -> unit

  val kth_smallest : float array -> len:int -> k:int -> float

  val top_avg_capped :
    counts:int array -> off:int -> len:int -> cap:int -> k:int -> float

  val jl_project :
    mat:float array -> st:float array -> offs:int array -> n:int ->
    in_dim:int -> out_dim:int -> scale:float -> out:float array -> unit

  val sum_rows :
    st:float array -> sel:int array -> m:int -> dim:int ->
    acc:float array -> unit

  val argmin_center :
    st:float array -> off:int -> centers:float array -> k:int -> dim:int ->
    int

  val argmax_dist :
    st:float array -> offs:int array -> n:int ->
    q:float array -> qoff:int -> dim:int -> int

  val min_dist2_update :
    st:float array -> n:int -> dim:int ->
    centers:float array -> coff:int -> dist2:float array -> unit

  val pair_hist_blocks :
    rows:float array -> dim:int -> w:int array -> starts:int array ->
    pairs:int array -> lo:int -> hi:int -> r2s:float array ->
    hist:int array -> unit
end
