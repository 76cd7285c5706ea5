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

val sort_floats : float array -> unit
(** In-place ascending sort.  The inputs are distances (no NaN, no -0.0),
    so the result equals [Array.sort Float.compare].  The C path is a
    bucket sort keyed on [floor (x * n / max)], expected O(n) on distance
    rows; it falls back to a quicksort for short rows and for rows whose
    maximum is 0 or infinite, and sorts an oversized bucket with the same
    quicksort, so the worst case stays O(n log n). *)

val kth_smallest : float array -> len:int -> k:int -> float
(** The [k]-th smallest (1-based) of the first [len] entries.  Destroys
    the buffer (quickselect scratch).  Requires [1 <= k <= len]. *)

val counts_le_sorted :
  row:float array -> len:int -> radii:float array -> nr:int ->
  out:int array -> stride:int -> col:int -> unit
(** [row.(0..len-1)] ascending, [radii.(0..nr-1)] ascending:
    [out.(j * stride + col) <- #{ x in row : x <= radii.(j) }]. *)

val top_avg_capped :
  counts:int array -> off:int -> len:int -> cap:int -> k:int -> float
(** Mean of the [k] largest values of [min cap counts.(off+i)] over
    [i < len].  Requires [1 <= k <= len] and [cap >= 0]. *)

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

val leaf_multi_count :
  st:float array -> idx:int array -> lo:int -> hi:int ->
  q:float array -> qoff:int -> dim:int -> r2s:float array ->
  jlo:int -> jhi:int -> acc:int array -> unit
(** One-query-many-radii leaf step.  For each point [idx.(lo..hi)]
    (inclusive), with [r2s] ascending and the point known to be inside
    radius index [jhi-1] candidates only within window [\[jlo, jhi)]:
    find the smallest [j] in the window with [d2 <= r2s.(j)] and record
    [acc.(j) <- acc.(j) + 1; acc.(jhi) <- acc.(jhi) - 1] (difference
    array; caller prefix-sums).  Requires [Array.length acc > jhi]. *)

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

  val sort_floats : float array -> unit

  val kth_smallest : float array -> len:int -> k:int -> float

  val counts_le_sorted :
    row:float array -> len:int -> radii:float array -> nr:int ->
    out:int array -> stride:int -> col:int -> unit

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

  val leaf_multi_count :
    st:float array -> idx:int array -> lo:int -> hi:int ->
    q:float array -> qoff:int -> dim:int -> r2s:float array ->
    jlo:int -> jhi:int -> acc:int array -> unit
end
