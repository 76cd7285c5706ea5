(** Registered datasets: the per-dataset state the engine amortizes across
    queries, versioned by epoch.

    Registering a dataset builds its {!Geometry.Pointset.index} once (the
    k-d-tree construction) and attaches a budgeted {!Accountant}; every subsequent job
    against the dataset reuses both.

    {b Epochs.}  {!append} and {!retire} each publish a new {e epoch} — an
    immutable snapshot (pointset view + index) over the dataset's
    append-only arena.  Readers holding the previous epoch
    keep computing against it unchanged (structural sharing); new work
    sees the new epoch.  Every epoch builds its own index with
    {!Geometry.Pointset.build_index}, exactly as registration does.

    Worker domains read the current epoch's pointset and index
    concurrently; mutations are serialized by an internal mutex and
    publish the new epoch with a single field write. *)

type dataset

type t
(** A named collection of datasets (the engine's directory). *)

type mutation =
  | Appended of { epoch : int; dim : int; points : float array }
      (** The appended rows, flattened row-major ([epoch] is the new
          epoch the append produced). *)
  | Retired of { epoch : int; from_ : int; count : int }
      (** Point indices [from_ .. from_+count-1] of the {e previous}
          epoch were dropped. *)

val create : unit -> t

val register :
  t ->
  name:string ->
  grid:Geometry.Grid.t ->
  ?mode:Accountant.mode ->
  budget:Prim.Dp.params ->
  Geometry.Vec.t array ->
  dataset
(** Build the index ({!Geometry.Pointset.build_index}) and the accountant — subscribed to {!Accountant.trace}, so
    every ledger operation on it is traced — and file the dataset under
    [name] at epoch 0.  The points are packed once into flat storage, which becomes
    the dataset's arena; every job then reads that storage through
    zero-copy views.
    @raise Invalid_argument on a duplicate name, an empty point array, or
    points of mixed dimension. *)

val find : t -> string -> dataset option
val names : t -> string list
(** In registration order. *)

(** {1 Mutation} *)

val append : dataset -> Geometry.Vec.t array -> int
(** Append the points after the existing ones and publish a new epoch;
    returns the new epoch number.  The arena grows by doubling when full;
    live epochs keep referencing the array that backed them.
    @raise Invalid_argument on an empty array or a dimension mismatch. *)

val retire : dataset -> from_:int -> count:int -> int
(** Drop the contiguous point-index range [from_ .. from_+count-1] of the
    current epoch (indices as reported by queries against it) and publish
    a new epoch; returns the new epoch number.  Remaining points keep
    their relative order.  At least one point must survive.
    @raise Invalid_argument on an out-of-range slice or one that would
    empty the dataset. *)

val subscribe_mutations : dataset -> (mutation -> unit) -> unit
(** [f] runs synchronously after each mutation publishes its epoch, in
    subscription order — the server journals epoch transitions through
    this hook. *)

(** {1 Per-dataset accessors}

    [pointset] and [index] return the {e current} epoch's view; a caller
    that needs a coherent pair should read them once and keep the
    results (each epoch is immutable). *)

val name : dataset -> string
val grid : dataset -> Geometry.Grid.t
val pointset : dataset -> Geometry.Pointset.t
val index : dataset -> Geometry.Pointset.index
val accountant : dataset -> Accountant.t
val epoch : dataset -> int
val n : dataset -> int
val dim : dataset -> int

val r_opt_bounds : dataset -> t:int -> float * float
(** {!Workload.Metrics.r_opt_bounds_indexed} on the current epoch's index:
    the noise-free [(r_lo, r_hi)] sandwich for target size [t], scanned
    afresh on every call.  It is not private, and no served output
    carries it; it stays for the frozen end-to-end bench, which times
    it. *)

val to_json : dataset -> Obs.Json.t
(** Shape, epoch, index backend and the ledger's
    {!Accountant.summary_json}: no charge history, so the size does not
    grow with the number of charges. *)
