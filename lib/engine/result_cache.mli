(** Budget-aware result caching: repeated identical queries are free in
    wall-clock {e and} privacy budget.

    An entry is keyed on [(dataset, epoch, job signature, derived seed)].
    Under a fixed key, re-executing the job would replay the same
    mechanism on the same data with the same noise stream and produce a
    bit-identical output — so a hit returns the recorded answer without
    touching the accountant: releasing the same value twice is
    post-processing, not a second query (see DESIGN.md §10).  Any change
    to the data (a new epoch), the parameters (a new signature), or the
    randomness (a new batch seed / stream) misses and pays the normal
    charge.

    The cache is process-wide mutable state shared by worker domains;
    all operations are mutex-protected. *)

type t

type key = {
  dataset : string;
  epoch : int;  (** {!Registry.epoch} at execution time *)
  signature : string;  (** {!Job.signature} of the spec *)
  seed : int;  (** the batch's resolved base seed *)
  stream : int;  (** RNG stream (submission index, or a standing tick) *)
}

val create : unit -> t

val find : t -> key -> Job.output option
(** Look up and count: a [Some] bumps the dataset's hit counter, a
    [None] its miss counter. *)

val store : t -> key -> Job.output -> unit
(** Record a freshly computed answer and notify subscribers (the server
    journals entries through them).  If the key is already present the
    original entry is kept and no listener fires — by the key discipline
    both outputs are identical, and keeping the first makes WAL replay
    idempotent. *)

val restore : t -> key -> Job.output -> unit
(** [store] minus the listeners — used by WAL replay, which must not
    re-journal the entries it is reading back. *)

val subscribe : t -> (key -> Job.output -> unit) -> unit
(** [f] runs synchronously after each fresh {!store}, in subscription
    order. *)

val stats : t -> dataset:string -> int * int
(** [(hits, misses)] for one dataset. *)

val all_stats : t -> (string * int * int) list
(** [(dataset, hits, misses)] rows, sorted by dataset name — the
    exposition's source. *)
