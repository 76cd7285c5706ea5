(** Mergeable log-bucketed latency histograms.

    Observations are integer nanoseconds accumulated into log-spaced
    buckets (factor [sqrt 2] per bucket, ~41% relative quantile error
    worst-case) plus an {e exact} integer count / sum and exact min /
    max.  Recording is lock-free: a histogram owns a small array of
    shards, each made of [Atomic.t] counters, and an observation picks a
    shard by the calling domain's id (or an explicit [~shard] hint) and
    does one [fetch_and_add] per field.  Shards are merged only at
    scrape time into an immutable {!snapshot}, so the hot path never
    takes a lock and never allocates.

    Because count and sum are exact integers, merging shard snapshots is
    associative and loss-free: a snapshot of N shards equals the
    snapshot of one shard fed the concatenated stream (property-tested
    in [test_obs.ml]).  Quantiles interpolate linearly inside the
    bucket holding the target rank and are clamped to the observed
    [min .. max], so a singleton histogram reports every quantile as
    exactly the observed value. *)

type t
(** A live histogram: lock-free shards, written concurrently. *)

val create : ?shards:int -> unit -> t
(** [shards] defaults to 8 and is clamped to [1 .. 64]. *)

val observe_ns : ?shard:int -> t -> int -> unit
(** Record one observation in nanoseconds (negative values clamp to 0).
    The shard is chosen by [Domain.self ()] unless [~shard] is given
    (tests use the hint to pin streams to specific shards). *)

(** {2 Snapshots} *)

type snapshot = {
  counts : int array;  (** Per-bucket counts; length [bounds + 1] (overflow last). *)
  count : int;  (** Exact total observations. *)
  sum_ns : int;  (** Exact total of observed nanoseconds. *)
  min_ns : int;  (** [max_int] when empty. *)
  max_ns : int;  (** [0] when empty. *)
}

val empty : snapshot

val snapshot : t -> snapshot
(** Merge all shards.  Concurrent writers may land observations between
    field reads, so a racing snapshot is a valid snapshot of {e some}
    interleaving, monotone in each field. *)

val merge : snapshot -> snapshot -> snapshot

val quantile_ns : snapshot -> q:float -> float
(** Estimated [q]-quantile in nanoseconds ([q] clamped to [0 .. 1]);
    [nan] when empty.  Monotone in [q]; exact for singletons. *)

val to_prom : snapshot -> Prom.hist
(** Prometheus histogram with bounds and sum converted to {e seconds}. *)

val to_json : snapshot -> Json.t
(** Compact dump: count, sum/min/max in ns, default quantiles
    (p50/p90/p99/max) in seconds, and the non-zero buckets as
    [[le_ns, count]] pairs. *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Inverse of {!to_json}: [snapshot_of_json (to_json s) = Ok s].  The
    quantile fields are derived and ignored.  Errors name the missing or
    malformed field; a [buckets_ns] entry must be an [[le_ns, count]]
    pair on a bucket bound, and the counts must sum to [count]. *)

module For_testing : sig
  val bucket_bounds_ns : int array
  (** Upper bucket bounds in nanoseconds, strictly ascending; first bound
      is 1000 (1 µs), last ~47 s.  Observations above the last bound land
      in an implicit overflow bucket. *)

  val mean_ns : snapshot -> float
  (** [nan] when empty. *)
end
