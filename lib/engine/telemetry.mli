(** Engine observability: per-job-kind counters and latency histograms.

    Worker domains record one observation per finished job; recording is
    mutex-protected and cheap (a few counter bumps).  Latencies land in
    fixed log-spaced buckets (1 ms … 60 s), from which quantiles are
    estimated by linear interpolation inside the bucket — the standard
    Prometheus-style tradeoff: bounded memory, ~bucket-width error.

    Every record also emits a [Logs] debug span on the
    ["privcluster.engine"] source, so setting a reporter at debug level
    yields a per-job trace without touching the engine. *)

type t

val create : unit -> t

val log_src : Logs.src
(** The ["privcluster.engine"] source (shared with {!Service}). *)

val record : t -> kind:string -> status:string -> latency_ms:float -> unit
(** Thread-safe.  [kind] is the job kind name (["one_cluster"], …);
    [status] is ["ok"], ["refused"], ["timeout"], ["failed"] or
    ["degraded"]. *)

val incr : t -> string -> unit
(** Thread-safe named event counter (+1).  The engine uses ["retries"]
    (a job attempt was re-run after a crash), ["worker_restarts"] (a dead
    worker domain was replaced) and ["degraded"] (a job fell back to its
    cheaper solver); callers may add their own names. *)

val counter : t -> string -> int
(** Current value of a named counter; [0] when never incremented. *)

val counters : t -> (string * int) list
(** All named counters, sorted by name. *)

val total : t -> int
(** Observations recorded so far. *)

val count : t -> ?kind:string -> ?status:string -> unit -> int
(** Observations matching both filters (absent filter = match all). *)

val quantile_ms : t -> kind:string -> q:float -> float
(** Estimated latency quantile for a kind; [nan] when nothing recorded. *)

val quantile_of_buckets :
  ?max_ms:float -> buckets:int array -> observations:int -> q:float -> unit -> float
(** The same estimator over a raw bucket snapshot (the {!export_stats}
    layout: {!bucket_upper_bounds} buckets plus overflow), so renderers
    working from an exported or journaled snapshot — {!Exposition}'s
    post-hoc path — agree with the live {!quantile_ms}.  [max_ms] caps
    interpolation inside the overflow bucket (defaults to the last
    bound). *)

(** {2 Exposition}

    A plain snapshot of the per-kind stats, for renderers that cannot
    reach inside the mutex-protected tables ({!Exposition} turns it into
    Prometheus text). *)

type export_stats = {
  kind : string;
  statuses : (string * int) list;  (** Sorted by status name. *)
  buckets : int array;
      (** Per-bucket (non-cumulative) latency counts; the last entry is
          the overflow bucket beyond {!bucket_upper_bounds}. *)
  observations : int;
  total_ms : float;
}

val bucket_upper_bounds : float array
(** Upper bounds (ms) of the latency buckets, ascending; the overflow
    bucket is implicit. *)

val export : t -> export_stats list
(** Thread-safe snapshot, sorted by kind. *)

val to_json : t -> Obs.Json.t
(** Per-kind: counts by status, min/mean/max latency, p50/p90/p99, and the
    raw bucket counts (upper bounds included so the dump is
    self-describing). *)

val pp_summary : Format.formatter -> t -> unit
(** Compact human summary, one line per kind. *)
