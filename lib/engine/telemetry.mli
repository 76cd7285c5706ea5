(** Engine observability: per-job-kind status counts and latency, plus
    named event counters.

    Worker domains record one observation per finished job; recording is
    mutex-protected and cheap (a few counter bumps).  Each kind's latency
    lands in one {!Obs.Hist} — the same histogram as every other latency
    the program reports — so bucket bounds and quantile estimation live
    in {!Obs.Hist} only.

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
    (a job attempt was re-run after it raised) and ["degraded"] (a job
    fell back to its cheaper solver); callers may add their own names. *)

val counter : t -> string -> int
(** Current value of a named counter; [0] when never incremented. *)

val counters : t -> (string * int) list
(** All named counters, sorted by name. *)

val kinds : t -> (string * (string * int) list * Obs.Hist.snapshot) list
(** Thread-safe snapshot, one [(kind, statuses, latency)] row per kind
    sorted by kind; [statuses] is sorted by status name. *)

val to_json : t -> Obs.Json.t
(** [total_jobs], [counters], and per kind its [count], [by_status] and
    [latency] ({!Obs.Hist.to_json}). *)

val pp_summary : Format.formatter -> t -> unit
(** Compact human summary, one line per kind, latencies in ms. *)

module For_testing : sig
  val count : t -> ?kind:string -> ?status:string -> unit -> int
  (** Observations matching both filters (absent filter = match all). *)
end
