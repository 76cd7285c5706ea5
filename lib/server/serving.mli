(** Serving telemetry for privclusterd: the state behind the [health],
    [stats] and [metrics] verbs.

    One value of this type lives in the daemon and aggregates, across
    every connection:
    - per-verb × per-tenant request latency ({!Obs.Hist}, lock-free,
      recorded admission-to-reply on the connection thread);
    - per-verb executor-queue wait (submit-to-start, a separate family —
      a daemon can be slow because solving is slow or because the queue
      is deep, and the operator needs to tell the two apart);
    - shed counters per {!Wire.shed_reason} against total submissions;
    - per-(tenant, dataset) budget burn-rate: ε-spend samples in a
      sliding one-hour window, read out as budget-fractions per hour;
    - the deterministic head sampler and the bounded on-disk slow-log
      exemplar ring.

    Determinism: the sampling decision is a pure FNV-1a hash of the
    request key — no RNG is consulted anywhere in this module, so
    enabling sampling cannot perturb any mechanism output (pinned by the
    sampling-determinism diff test in [test_server.ml]).

    Thread-safety: histogram observation is lock-free; table
    find-or-create and the shed/burn/exemplar paths take a short
    internal mutex.  Reads ({!health}, {!stats_json}, the row views)
    merge live shards and may run concurrently with writers. *)

type t

val create :
  ?shards:int ->
  ?sample_every:int ->
  ?slow_threshold_ms:float ->
  ?slow_log:string ->
  ?slow_keep:int ->
  ?rules:Obs.Slo.rule list ->
  unit ->
  t
(** [sample_every = 0] (default) disables head sampling; [N > 0] keeps
    every request whose key hashes to [0 mod N].  [slow_threshold_ms]
    defaults to 250; [slow_log] is the exemplar directory (created on
    first write; no exemplars are written without it); [slow_keep]
    (default 64) bounds the ring.  [rules] default to
    {!Obs.Slo.default_rules}. *)

val sample_every : t -> int
val slow_threshold_ns : t -> int
val slow_log_dir : t -> string option

(** {2 Recording} *)

val record_request : t -> verb:string -> tenant:string -> ns:int -> unit
val record_queue_wait : t -> verb:string -> ns:int -> unit

val record_submit : t -> unit
(** Count one admission attempt (accepted or shed). *)

val record_shed : t -> Wire.shed_reason -> unit

val record_burn :
  t -> tenant:string -> dataset:string -> budget_eps:float -> spent_eps:float ->
  now_ns:int64 -> unit
(** Append an ε-spend sample to the (tenant, dataset) window. *)

(** {2 Deterministic sampling and the exemplar ring} *)

val sampled : t -> key:string -> bool
(** True iff head sampling is on and [fnv1a key mod sample_every = 0].
    Pure: same key, same answer, forever. *)

val write_exemplar : t -> verb:string -> seq:int -> reason:string -> json:string -> unit
(** Write one exemplar (a Chrome-trace JSON document) into the ring as
    [exemplar-<seq>-<reason>-<verb>.trace.json], then prune the ring to
    the newest [slow_keep] files.  No-op without [slow_log].  Write
    failures are swallowed: telemetry must never fail a request. *)

val exemplar_files : t -> string list
(** Absolute paths of ring files, oldest first; [[]] without
    [slow_log]. *)

(** {2 Views} *)

val request_rows : t -> (string * string * Obs.Hist.snapshot) list
(** [(verb, tenant, hist)], sorted. *)

val wait_rows : t -> (string * Obs.Hist.snapshot) list
(** [(verb, hist)], sorted. *)

val burn_rows : t -> now_ns:int64 -> (string * string * float) list
(** [(tenant, dataset, eps-budget-fraction per hour)], sorted.  The rate
    is the spend increase across the window divided by the window's
    span (floored at 5 minutes, so a fresh burst reads as a sustained
    pace rather than an infinite spike), per hour, over the ε budget. *)

val shed_rows : t -> (string * int) list
(** [(reason, count)] for the three shed reasons, always all three. *)

val health : t -> now_ns:int64 -> Obs.Slo.verdict list
(** Evaluate the configured rules against current observations. *)

val stats_json : t -> now_ns:int64 -> Obs.Json.t
