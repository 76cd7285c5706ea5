(** The engine front door: run a batch of jobs against a registered
    dataset.

    [run_batch] proceeds in three deterministic phases:

    + {b Admission} (sequential, coordinator only): every job is charged
      against the dataset's {!Accountant} in submission order.  Refused
      jobs get a {!Job.Refused} result immediately and are never
      dispatched — no noise is drawn for them, so refusal is free in the
      privacy ledger.  A job that opts into graceful degradation
      additionally {!Accountant.reserve}s its fallback's price here; if
      only the reservation is refused, the job still runs, just without a
      fallback.  Doing all charging before any execution makes the
      accept/refuse set a pure function of the submission list, never of
      worker timing.
    + {b Execution} (parallel): admitted jobs run on a {!Pool} of
      [domains] workers — the calling domain and [domains − 1] spawned
      ones.  A job that raises is re-run in place, on the same worker,
      up to [retries] more times; if every attempt raises it reports
      {!Job.Solver_failed} and keeps its charge.  Job [i] (by submission index, counting refused
      jobs) draws its randomness from [Prim.Rng.derive base ~stream:i] on
      {e every} attempt, so a retry after a crash-before-output fault is
      a bit-identical replay of the same mechanism invocation — it
      consumes no additional privacy and needs no new charge.  The batch
      output is bit-identical for any domain count under a fixed [seed],
      with or without injected faults (as long as every faulted job
      succeeds within its attempts; see {!Faults}).
    + {b Settlement} (sequential, coordinator only): outcomes are mapped
      to results in submission order and every fallback reservation is
      settled exactly once — {!Accountant.commit}ted if the job degraded
      (the fallback ran {!Privcluster.Good_radius} at the reserved price
      and the result is {!Job.Degraded}), {!Accountant.release}d
      otherwise.  Releasing depends only on the job's public status, so
      it leaks nothing.

    A job that times out or whose solver fails keeps its budget charge:
    by then the mechanism may already have consumed randomness, and
    refunds conditioned on the private outcome would themselves leak.
    (Admission-time refusals are the only free path; a released fallback
    reservation is not a refund — the reserved amount was never spent.)

    Deterministic solver failure values ([Error] returns) are not
    retried: a replay of the same stream fails identically.  Only raised
    exceptions — the crash-before-output shape — are retried.

    Results come back in submission order; every finished job is recorded
    in the service {!Telemetry} (statuses plus the ["retries"] and
    ["degraded"] counters) and logged on
    ["privcluster.engine"].  See OPERATIONS.md for the operator's view. *)

type t

val create :
  ?profile:Privcluster.Profile.t ->
  ?domains:int ->
  ?seed:int ->
  ?retries:int ->
  ?faults:Faults.t ->
  unit ->
  t
(** [profile] defaults to {!Privcluster.Profile.practical}; [domains] to
    {!Pool.recommended_domains} and is clamped to ≥ 1 (the number of
    workers a batch runs on, the caller included: a batch spawns
    [domains − 1] domains); [seed] (default 1)
    is the base of every per-job derived stream; [retries] (default 2,
    clamped to ≥ 0) is the per-job in-place retry allowance (backoff as
    in {!Pool.run}); [faults] defaults to
    {!Faults.of_env} — the [PRIVCLUSTER_FAULTS] schedule, or no faults
    when the variable is unset. *)

val registry : t -> Registry.t
val telemetry : t -> Telemetry.t

val result_cache : t -> Result_cache.t
(** The service-wide result cache ({!Result_cache}): consulted at
    admission for every worker job, written at settlement for every
    completed one.  A hit bypasses the accountant entirely — the
    ["cache_hits"] telemetry counter and the cache's own per-dataset
    stats record the reuse. *)

val register :
  t ->
  name:string ->
  grid:Geometry.Grid.t ->
  ?mode:Accountant.mode ->
  budget:Prim.Dp.params ->
  Geometry.Vec.t array ->
  Registry.dataset
(** Convenience passthrough to {!Registry.register} on the service's
    registry. *)

val run_batch :
  ?domains:int ->
  ?seed:int ->
  t ->
  dataset:Registry.dataset ->
  Job.spec list ->
  Job.result list
(** Run the batch as described above; [domains] overrides the service
    default for this call (retries and faults are set once, at
    {!create}).  [seed] overrides the base
    of the per-job derived streams for this batch only — the statistical
    verification harness ({!Check}) uses it to draw many independent runs of
    the same batch (including the reserve/commit fallback path) against one
    registered dataset without rebuilding the registry's indexes. *)

val find_dataset : t -> string -> (Registry.dataset, string) result
(** Look a dataset up by name on the service's registry.  The error text
    is written for a remote caller who cannot list the registry herself:
    it names the requested id {e and} the registered ids, so a typo'd
    request is actionable from the error alone. *)

val run_batch_named :
  ?domains:int ->
  ?seed:int ->
  t ->
  dataset:string ->
  Job.spec list ->
  (Job.result list, string) result
(** {!run_batch} against {!find_dataset}; [Error] is the lookup failure
    (nothing is charged — the batch never reaches admission). *)

val report_json : t -> dataset:Registry.dataset -> Job.result list -> Obs.Json.t
(** The batch report the CLI emits: dataset ({!Registry.to_json}),
    per-job results, telemetry, and the full [ledger]
    ({!Accountant.to_json}: every charge and outstanding reservation). *)

(** {2 Tracing and budget attribution}

    With tracing enabled ({!Obs.Span.set_enabled}), [run_batch] emits a
    [service.batch] root span bracketing [service.admission] /
    per-job execution / [service.settlement], one [cat="job"] root span
    per job attempt (labelled with the job id, stitched to the batch
    span across worker domains), a separate labelled root for a
    committed fallback run; the dataset's accountant adds one
    [cat="budget"] instant per ledger operation ({!Accountant.trace}).  Tracing draws no randomness: batch outputs
    are bit-identical with tracing on or off. *)

val attribution : dataset:Registry.dataset -> unit -> Obs.Attribution.report
(** Reconcile all collected spans against the dataset's ledger; see
    {!Obs.Attribution} for what is checked. *)

(** {2 Standing queries}

    A [standing] job (see {!Job.kind}) declares a total [(ε, δ)] budget
    and a period count; registration reserves the budget as [periods]
    equal slices labelled ["<id>#<k>"], answers the query once
    immediately, and re-answers it after every subsequent epoch
    transition of its dataset (committing one slice per answer) until the
    slices are exhausted.  Tick results ride along in whatever batch
    triggered the epoch transition, as ordinary one-cluster results under
    the tick ids. *)

val subscribe_standing : t -> (dataset:string -> line:string -> seed:int -> stream:int -> unit) -> unit
(** [f] runs synchronously when a standing query is accepted at
    registration; [line] is the {!Job.spec_to_line} rendering and
    [seed]/[stream] the registration-time randomness coordinates —
    everything {!restore_standing} needs, which is how the server
    journals standing queries to its WAL. *)

val restore_standing :
  t -> dataset:Registry.dataset -> line:string -> seed:int -> stream:int -> (unit, string) result
(** Re-arm a standing query from its journaled registration after a WAL
    replay.  Answered ticks are recovered from the replayed ledger
    (committed ["<id>#<k>"] entries) and pending slices adopted from the
    replayed outstanding reservations; the next tick fires on the first
    epoch transition after the restart. *)

module For_testing : sig
  val standing_queries : t -> (string * string * int * int) list
  (** [(dataset, id, ticks_answered, periods)] for every registered
      standing query, in registration order. *)
end
