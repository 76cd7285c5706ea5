(** Prometheus text exposition of engine state.

    Turns the engine's observable state — {!Telemetry} job stats, the
    {!Accountant} privacy ledger, and (when tracing ran) collected
    {!Obs.Span} aggregates — into {!Obs.Prom} families:

    - [privcluster_jobs_total{kind,status}] — finished jobs;
    - [privcluster_job_latency_seconds{kind}] — latency histogram on
      the {!Obs.Hist} buckets, and
      [privcluster_job_latency_quantile_seconds{kind,quantile}] — its
      p50/p90/p99 summary;
    - [privcluster_engine_events_total{event}] — named counters
      (retries, degradations);
    - [privcluster_budget_epsilon] / [..._delta]
      [{dataset,quantity="budget"|"spent"}] and
      [privcluster_budget_refusals_total{dataset}] — the ledger;
    - [privcluster_epoch{dataset}] — the dataset's current epoch;
    - [privcluster_result_cache_total{dataset,event="hit"|"miss"}] —
      the service's result cache (when a cache is passed);
    - the [privcluster_spans_*] families of {!Obs.Prom.of_spans}.

    {!of_report_json} rebuilds the same families from a batch report
    written earlier ({!Service.report_json}), so [privcluster-cli
    metrics] can expose a run after the fact without re-running it; its
    [privcluster_job*] lines equal the live ones byte for byte. *)

val render :
  ?spans:Obs.Span.span list ->
  ?dataset:Registry.dataset ->
  ?datasets:Registry.dataset list ->
  ?result_cache:Result_cache.t ->
  telemetry:Telemetry.t ->
  unit ->
  string
(** [Obs.Prom.render (families ...)]. *)

val of_report_json : Obs.Json.t -> (Obs.Prom.family list, string) result
(** Rebuild families from a {!Service.report_json} document (its
    [telemetry] and [dataset.accountant] sections).  Errors name the
    missing or malformed field; a report written before job latency moved
    onto {!Obs.Hist} fails with [missing field "<kind>.latency"]. *)

(** {2 Serving telemetry}

    Request-level families for the daemon's [metrics] endpoint, fed by
    [Server.Serving] (the dependency points server → engine, so the
    rows arrive as plain data). *)

type serving_rows = {
  requests : (string * string * Obs.Hist.snapshot) list;
      (** [(verb, tenant, hist)], one summary sample each. *)
  queue_wait : (string * Obs.Hist.snapshot) list;  (** [(verb, hist)]. *)
  burn : (string * string * float) list;
      (** [(tenant, dataset, eps-budget fraction per hour)]. *)
  sheds : (string * int) list;  (** [(reason, count)]. *)
}

val serving_families : serving_rows -> Obs.Prom.family list
(** [privcluster_request_seconds{verb,tenant,quantile}] (summary),
    [privcluster_queue_wait_seconds{verb}] (histogram),
    [privcluster_budget_burn_rate{tenant,dataset}] (gauge) and
    [privcluster_request_sheds_total{reason}] (counter). *)
