(** privclusterd wire protocol: one JSON object per line, both ways.

    A connection opens with a [hello] carrying the protocol version and
    the tenant's credentials; every subsequent request carries a
    client-chosen integer [id] that the matching reply echoes, so a
    client may pipeline requests and pair replies by id.  Replies are
    [{"id", "ok": true, ...payload}] or
    [{"id", "ok": false, "error": {"code", "message", "charged"}}] —
    [charged] is always [false]: an error reply is produced before any
    ledger operation, so a refused or shed request provably spent
    nothing.  (Per-job budget refusals are {e not} errors: a [run] whose
    jobs are refused succeeds with [status = "refused"] results.)

    Requests:
    - [hello]    — [version], [tenant], [token]; must be first.
    - [register] — synthesize and register a planted-ball dataset:
      [dataset], [n], [dim], [axis], [frac], [radius], [seed],
      [budget_eps]/[budget_delta], [mode], [slack].  Registering the
      name a previous daemon incarnation journaled replays the
      journal into the fresh accountant (budget and mode must match).
    - [run]      — [dataset], [jobs] (jobs-file text, see {!Engine.Job}),
      optional [seed] overriding the batch RNG base (a fixed seed makes
      verdicts deterministic regardless of how clients interleave).
      Replies with [dataset], [epoch], [n], [results], [spent] and
      [remaining].  Writes are job lines too: [mutate op=append ...] and
      [mutate op=retire ...] advance the dataset's epoch, and [standing
      ...] registers a standing 1-cluster query re-answered on every
      epoch transition until its [periods] slices are spent.
    - [epoch]    — [dataset]; current epoch, size, index backend and
      result-cache statistics.
    - [settle]   — [dataset], [action] (["commit"] or ["release"]),
      optional [label]; settle reservations orphaned by a crash (held
      after WAL replay).  Operator-only by intent: nothing settles
      orphans automatically.
    - [ledger]   — [dataset]; the accountant state.
    - [datasets] — list the tenant's datasets.
    - [metrics]  — Prometheus text exposition for this tenant.
    - [health]   — one-line SLO verdict: overall status plus every
      evaluated rule with its reason (see {!Obs.Slo}); answered even
      while draining so probes keep working during a drain.
    - [stats]    — full serving-telemetry dump: per-verb × per-tenant
      latency histograms, queue-wait histograms, budget burn-rates and
      shed counters as JSON.
    - [ping]     — liveness probe; answered even while draining. *)

val version : int
(** Protocol version ([5]); [hello] with any other value is refused.
    Version 2 replies to [run], [append], [retire] and [standing] with
    [spent] and [remaining] instead of the whole ledger.  Version 3 does
    the same for [register] and [datasets] (each dataset's [accountant]
    is {!Engine.Accountant.summary_json}), and [stats] no longer says
    whether telemetry is on: it always is.  Version 4 serves only what
    the mechanisms release: a result's [output] drops each ball's exact
    coverage count, a [k_cluster]'s count of the points outside its balls
    and the radius's ratio against the noise-free r_opt sandwich, and the
    [epoch] reply drops the statistics of the r_opt cache, which is
    gone.  Version 5 drops the [append], [retire] and [standing]
    requests: those writes travel as job lines of a [run]. *)

type request =
  | Hello of { version : int; tenant : string; token : string }
  | Register of {
      dataset : string;
      n : int;
      dim : int;
      axis : int;
      frac : float;
      radius : float;
      seed : int;
      budget : Prim.Dp.params;
      mode : Engine.Accountant.mode;
    }
  | Run of { dataset : string; jobs : string; seed : int option }
  | Epoch of { dataset : string }
  | Settle of { dataset : string; action : settle_action; label : string option }
  | Ledger of { dataset : string }
  | Datasets
  | Metrics
  | Health
  | Stats
  | Ping

and settle_action = Commit_orphans | Release_orphans

type envelope = { rid : int; request : request }

val request_name : request -> string
(** The wire verb (["hello"], ["run"], ...), used as the [verb] label of
    the serving-latency metric families. *)

val settle_action_name : settle_action -> string
(** ["commit"], ["release"]. *)

val settle_action_of_string : string -> settle_action option

type shed_reason = Queue_full | Tenant_cap | Draining

type error_code =
  | Bad_request  (** Malformed request or jobs text. *)
  | Unsupported_version
  | Unauthorized  (** Unknown tenant or wrong token. *)
  | Unknown_dataset
  | Conflict  (** Duplicate registration, or journal/budget mismatch. *)
  | Rejected of shed_reason  (** Load-shed before any budget charge. *)
  | Internal

type error = { code : error_code; message : string }

val shed_reason_name : shed_reason -> string
(** ["queue_full"], ["tenant_cap"], ["draining"]. *)

val code_name : error_code -> string

val request_to_line : envelope -> string
(** Client side: render a request as one newline-terminated line. *)

val request_of_line : string -> (envelope, error) result
(** Server side.  [Error] is ready to send back (its [Bad_request]
    message names the offending field); a parseable [id] is preserved in
    the error path by the caller reading it from the raw JSON first. *)

val rid_of_line : string -> int
(** Best-effort [id] extraction for error replies ([0] if unreadable). *)

val reply_to_line : rid:int -> (Obs.Json.t, error) result -> string
(** Server side: render an ok (payload fields are spliced into the
    envelope object) or error reply as one newline-terminated line. *)

val reply_of_line : string -> (int * (Obs.Json.t, error) result, string) result
(** Client side: parse a reply line into [(id, Ok payload | Error e)];
    the outer [Error] means the line was not a valid reply at all. *)

(** {2 Settle reply}

    The [settle] verb has a typed reply so operator tooling can act on
    it without scraping: each settled reservation with its reserved
    price, and how many orphans remain held. *)

type settled_reservation = { label : string; eps : float; delta : float }

type settle_reply = {
  action : settle_action;
  settled : settled_reservation list;
  remaining : int;  (** Orphans still held after this settle. *)
}

val settle_reply_to_json : settle_reply -> Obs.Json.t
val settle_reply_of_json : Obs.Json.t -> (settle_reply, string) result
