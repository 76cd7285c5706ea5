(** Budget attribution: reconcile trace spans against the accountant
    ledger.

    Three views of the same privacy spend exist in a traced run:

    + the {e ledger} — what the engine's accountant actually recorded
      (one entry per admitted charge, plus committed fallback
      reservations labelled [<id>:fallback]);
    + {e budget events} — zero-duration [cat="budget"] spans the
      accountant's tracing listener emits at each ledger operation
      ([charge] / [reserve] / [commit] / [release] / [refuse]), carrying
      the label and parameters;
    + {e execution spans} — [cat="job"] root spans wrapping each job's
      mechanism work, whose {!Span.attributed} total is what the traced
      mechanisms say they consumed.

    {!reconcile} checks, per label: ledger = counted budget events
    ({e hard} — any mismatch sets [ok = false]); executed ≤ ledger
    ({e hard} — overspend means a mechanism drew more than was paid
    for); executed = ledger ({e informational} [exact] — stages may
    legitimately under-consume, e.g. [k_cluster] stopping early, or a
    job may have no execution span at all when it timed out before
    starting).

    Retried jobs replay bit-identically: execution spans are grouped by
    (label, RNG stream) and only the last attempt is counted, but every
    attempt must attribute the same charge ([retry_consistent]). *)

type line = {
  label : string;
  ledger : Span.charge;  (** Sum of ledger entries with this label. *)
  events : Span.charge;  (** Sum of [charge]+[commit] budget events. *)
  executed : Span.charge option;
      (** Deduplicated execution-subtree total; [None] when the label
          never started executing. *)
  events_ok : bool;  (** [ledger = events]. *)
  overspend : bool;  (** [executed > ledger] in any component. *)
  exact : bool;  (** [executed = ledger]. *)
  retry_consistent : bool;
      (** All non-errored attempts of every (label, stream) attributed
          equally (a crashed attempt's partial subtree is exempt). *)
}

type report = {
  lines : line list;  (** Sorted by label. *)
  ledger_total : Span.charge;
  executed_total : Span.charge;
  ok : bool;  (** No event mismatch, no overspend, retries consistent. *)
  exact : bool;  (** Every line with an execution span is exact. *)
}

val reconcile : ledger:(string * Span.charge) list -> Span.span list -> report

val to_text : report -> string
(** Human-readable table plus a one-line verdict. *)

val to_json : report -> Json.t
