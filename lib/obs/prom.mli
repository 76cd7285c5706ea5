(** Prometheus text exposition (format version 0.0.4).

    A tiny model of metric families plus a renderer producing the plain
    [# HELP] / [# TYPE] text format that Prometheus and compatible
    scrapers ingest.  The engine's [Exposition] module builds families
    from telemetry and the accountant ledger; {!of_spans} derives span
    count / duration / charge families directly from a trace. *)

type labels = (string * string) list

type hist = {
  bounds : float array;  (** Upper bucket bounds, ascending ([+Inf] implicit). *)
  counts : int array;  (** Per-bucket (non-cumulative) counts; same length. *)
  sum : float;
  count : int;
}

type summary = {
  quantiles : (float * float) list;  (** [(q, value)] pairs, [q] in [0 .. 1]. *)
  sum : float;
  count : int;
}

type family =
  | Counter of { name : string; help : string; samples : (labels * float) list }
  | Gauge of { name : string; help : string; samples : (labels * float) list }
  | Histogram of { name : string; help : string; samples : (labels * hist) list }
  | Summary of { name : string; help : string; samples : (labels * summary) list }
      (** Renders [name{...,quantile="0.99"}] lines plus [_sum] / [_count]. *)

val render : family list -> string
(** Full exposition text: one [# HELP] + [# TYPE] header per family,
    then its samples.  Histogram samples expand to cumulative
    [_bucket{le=...}] lines (ending at [le="+Inf"]), [_sum] and
    [_count]; summaries expand to per-quantile lines plus [_sum] /
    [_count].  Label values are escaped per the format spec.  Output is
    deterministic: families are sorted by (sanitized) name and each
    family's samples by label set, independent of construction order. *)

val of_spans : ?prefix:string -> Span.span list -> family list
(** Aggregate spans by (name, cat) into three counter families:
    [<prefix>_spans_total], [<prefix>_span_ms_total], and — over spans
    carrying charges — [<prefix>_span_epsilon_total] /
    [<prefix>_span_delta_total].  [prefix] defaults to ["privcluster"]. *)

module For_testing : sig
  val escape_label_value : string -> string
  (** Backslash, double-quote and newline escaped per the format spec. *)
end
