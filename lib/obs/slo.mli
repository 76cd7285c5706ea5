(** Declarative serving SLO rules.

    A rule names a signal (a latency quantile per verb, a budget
    burn-rate per tenant/dataset, the queue shed rate) and two
    thresholds; evaluation against an {!observations} record yields one
    {!verdict} per matched subject with status [Ok]/[Warn]/[Firing] and
    a human-readable reason string.  The module knows nothing about the
    daemon: callers supply the signals as thunks, which keeps [Obs]
    free of dependencies on the engine and server layers.

    Rules have a stable one-line text form ({!rule_of_line} /
    {!For_testing.rule_to_line}) so the daemon can accept [--slo RULE] flags:

    {v
    latency q=0.99 verb=run warn_ms=500 fire_ms=2000
    burn tenant=* dataset=* warn=0.5 fire=1.0
    shed warn=0.01 fire=0.10
    v}

    [verb=*] (or omitting the key) matches every observed subject. *)

type status = Ok | Warn | Firing

val status_to_string : status -> string
(** ["ok"], ["warn"], ["firing"]. *)

val status_of_string : string -> status option

type rule =
  | Latency of { verb : string option; q : float; warn_s : float; fire_s : float }
      (** [verb = None] matches every observed verb. *)
  | Burn_rate of {
      tenant : string option;
      dataset : string option;
      warn_per_hour : float;  (** Fraction of the epsilon budget per hour. *)
      fire_per_hour : float;
    }
  | Shed_rate of { warn : float; fire : float }
      (** Shed requests as a fraction of submissions. *)

val rule_of_line : string -> (rule, string) result
(** Inverse of {!For_testing.rule_to_line}; errors name the offending token. *)

val default_rules : rule list
(** p99 latency over every verb (warn 0.5 s / fire 2 s), burn-rate over
    every tenant × dataset (warn 0.5 / fire 1.0 budget-fractions per
    hour), shed rate (warn 1% / fire 10%). *)

type observations = {
  latencies : unit -> (string * Hist.snapshot) list;
      (** Per-verb request latency, merged over tenants. *)
  burn_rates : unit -> (string * string * float) list;
      (** [(tenant, dataset, eps-budget-fraction per hour)]. *)
  shed_rate : unit -> float * int;
      (** [(shed fraction, total submissions)]; fraction 0 when idle. *)
}

type verdict = {
  rule : string;  (** {!For_testing.rule_to_line} of the generating rule. *)
  subject : string;  (** e.g. ["verb=run"] or ["tenant=acme dataset=d1"]. *)
  status : status;
  reason : string;
}

val eval_all : observations -> rule list -> verdict list
val worst_of : verdict list -> status
val verdict_to_json : verdict -> Json.t
val verdict_of_json : Json.t -> verdict option

module For_testing : sig
  val eval : observations -> rule -> verdict list
  (** Wildcard rules expand to one verdict per observed subject; a rule
      pinned to an unobserved subject yields a single [Ok] verdict with
      reason ["no observations"]. *)

  val rule_to_line : rule -> string
end
