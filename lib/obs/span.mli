(** Hierarchical tracing spans with privacy-charge annotations.

    A span is a named, timed interval of work.  Spans nest: within one
    domain the current span is tracked in domain-local storage, so a span
    opened inside another automatically becomes its child; across domains
    (worker fan-out) the parent is passed explicitly by id.  Completed
    spans land in a global, mutex-protected collector from which the
    exporters ({!Trace}, {!Prom}, {!Attribution}) read.

    {2 Cost model}

    Tracing is {b disabled by default}.  Every entry point loads one
    [Atomic] flag and returns immediately when disabled — no clock read,
    no allocation beyond the closure at the call site, no locking.  The
    [attrs] parameters are thunks precisely so that attribute lists are
    never constructed on the disabled path.  Bench B10 gates the cost of
    the disabled path at ≤ 2% of the one-cluster end-to-end time.

    Tracing {b never draws randomness}: enabling it cannot perturb any
    mechanism's output (pinned by [test/test_obs.ml]).

    {2 Privacy charges}

    A span may carry a {!charge} — the (ε, δ) (and/or zCDP ρ) the traced
    work consumed or was budgeted.  Two conventions, both used by the
    pipeline:
    - {e mechanism spans} ({!with_charged} from [Prim]) carry the exact
      parameters the mechanism drew its noise with;
    - {e stage spans} ([Core] phases) carry the stage's budgeted share —
      the (ε, δ) arguments the stage was invoked with.

    {!Attribution} folds these into a per-job total and reconciles it
    against the engine's accountant ledger. *)

type attr = S of string | I of int | F of float | B of bool

type charge = { eps : float; delta : float; rho : float }

val charge : ?rho:float -> eps:float -> delta:float -> unit -> charge

val zero_charge : charge
val add_charges : charge -> charge -> charge

type id = int

type span = {
  id : id;
  parent : id option;
  tid : int;  (** Domain id of the domain that ran the span. *)
  name : string;
  cat : string;
  start_ns : int64;  (** Monotonic ({!Clock.now_ns}). *)
  mutable dur_ns : int64;
  mutable attrs : (string * attr) list;
  mutable label : string option;  (** Budget-attribution key (job id). *)
  mutable span_charge : charge option;
}

(** {2 Switch and collector} *)

val set_enabled : bool -> unit
(** Turn collection on or off.  Does not clear already-collected spans. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all completed spans.  Spans currently open keep collecting. *)

val spans : unit -> span list
(** Completed spans, sorted by start time (ties by id — ids increase in
    start order, so a parent always sorts before its children). *)

val count : unit -> int

(** {2 Recording} *)

val with_span :
  ?cat:string ->
  ?parent:id ->
  ?attrs:(unit -> (string * attr) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f] inside a span.  The parent defaults to
    the current span of this domain (none at top level); pass [?parent]
    to stitch across domains.  Exception-safe: a raising [f] closes the
    span (tagged with an ["error"] attribute) and re-raises. *)

val with_charged :
  ?cat:string ->
  ?attrs:(unit -> (string * attr) list) ->
  eps:float ->
  delta:float ->
  string ->
  (unit -> 'a) ->
  'a
(** {!with_span} that also stamps the span with an (ε, δ) charge.
    [cat] defaults to ["mech"]. *)

val event :
  ?cat:string ->
  ?parent:id ->
  ?attrs:(unit -> (string * attr) list) ->
  ?label:string ->
  ?charge:charge ->
  string ->
  unit
(** A zero-duration span (an instant): budget ledger operations, retries,
    worker restarts.  Parent defaults to the current span of this domain;
    pass [?parent] from worker domains with no open span. *)

val set_label : string -> unit
(** Set the budget-attribution label of the innermost open span. *)

(** {2 Handle API}

    For spans whose extent does not fit one lexical scope (the engine's
    fallback settlement).  [start]/[finish] must be called on the same
    domain, properly nested with any [with_span] on that domain. *)

type h

val start :
  ?cat:string -> ?parent:id -> ?attrs:(unit -> (string * attr) list) -> string -> h

val finish : h -> unit
val h_id : h -> id option
val h_set_attr : h -> string -> attr -> unit
val h_set_label : h -> string -> unit

(** {2 Tree helpers (for exporters and tests)} *)

val attributed : span list -> span -> charge
(** The charge a span accounts for: its own charge when set, otherwise
    the sum of its children's [attributed] — the stage-budget convention
    described above. *)

val attr : span -> string -> attr option
val attr_int : span -> string -> int option
val attr_bool : span -> string -> bool option

module For_testing : sig
  val current : unit -> id option
  (** Id of this domain's innermost open span; [None] when disabled or at
      top level. *)

  val set_attr : string -> attr -> unit
  (** Attach an attribute to the innermost open span (no-op when disabled
      or at top level).  Later values for the same key win at export. *)
end
