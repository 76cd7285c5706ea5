(** A budgeted per-dataset privacy ledger.

    The one ledger in the library: a dataset is registered with a total
    [(ε, δ)] budget, every job must ask before running, and a charge that
    would push the composed total past the budget is {e refused} — the job
    is never executed (refusal happens before any noise is drawn, so a
    refused job consumes no privacy).  {!Prim.Composition} and {!Prim.Zcdp}
    supply the composition arithmetic.

    Three composition modes decide what "the composed total" means:
    - {!Basic} — Theorem 2.1: ε's and δ's add ({!Prim.Composition.basic_list}).
    - {!Advanced} — Theorem 4.7 with slack [δ']: when every charge so far is
      identical the total is whichever of the basic and advanced pairs has
      the smaller ε (both are valid guarantees for the same composition, so
      either pair may be reported — but not a coordinate-wise mix of the
      two); with heterogeneous charges the theorem (as stated, and as
      implemented in {!Prim.Composition.advanced}) does not apply and the
      ledger falls back to the basic total.
    - {!Zcdp} — the Bun–Steinke ledger with conversion slack [δ']: an
      [(ε_i, δ_i)] charge enters as [ρ_i = ε_i²/2]
      ({!Prim.Zcdp.of_pure_dp}); ρ's add, and the spend reported against
      the budget is [to_dp (Σρ) δ'] with the δ_i's added on top — the same
      [(kδ + δ')] shape as advanced composition.

    Charging is sequential by design: the engine charges every job of a
    batch in submission order {e before} dispatching any of them to the
    pool, so the accept/refuse decisions are deterministic and independent
    of worker scheduling.  The ledger itself is not thread-safe; the
    engine only touches it from the coordinator (admission and the
    post-batch degradation pass), never from worker domains.

    {2 Reservations}

    The graceful-degradation path needs a charge that is {e admitted now}
    but only {e spent later, maybe}: when a job opts into a fallback
    solver, the fallback's price must be secured at admission time (so
    degradation never discovers mid-batch that the budget is gone), yet it
    must not count as spent if the job completes normally.  {!reserve}
    admits such a charge and holds it against the budget — subsequent
    {!charge}/{!reserve}/{!For_testing.would_accept} decisions treat it as if it were
    already committed — without adding it to {!spent}.  The holder then
    settles it exactly once: {!commit} converts it into a real charge
    (the fallback ran and its noise was drawn), {!release} frees the
    headroom (the fallback was not needed — releasing is data-independent
    post-processing of the job's public status, so it leaks nothing). *)

type mode =
  | Basic
  | Advanced of { slack : float }  (** Theorem 4.7's δ'. *)
  | Zcdp of { slack : float }  (** The δ of the ρ → (ε, δ) conversion. *)

val mode_name : mode -> string
(** ["basic"], ["advanced"], ["zcdp"]. *)

val mode_of_string : ?slack:float -> string -> (mode, string) result
(** Parse a mode name; [slack] (default [1e-9]) feeds the two modes that
    need one. *)

type t

type refusal = {
  requested : Prim.Dp.params;
  would_spend : Prim.Dp.params;  (** Composed total had the charge gone through. *)
  spent : Prim.Dp.params;  (** Composed total before the charge. *)
  budget : Prim.Dp.params;
}

(** {2 Event stream}

    Every ledger operation emits one structured event to every subscribed
    listener, {e after} the state change it describes — a listener that
    reads the ledger sees the post-event state.  Consumers that need a
    durable or remote view of the ledger (the daemon's journaled WAL, the
    tracing budget-event emitter) subscribe here instead of peeking at
    internals; the [label] carries the job id the operation was charged
    under, and reservation events carry the reservation's sequence number
    [id] so reserve/commit/release triples can be paired up downstream.
    Listeners observe only: they cannot veto or reorder operations, and a
    ledger with no listeners behaves bit-identically to one that has
    never heard of events. *)

type event =
  | Charged of { label : string; cost : Prim.Dp.params }
  | Refused of { label : string; cost : Prim.Dp.params; reserve : bool; refusal : refusal }
      (** [reserve] distinguishes a refused {!reserve} from a refused
          {!charge} (both leave the ledger unchanged and bump the refusal
          counter). *)
  | Reserved of { id : int; label : string; cost : Prim.Dp.params }
  | Committed of { id : int; label : string; cost : Prim.Dp.params }
  | Released of { id : int; label : string; cost : Prim.Dp.params }

val subscribe : t -> (event -> unit) -> unit
(** Add a listener; listeners fire in subscription order, synchronously,
    on the thread performing the ledger operation. *)

val trace : event -> unit
(** The tracing listener: one [cat="budget"] {!Obs.Span.event} per ledger
    operation, named [charge], [refuse], [reserve], [commit] or [release],
    labelled with the event's label, and carrying its cost as the span
    charge (a release carries none).  {!Registry.register} subscribes it
    to every dataset's ledger, so this is the one place that maps ledger
    operations to trace events; {!Obs.Attribution} reconciles the
    [charge] and [commit] instants against {!entries}. *)

val create : ?mode:mode -> budget:Prim.Dp.params -> unit -> t
(** Fresh ledger with nothing spent.  [mode] defaults to {!Basic}. *)

val mode : t -> mode
val budget : t -> Prim.Dp.params

val spent : t -> Prim.Dp.params
(** Composed total of all accepted charges under the ledger's mode;
    [(0, 0)] when nothing has been charged. *)

val charge : t -> ?label:string -> Prim.Dp.params -> (unit, refusal) result
(** Accept the charge iff the composed total — including outstanding
    reservations — stays within budget: each coordinate at most
    [budget × (1 + 1e-9)], so a budget split into equal parts fills
    exactly and a zero budget admits only zero.  On [Error] the ledger
    is unchanged; the refusal count is incremented.
    @raise Invalid_argument on a negative or NaN coordinate: such a cost
    would lower the ledger. *)

type reservation
(** A held-but-not-spent charge; see the module preamble. *)

val reserve : t -> ?label:string -> Prim.Dp.params -> (reservation, refusal) result
(** Admit the charge (same budget test as {!charge}) but park it as a
    reservation: it blocks later admissions yet does not enter {!spent}
    or {!entries} until {!commit}.  A refused reservation increments the
    refusal counter like a refused charge.
    @raise Invalid_argument on a negative or NaN coordinate, like {!charge}. *)

val commit : t -> reservation -> unit
(** Turn the reservation into a real charge (it joins {!entries} and
    {!spent}).  @raise Invalid_argument if already settled. *)

val release : t -> reservation -> unit
(** Drop the reservation, freeing its headroom.
    @raise Invalid_argument if already settled. *)

val outstanding : t -> (reservation * string * Prim.Dp.params) list
(** Like {!For_testing.reserved} but with the handles, so an operator can {!commit}
    or {!release} reservations it did not take itself — the [settle]
    path for orphans restored by WAL replay. *)

val entries : t -> (string * Prim.Dp.params) list
(** Accepted charges in charge order. *)

val refusals : t -> int

val refusal_message : refusal -> string
(** One-line human rendering, used verbatim in job results. *)

val to_json : t -> Obs.Json.t
(** {!summary_json}'s fields, then the outstanding reservations and
    every accepted charge: the full ledger. *)

val summary_json : t -> Obs.Json.t
(** Mode, budget, {!balance_json}'s fields and the refusal count: the
    ledger without its history, so its size does not grow with the
    number of charges. *)

val balance_json : t -> (string * Obs.Json.t) list
(** The [spent] and [remaining] fields of {!to_json}, without the
    history: their size does not grow with the number of charges. *)

module For_testing : sig
  val reserved : t -> (string * Prim.Dp.params) list
  (** Outstanding (unsettled) reservations, oldest first. *)

  val would_accept : t -> Prim.Dp.params -> bool
  (** The decision {!charge} would make, without making it. *)
end
