(** Chrome trace-event export.

    Converts collected {!Span.span}s into the Trace Event Format consumed
    by Perfetto ([ui.perfetto.dev]) and [chrome://tracing]: a JSON object
    with a [traceEvents] array of complete ("X") events — one per span —
    plus instant ("i") events for zero-duration events (budget ledger
    operations, retries) and metadata ("M") events naming each domain's
    track.

    Timestamps are microseconds, rebased so the earliest span starts at
    0; [pid] is always 1 and [tid] is the OCaml domain id, so Perfetto
    shows one lane per domain with nesting inside each lane. *)

val to_string : Span.span list -> string
(** [Json.to_string (to_json spans)]. *)

val validate : Json.t -> (unit, string) result
(** Structural schema check: top level is an object with a [traceEvents]
    array; every event has string [name], [cat] and [ph], numeric [ts],
    [pid] and [tid]; ["X"] events also carry a non-negative [dur].  Used
    by the golden test and the [validate-trace] CLI command. *)

module For_testing : sig
  val to_json : Span.span list -> Json.t
end
