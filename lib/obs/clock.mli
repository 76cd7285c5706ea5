(** Monotonic clock (nanoseconds from an arbitrary epoch).

    Backed by [clock_gettime(CLOCK_MONOTONIC)]; unlike the wall clock it
    never goes backwards, so span durations are non-negative and the
    start-order of spans matches causal order within a process. *)

val now_ns : unit -> int64
(** Current monotonic time in nanoseconds.  Only the difference of two
    readings is meaningful. *)

val ns_to_ms : int64 -> float
val ns_to_us : int64 -> float

val ms_since : int64 -> float
(** [ms_since t0] — milliseconds elapsed since the {!now_ns} reading [t0]. *)
