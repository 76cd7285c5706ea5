(** A worker pool on OCaml 5 domains.

    [run] executes a batch of tasks on up to [domains] workers pulling
    from a shared queue (an atomic next-index counter) and returns the
    outcomes {e in submission order}, regardless of which domain ran what
    or in what order tasks finished.  The calling domain is one of the
    workers; the others are helper domains that outlive the batch.

    {2 Helper domains}

    + {b Lifecycle.} Helpers are started on demand, once per process: a
      batch at [domains] starts helpers until [domains − 1] exist, so
      their number never exceeds the largest [domains − 1] any batch has
      asked for.  Between batches they block on a condition variable.
      The first start registers an [at_exit] handler that shuts the pool
      down and joins every idle helper, so a process that ran a
      multi-domain batch still exits promptly.  A [run] after that
      shutdown (say, from an [at_exit] handler registered earlier, which
      runs later) runs every task on the caller.
    + {b Joining a batch.} A batch is {e open} from its start until the
      caller's own loop finds no task left to start.  An idle helper joins
      an open batch that has a free seat ([domains − 1] seats per batch),
      runs the same loop, and leaves when the queue is empty.  Once the
      caller closes the batch it waits only for the helpers that joined
      it, and they are finishing tasks already started.  A helper busy
      elsewhere is never waited for.
    + {b Nesting.} A task may itself call [run] (the check suite's
      fan-out runs whole engine batches inside pool tasks).  The nested
      batch is run by its caller, helped by whichever helpers are idle,
      so it can neither deadlock nor wait on a busy helper.
    + {b No fork.} OCaml 5 refuses [Unix.fork] while other domains are
      running, and after a multi-domain batch helpers always are.  Nothing
      in this project may fork; start processes with [Unix.create_process]
      instead.

    Determinism: the pool passes each task's submission index (and attempt
    number) to the work function; callers that need reproducible
    randomness derive a per-task generator from that index with
    {!Prim.Rng.derive}, which depends only on the base seed and the index
    — never on scheduling or retries.  The engine's batch results are
    therefore bit-identical at 1 and at [N] domains, with or without
    injected faults.

    {2 Failure handling}

    + {b Retries.} A task whose work function raises is re-run {e in
      place} (same worker, same index) up to [retries] extra attempts,
      with capped exponential backoff ([1 ms · 2^(attempt−1)], capped
      at 250 ms) between attempts.  Only when every attempt has
      raised does the task report {!Failed}; the failure is confined to
      the task and the worker moves on to the next one.  No exception a
      task raises ends its worker.
    + {b Deadlines} are per-task, measured from batch start on the
      monotonic clock ({!Obs.Clock}, so a wall-clock step cannot expire
      or extend one), and {e cooperative}: a domain cannot preempt a running OCaml
      computation.  A task (or retry attempt) whose deadline has already
      passed is never started, and a task that finishes past its deadline
      has its result discarded; both report {!Timed_out}.  The pool
      itself never hangs on a deadline.

    [on_retry] observes retries (for telemetry); it is called from
    worker domains and must be thread-safe. *)

type 'a task = { payload : 'a; deadline_s : float option }

val task : ?deadline_s:float -> 'a -> 'a task

type 'b outcome =
  | Done of 'b
  | Timed_out of { elapsed_ms : float }
      (** Deadline passed before the task (or a retry attempt) started,
          or the task finished past it (see the cooperative-deadline note
          above). *)
  | Failed of string
      (** Every attempt of the work function raised (the message is the
          last exception).  The failure is confined to the task. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8 — past the point of
    diminishing returns for this workload's memory-bound inner loops. *)

val run :
  ?retries:int ->
  ?on_retry:(index:int -> attempt:int -> unit) ->
  ?trace_parent:Obs.Span.id ->
  domains:int ->
  f:(index:int -> attempt:int -> 'a -> 'b) ->
  'a task array ->
  'b outcome array
(** [run ~domains ~f tasks] — [f ~index ~attempt payload] for every task;
    [domains] is clamped to [[1, Array.length tasks]], and up to
    [domains − 1] helpers work beside the caller; [retries] extra
    attempts per task (default 0); [on_retry ~index ~attempt] runs
    before attempt [attempt ≥ 1] of task [index].  Blocks until the
    batch is drained.

    When tracing is enabled ({!Obs.Span.set_enabled}), retries
    additionally emit [cat="pool"] instant events parented under
    [trace_parent] (helper domains have no open span of their own). *)

module For_testing : sig
  val helpers : unit -> int
  (** Helper domains started so far in this process. *)
end
