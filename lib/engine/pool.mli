(** A supervised fixed-size worker pool on OCaml 5 domains.

    [run] executes a batch of tasks on [domains] workers pulling from a
    shared queue (an atomic next-index counter plus a reschedule list for
    tasks orphaned by a worker death) and returns the outcomes {e in
    submission order}, regardless of which domain ran what or in what
    order tasks finished.  The calling domain is one of the workers: it
    spawns [domains − 1] helper domains, runs the same worker loop
    itself, then joins the helpers and any replacements they spawned.

    Determinism: the pool passes each task's submission index (and attempt
    number) to the work function; callers that need reproducible
    randomness derive a per-task generator from that index with
    {!Prim.Rng.derive}, which depends only on the base seed and the index
    — never on scheduling, retries or restarts.  The engine's batch
    results are therefore bit-identical at 1 and at [N] domains, with or
    without crashes.

    {2 Failure handling}

    Three layers, from cheapest to heaviest:

    + {b Retries.} A task whose work function raises an ordinary
      exception is re-run {e in place} (same worker, same index) up to
      [retries] extra attempts, with capped exponential backoff
      ([backoff_s · 2^(attempt−1)], capped at 250 ms) between attempts.
      Only when every attempt has raised does the task report {!Failed}.
    + {b Supervision.} A work function that raises {!Worker_crash}
      simulates/propagates the death of its worker domain: the in-flight
      task is pushed onto the reschedule queue (its attempt count
      intact), a replacement domain is spawned, and the dead domain is
      reaped by the caller.  At most [max_restarts] replacements are
      made per batch (default [2·domains]); past that, a crash is
      absorbed as a plain {!Failed} on the in-flight task so the batch
      always terminates.  The caller's own worker "restarts" by
      continuing as its own replacement, at every domain count — the
      counters behave identically.
    + {b Deadlines} are per-task, measured from batch start on the
      monotonic clock ({!Obs.Clock}, so a wall-clock step cannot expire
      or extend one), and {e cooperative}: a domain cannot preempt a running OCaml
      computation.  A task (or retry attempt) whose deadline has already
      passed is never started, and a task that finishes past its deadline
      has its result discarded; both report {!Timed_out}.  The pool
      itself never hangs on a deadline.

    [on_event] observes retries and worker restarts (for telemetry); it
    is called from worker domains and must be thread-safe. *)

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
          last exception), or a crash landed after the restart budget was
          exhausted.  The failure is confined to the task. *)

exception Worker_crash of string
(** Raising this from the work function kills the worker domain (the
    supervised path above).  {!Faults} raises it to inject worker deaths;
    a caller embedding the pool can use it to escalate any condition it
    considers worker-fatal. *)

type event =
  | Task_retry of { index : int; attempt : int }
      (** Attempt [attempt ≥ 1] of task [index] is about to run — counts
          both in-place retries and post-crash reschedules. *)
  | Worker_restart  (** A dead worker domain is being replaced. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8 — past the point of
    diminishing returns for this workload's memory-bound inner loops. *)

val run :
  ?retries:int ->
  ?backoff_s:float ->
  ?max_restarts:int ->
  ?on_event:(event -> unit) ->
  ?trace_parent:Obs.Span.id ->
  domains:int ->
  f:(index:int -> attempt:int -> 'a -> 'b) ->
  'a task array ->
  'b outcome array
(** [run ~domains ~f tasks] — [f ~index ~attempt payload] for every task;
    [domains] is clamped to [[1, Array.length tasks]], and the call
    spawns one domain fewer (the caller works); [retries] extra
    attempts per task (default 0); [backoff_s] base backoff (default
    1 ms); [max_restarts] worker-replacement budget (default
    [2·domains]).  Blocks until the batch is drained.

    When tracing is enabled ({!Obs.Span.set_enabled}), retries and worker
    restarts additionally emit [cat="pool"] instant events parented under
    [trace_parent] (spawned domains have no open span of their own). *)
