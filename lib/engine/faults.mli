(** Deterministic fault injection for the batch engine.

    Every failure path of {!Pool} and {!Service} — a job raising, a job
    stalling past its deadline — is reachable on
    demand through a fault {e schedule}: a pure function from (job
    submission index, attempt number) to an optional fault.  Schedules
    are deterministic by construction, so a CI run under
    [PRIVCLUSTER_FAULTS] reproduces exactly, and the engine's central
    robustness claim — crash-before-output faults change neither batch
    outputs nor the accountant's final spend — is testable as a plain
    diff (see [test/test_faults.ml]).

    Faults are armed {e before} the job's solver draws any randomness
    ({!Service} calls {!arm} ahead of the mechanism invocation), so an
    injected crash always models a {e crash before output}: the
    retry replays the same derived RNG stream and is bit-identical to an
    uninterrupted run.  Post-output failures are deliberately not
    injectable — they would require refund semantics the engine refuses
    to have (see DESIGN.md §7).

    {2 Schedule grammar}

    [parse] (also read from the [PRIVCLUSTER_FAULTS] environment variable
    by {!of_env}) accepts either form, comma-separated:

    - {b explicit} — [kind@INDEX[=ARG][xATTEMPTS]] rules, e.g.
      ["crash@2,stall@5=0.25,crash@7x3"]: job 2 crashes on its first
      attempt, job 5 stalls 0.25 s on its first attempt, job 7 crashes
      on its first three attempts.
    - {b seeded} — ["seed=S,rate=R[,attempts=N]"]: each job index
      crashes on its first [N] attempts (default 1) with probability
      [R], decided by a SplitMix64-derived stream of [(S, index)] — the
      same schedule for the same seed, whatever the batch or domain
      count.  A crash is replayable, so a test suite stays green under
      any seed as long as retries ≥ [attempts]. *)

type kind =
  | Crash  (** The job raises {!Injected} before producing output. *)
  | Stall of float
      (** The job sleeps this many seconds before running — long enough,
          it blows its cooperative deadline. *)

type rule = { kind : kind; attempts : int }
(** Fires while the job's attempt number is [< attempts]. *)

val rule : ?attempts:int -> kind -> rule
(** [attempts] defaults to 1 (first attempt only — the retry succeeds). *)

type t
(** A fault schedule. *)

exception Injected of string
(** What {!Crash} raises; the message names the job index and attempt. *)

val none : t
(** The empty schedule ({!arm} is a no-op). *)

val is_none : t -> bool

val explicit : (int * rule) list -> t
(** Schedule keyed by job submission index.  Later duplicates win.
    @raise Invalid_argument on a negative index or non-positive attempts. *)

val arm : t -> index:int -> attempt:int -> unit
(** Act on {!For_testing.lookup}: raise {!Injected}, sleep, or do
    nothing. *)

val parse : string -> (t, string) result
(** Parse the grammar above.  [""] and ["none"] parse to {!none}. *)

val to_string : t -> string
(** Render back to the grammar ([parse]-roundtrippable). *)

val of_env : unit -> t
(** Parse {!For_testing.env_var} from the environment; {!none} when unset or empty.
    @raise Invalid_argument when set but malformed (a typo'd schedule
    must not silently run fault-free). *)

module For_testing : sig
  val env_var : string
  (** ["PRIVCLUSTER_FAULTS"]. *)

  val lookup : t -> index:int -> attempt:int -> kind option
  (** The fault (if any) for attempt [attempt] of job [index].  Pure.
      @raise Invalid_argument on negative arguments. *)

  val seeded : ?attempts:int -> seed:int -> rate:float -> unit -> t
  (** Random-looking but fully deterministic schedule of {!Crash}es;
      [attempts] defaults to 1.
      @raise Invalid_argument if [rate ∉ [0, 1]] or [attempts ≤ 0]. *)
end
