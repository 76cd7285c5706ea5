(** Job descriptions and results for the query engine.

    A job is one private query against a registered dataset, carrying its
    own [(ε, δ)] price (what the accountant is asked for), a failure
    probability β where the underlying solver takes one, and an optional
    deadline.  Seven kinds; each maps onto one entry point or coordinator
    action:

    - [one_cluster] — {!Privcluster.One_cluster.run_indexed} at
      [t = ⌈t_fraction · n⌉];
    - [k_cluster] — {!Privcluster.K_cluster.run} (Observation 3.5);
    - [quantile] — {!Privcluster.Quantile.quantile} on one coordinate axis
      of the dataset (an [(ε, 0)]-DP query; [delta] defaults to 0);
    - [mutate] — an epoch transition ({!Registry.append} of synthetic
      points, or {!Registry.retire} of an index range); free of charge
      and executed by the batch coordinator, not a worker;
    - [standing] — a standing 1-cluster query: [(eps, delta)] declares a
      {e total} budget, reserved up front in [periods] equal slices; one
      slice is committed per epoch the query is re-answered on;
    - [local_cluster] — {!Privcluster.Local_cluster.run}, the local-model
      (LDP) competitor, at [t = ⌈t_fraction · n⌉]; pure ε, so [delta]
      defaults to 0;
    - [meb_fptas] — {!Baselines.Meb_fptas.run}, the coreset minimum
      enclosing ball competitor, with an optional [coreset] sample size
      (default 400).

    {2 Jobs-file format}

    One job per line; [#] starts a comment; blank lines are skipped:

    {v
    # kind        key=value ...
    one_cluster   t_fraction=0.45 eps=0.5 delta=1e-7
    k_cluster     k=3 t_fraction=0.2 eps=1.0 delta=1e-7 deadline=30
    quantile      q=0.5 axis=0 eps=0.25 id=median-x
    mutate        op=append n=500 seed=11 frac=0.5 radius=0.05
    mutate        op=retire from=0 count=100
    standing      t_fraction=0.45 periods=4 eps=0.8 delta=4e-7 id=watch
    local_cluster t_fraction=0.6 eps=2.0
    meb_fptas     t_fraction=0.8 coreset=200 eps=1.0 delta=1e-7
    v}

    Recognized keys: [eps] (required except for [mutate], default 0 there),
    [delta] (required for [one_cluster], [k_cluster], [standing] and
    [meb_fptas], default [0] otherwise), [beta] (default 0.1), [t_fraction] (in (0, 1],
    NaN and infinities rejected; default 0.5), [k] (required for [k_cluster]), [q] (default 0.5), [axis]
    (default 0), [deadline] (seconds, default none), [fallback]
    (true/false, default false; [one_cluster] only), [id] (default
    ["j<line-position>"]); for [mutate]: [op] (required, [append] or
    [retire]), [n]/[seed] (required for append), [frac] (default 0.5),
    [radius] (default 0.05), [from]/[count] (required for retire); for
    [standing]: [periods] (required, ≥ 1); for [meb_fptas]: [coreset]
    (default 400).  [k], [coreset], [n], [count] and [periods] are
    positive integers, [axis], [seed] and [from] integers.  A key the
    line's kind does not read is an error.

    This module is the one place a kind's facts are stated: its name,
    the keys and defaults it is parsed from, the order its arguments are
    printed in, its price and its target fraction.  Adding a kind touches
    this module and its one arm in [Service.execute] (a coordinator kind,
    like [mutate] and [standing], also its arm in [Service.run_batch]);
    the compiler's exhaustiveness check finds them. *)

type mutation_op =
  | Append_synth of { n : int; seed : int; frac : float; radius : float }
      (** Append [n] points drawn by {!Workload.Synth.planted_ball} from
          a dedicated RNG seeded with [seed] — deterministic, so a WAL
          replay reproduces the exact rows. *)
  | Retire_range of { from_ : int; count : int }

type kind =
  | One_cluster of { t_fraction : float }
  | K_cluster of { k : int; t_fraction : float }
  | Quantile of { axis : int; q : float }
  | Mutate of mutation_op
  | Standing of { t_fraction : float; periods : int }
  | Local_cluster of { t_fraction : float }
  | Meb of { t_fraction : float; coreset : int }

type spec = {
  id : string;
  kind : kind;
  eps : float;
  delta : float;
  beta : float;
  deadline_s : float option;
  fallback : bool;
      (** Opt-in graceful degradation: when the job cannot complete
          (retries exhausted, deadline blown, solver failure), run the
          radius-only fallback whose charge was reserved at admission and
          report {!Degraded}. *)
}

val kind_name : kind -> string
(** ["one_cluster"], ["k_cluster"], ["quantile"], ["mutate"],
    ["standing"], ["local_cluster"], ["meb_fptas"]. *)

val cost : spec -> Prim.Dp.params
(** What the accountant is charged: the job's [(ε, δ)]. *)

val fallback_cost : spec -> Prim.Dp.params option
(** What the accountant additionally {e reserves} at admission when the
    job opts into degradation: [(ε/2, δ/2)] for a [one_cluster] job with
    [fallback = true] — the GoodRadius stage share of the full pipeline's
    even split — and [None] otherwise. *)

val t_fraction : kind -> float option
(** The fraction of the dataset a cluster-locating kind targets, [t =
    ⌈t_fraction · n⌉]: [Some] for [one_cluster], [k_cluster], [standing],
    [local_cluster] and [meb_fptas]; [None] for [quantile] and [mutate]. *)

val parse : ?default_beta:float -> string -> (spec list, string) result
(** Parse a whole jobs file (the contents, not a path); every spec passes
    {!validate}.  [Error] carries a one-line message with the offending
    line number. *)

val validate : spec -> (spec, string) result
(** The checks every spec passes before admission, whoever built it:
    finite [eps > 0] for every kind but [mutate]; [delta] in [[0, 1)];
    [t_fraction] in (0, 1] and [q] in [[0, 1]] (NaN fails each); positive
    [k], [coreset], [periods], [n] and [count], and [from ≥ 0]; an
    append's [frac] and [radius] as {!synth_params_error} checks them;
    [fallback] only on [one_cluster]; an [id] a jobs line can carry
    (non-empty, no whitespace, no ['#']).  [Error] names the key. *)

val synth_params_error : frac:float -> radius:float -> string option
(** [Some] message unless [frac] is in (0, 1] and [radius] is finite and
    [>= 0] (NaN fails both): the range of the planted-ball synthesis
    parameters that an append and a registration share. *)

val spec_to_line : spec -> string
(** Render a spec back to the file format: its {!signature} without the
    version field, then [id], [deadline] and [fallback].  Floats are exact (hex), so [parse]
    returns the same spec bit for bit; this is the line a standing query
    is journaled as. *)

(** {1 Results} *)

(** An output carries only what a mechanism released and the public
    parameters it ran at: no count of the points a ball covers, no ratio
    against the true optimum.  Such diagnostics read the data with no
    noise, so no ε would bound what a reply reveals; the evaluation path
    ({!Workload.Metrics}, the experiments) measures them on synthetic data
    instead. *)

type ball = { center : Geometry.Vec.t; radius : float }

type output =
  | Cluster of { ball : ball; t : int; delta_bound : float }
  | Clusters of { balls : ball list; failures : int }
  | Quantile_value of { value : float; target_rank : float }
  | Radius of { radius : float; t : int; delta_bound : float }
      (** The degraded fallback's output: a GoodRadius-only answer — a
          certified radius for target size [t], but no center. *)
  | Epoch_advanced of { epoch : int; n : int }
      (** A [mutate] job's acknowledgement: the dataset's new epoch and
          point count. *)
  | Standing_accepted of { periods : int }
      (** A [standing] job's acknowledgement; subsequent ticks report as
          ordinary {!Cluster} results under ids ["<id>#<k>"]. *)

type status =
  | Completed of output
  | Refused of string  (** Accountant refusal — the job never ran. *)
  | Timed_out of { elapsed_ms : float }
  | Solver_failed of string
      (** The private solver returned its failure value (or every retry
          attempt raised); the budget stays charged — noise may have been
          drawn. *)
  | Degraded of { output : output; reason : string }
      (** The job could not complete but its opt-in fallback did; the
          fallback's reserved charge is committed on top of the job's
          original charge.  [reason] names the original failure. *)

val status_name : status -> string
(** ["ok"], ["refused"], ["timeout"], ["failed"], ["degraded"] — the
    telemetry status vocabulary. *)

type result = { spec : spec; status : status; latency_ms : float; attempts : int }
(** [attempts] — execution attempts consumed (0 for refused jobs, 1 for
    a first-try success, more after retries). *)

val result_to_json : result -> Obs.Json.t

val detail : result -> string
(** The headline numbers (or the refusal/failure message) alone — the
    CLI's table cell. *)

(** {1 Result caching} *)

val signature : spec -> string
(** The spec's mechanism parameters — kind, kind arguments, [(ε, δ)], β —
    rendered exactly (hex floats), excluding identity and scheduling
    knobs ([id], [deadline], [fallback]), followed by [version=N], the
    version of the answers the library computes for them.  Two specs with
    equal signatures, run against the same dataset epoch with the same
    derived RNG stream, produce bit-identical outputs; the signature is
    therefore the job-parameter component of {!Result_cache} keys.  The
    version is bumped whenever a change to the library changes those
    outputs, so cache entries and journaled [cached] records made by an
    older build never match a new recomputation. *)

val output_to_wire : output -> Obs.Json.t
(** Exact JSON encoding for WAL journaling: the fields of the reply's
    [output] object, floats in hex, plus a [kind] tag.  Round-trips
    bit-for-bit through {!output_of_wire}. *)

val output_of_wire : Obs.Json.t -> (output, string) Stdlib.result
(** Decode {!output_to_wire}'s form.  Members it does not read are
    ignored, so a record journaled by an older build that still carries
    the exact coverage counts or the ratio against the r_opt sandwich
    restores. *)
