(** The named check registry behind [privcluster_cli check] and the deep
    test tier.

    Three families of checks, one result record each:

    - {b distribution} — Kolmogorov–Smirnov / Anderson–Darling /
      chi-square goodness-of-fit of mechanism output against the exact
      reference laws of {!Dist}, at an explicit significance level;
    - {b distinguisher} — the {!Distinguisher} applied to every [Prim]
      mechanism and to composite runs ({!Prim.Noisy_avg},
      {!Privcluster.Good_radius}, {!Privcluster.One_cluster} at small [n],
      and the engine's reserve/commit fallback path);
    - {b utility} — the {!Certifier} on Theorem 3.2's contract.

    Sampling is fanned out over an {!Engine.Pool}: trials are sharded into
    a fixed number of chunks, each drawing from its own
    {!Prim.Rng.derive}d stream, so results are bit-identical for any
    [domains] count under a fixed seed. *)

type config = {
  seed : int;
  trials : int;  (** Per side, for full-rate checks; composites divide it. *)
  deep : bool;  (** Quadruple the composite / certifier sample sizes. *)
  significance : float;
      (** Goodness-of-fit rejection level (default 0.01 — chosen so the
          whole suite's false-alarm rate stays small at any seed while a
          real mis-calibration still lands many orders of magnitude
          beyond it). *)
  alpha : float;  (** Clopper–Pearson confidence parameter (default 0.05). *)
  slack : float;  (** Distinguisher ratio slack (default 0.1). *)
  domains : int;  (** Worker domains for the sampling fan-out. *)
}

val default : config

type status = Pass | Violation

type result = {
  name : string;  (** e.g. ["laplace/ks"], ["noisy_avg/dp"], ["one_cluster/utility"]. *)
  kind : string;  (** ["distribution"], ["distinguisher"] or ["utility"]. *)
  status : status;
  detail : string;  (** One-line human rendering of the headline numbers. *)
  json : Obs.Json.t;
}

val grouped_names : unit -> (string * string list) list
(** The names grouped by subsystem (the prefix before ['/']), groups in
    first-appearance order, members in run order — the structure behind
    [check --list]. *)

val exit_status : matched:bool -> violations:int -> int
(** The CLI's exit-code policy, kept here so it is unit-testable: 2 when
    a [--only] filter matched nothing, 1 when any check reported a
    violation, 0 otherwise. *)

val run : ?only:string list -> config -> result list
(** Run the registered checks ([only] filters by exact name or by
    [prefix/] group name, e.g. ["laplace"]). *)

val report_json : config -> result list -> Obs.Json.t
(** The machine-readable report the CLI emits: config, per-check records,
    and a pass/violation summary. *)

module For_testing : sig
  val names : unit -> string list
  (** Every registered check name, in run order. *)
end
