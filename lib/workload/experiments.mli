(** The experiment suite of EXPERIMENTS.md.

    The paper's evaluation content is Table 1 plus the quantitative claims
    of Theorems 3.2, 5.2/5.3 and 6.3; each experiment below regenerates one
    of them on synthetic workloads (DESIGN.md §3 is the index).  Every
    experiment prints its tables through {!Report} and is deterministic
    given [seed].

    [quick] shrinks trial counts and sweep grids so the full suite finishes
    in a couple of minutes; the default sizes are what EXPERIMENTS.md
    records. *)

type cfg = { quick : bool; seed : int }

val default_cfg : cfg

val e1_table1 : cfg -> unit
(** Table 1 — four-method head-to-head across dimensions and cluster
    fractions. *)

val e2_radius_vs_n : cfg -> unit
(** Theorem 3.2: radius-approximation factor vs [n], including the
    paper-constant JL path whose private radius tracks [√log n]. *)

val e3_delta_vs_eps : cfg -> unit
(** Theorem 3.2: cluster loss vs ε (certified and measured). *)

val e4_goodradius : cfg -> unit
(** Lemma 4.6: GoodRadius's ratio [r / r_opt] distribution, with the
    backend and radius-grid ablations. *)

val e5_min_t_vs_d : cfg -> unit
(** Theorem 3.2: minimum workable cluster size vs dimension. *)

val e6_domain_size : cfg -> unit
(** Remark 3.4: accuracy vs |X| — the log* / log / polylog comparison. *)

val e7_sample_aggregate : cfg -> unit
(** Theorem 6.3 vs 6.2: aggregator comparison as the good-run fraction α
    drops below 1/2, plus an end-to-end Algorithm 4 run. *)

val e8_outliers : cfg -> unit
(** §1.1: noise reduction from 1-cluster outlier screening. *)

val e9_k_clustering : cfg -> unit
(** Observation 3.5: k-ball coverage by iterated 1-cluster. *)

val e10_interior_point : cfg -> unit
(** Theorem 5.3: the IntPoint reduction solving interior point. *)

val e11_geometry_tails : cfg -> unit
(** Lemmas 4.9/4.10: measured JL distortion and rotated-projection bounds
    against their stated tails. *)

val e12_ablations : cfg -> unit
(** DESIGN.md's design choices measured: identity vs JL projection path,
    box-side-factor sweep. *)

val e13_quantiles : cfg -> unit
(** Private quantiles via RecConcave (the IntPoint step-4 machinery as a
    stand-alone tool): measured rank error vs the certified bound. *)

val e14_scalability : cfg -> unit
(** The k-d tree index: build time, end-to-end solve time and answer
    quality as n grows to 64k points. *)

val all : (string * string * (cfg -> unit)) list
(** [(id, title, run)] for every experiment, in order. *)

val run_one : cfg -> string * string * (cfg -> unit) -> unit
(** One entry of {!all} with its standard header (id, title, mode, seed) —
    the unit the bench dispatches to engine-pool workers. *)

val run : ?only:string list -> cfg -> unit
(** Run all (or the selected) experiments with headers. *)
