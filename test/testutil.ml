(* Shared helpers for the test-suite. *)

(* Every statistical test in the suite derives its generator from this one
   seed, so a flaky failure is reproducible: the failure message prints the
   seed, and PRIVCLUSTER_TEST_SEED re-runs the whole suite under it. *)
let suite_seed =
  match Sys.getenv_opt "PRIVCLUSTER_TEST_SEED" with
  | None | Some "" -> 424242
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None -> invalid_arg "PRIVCLUSTER_TEST_SEED must be an integer")

(* The deep statistical tier (large-sample distinguisher runs, the utility
   certifier) only runs when PRIVCLUSTER_DEEP_CHECKS=1 — see TESTING.md. *)
let deep_checks =
  match Sys.getenv_opt "PRIVCLUSTER_DEEP_CHECKS" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let rng ?seed () = Prim.Rng.create ~seed:(Option.value seed ~default:suite_seed) ()

(* A generator on a per-test-name stream of the suite seed: independent
   across tests, reproducible across runs and test orderings. *)
let rng_named name = Prim.Rng.derive (rng ()) ~stream:(Hashtbl.hash name)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %.3g)" msg expected actual tol

let check_in_range msg ~lo ~hi actual =
  if not (actual >= lo && actual <= hi) then
    Alcotest.failf "%s: %.12g not in [%.12g, %.12g]" msg actual lo hi

let check_true msg b = Alcotest.(check bool) msg true b
let check_int msg expected actual = Alcotest.(check int) msg expected actual

(* Sample mean / variance for sampler statistics. *)
let stats samples =
  let n = float_of_int (Array.length samples) in
  let mean = Array.fold_left ( +. ) 0. samples /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. samples /. (n -. 1.)
  in
  (mean, var)

(* [seed] pins the generator, for a regression case found under one
   QCHECK_SEED; without it the seed is QCheck's (QCHECK_SEED or random). *)
let qcheck ?(count = 200) ?seed name gen prop =
  let rand = Option.map (fun s -> Random.State.make [| s |]) seed in
  QCheck_alcotest.to_alcotest ?rand (QCheck2.Test.make ~count ~name gen prop)

(* A small deterministic planted-cluster workload used by several suites. *)
let small_workload ?(seed = 3) ?(n = 400) ?(dim = 2) ?(axis = 128) ?(fraction = 0.5)
    ?(radius = 0.06) () =
  let r = rng ~seed () in
  let grid = Geometry.Grid.create ~axis_size:axis ~dim in
  let w = Workload.Synth.planted_ball r ~grid ~n ~cluster_fraction:fraction ~cluster_radius:radius in
  (r, grid, w)

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* Statistical cases: the body receives a generator on the test's own
   stream of the suite seed, and a failure prints how to reproduce it. *)
let with_seed_trace name f () =
  try f (rng_named name)
  with e ->
    Printf.eprintf
      "statistical case %S failed under suite seed %d (re-run: PRIVCLUSTER_TEST_SEED=%d)\n%!"
      name suite_seed suite_seed;
    raise e

let stat_case name f = Alcotest.test_case name `Quick (with_seed_trace name f)
let stat_slow_case name f = Alcotest.test_case name `Slow (with_seed_trace name f)

(* Deep-tier case: present only under PRIVCLUSTER_DEEP_CHECKS=1. *)
let deep_case name f =
  if deep_checks then [ Alcotest.test_case name `Slow (with_seed_trace name f) ] else []
