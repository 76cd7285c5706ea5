(* Samplers: distributional statistics, determinism, and edge cases. *)

open Testutil

let n_samples = 40_000

let test_seed_of () =
  let a = Prim.Rng.create ~seed:99 () in
  Testutil.check_int "seed recorded" 99 (Prim.Rng.For_testing.seed_of a)

let test_determinism () =
  let a = Prim.Rng.create ~seed:5 () and b = Prim.Rng.create ~seed:5 () in
  for _ = 1 to 100 do
    check_float "same stream" (Prim.Rng.float a 1.0) (Prim.Rng.float b 1.0)
  done;
  let c = Prim.Rng.create ~seed:6 () in
  let diff = ref false in
  for _ = 1 to 20 do
    if Prim.Rng.float a 1.0 <> Prim.Rng.float c 1.0 then diff := true
  done;
  check_true "different seeds differ" !diff

let test_copy_and_split () =
  let a = rng () in
  let b = Prim.Rng.For_testing.copy a in
  check_float "copy replays" (Prim.Rng.float a 1.0) (Prim.Rng.float b 1.0);
  let c = Prim.Rng.split a in
  let matching = ref 0 in
  for _ = 1 to 50 do
    if Prim.Rng.float a 1.0 = Prim.Rng.float c 1.0 then incr matching
  done;
  check_true "split stream diverges" (!matching < 5)

let test_uniform_bounds () =
  let r = rng () in
  for _ = 1 to 1000 do
    let x = Prim.Rng.uniform r ~lo:2.0 ~hi:3.5 in
    check_in_range "uniform in range" ~lo:2.0 ~hi:3.5 x
  done

let test_gaussian_stats () =
  let r = rng () in
  let samples = Array.init n_samples (fun _ -> Prim.Rng.gaussian r ~mu:1.5 ~sigma:2.0 ()) in
  let mean, var = stats samples in
  check_float ~tol:0.05 "gaussian mean" 1.5 mean;
  check_float ~tol:0.15 "gaussian variance" 4.0 var

let test_gaussian_zero_sigma () =
  let r = rng () in
  check_float "sigma 0 is deterministic" 3.0 (Prim.Rng.gaussian r ~mu:3.0 ~sigma:0.0 ())

let test_laplace_stats () =
  let r = rng () in
  let scale = 1.7 in
  let samples = Array.init n_samples (fun _ -> Prim.Rng.laplace r ~scale ()) in
  let mean, var = stats samples in
  check_float ~tol:0.05 "laplace mean" 0.0 mean;
  (* Var(Lap(b)) = 2 b^2. *)
  check_float ~tol:0.3 "laplace variance" (2. *. scale *. scale) var

let test_laplace_median_shift () =
  let r = rng () in
  let samples = Array.init n_samples (fun _ -> Prim.Rng.laplace r ~mu:5.0 ~scale:1.0 ()) in
  Array.sort compare samples;
  check_float ~tol:0.05 "laplace median = mu" 5.0 samples.(n_samples / 2)

let test_exponential_stats () =
  let r = rng () in
  let rate = 2.5 in
  let samples = Array.init n_samples (fun _ -> Prim.Rng.For_testing.exponential r ~rate) in
  let mean, _ = stats samples in
  check_float ~tol:0.02 "exponential mean" (1. /. rate) mean;
  Array.iter (fun x -> check_true "exponential non-negative" (x >= 0.)) samples

let test_gumbel_location () =
  let r = rng () in
  let samples = Array.init n_samples (fun _ -> Prim.Rng.For_testing.gumbel r ~scale:1.0) in
  let mean, _ = stats samples in
  (* E[Gumbel(0,1)] = Euler-Mascheroni. *)
  check_float ~tol:0.05 "gumbel mean" 0.5772156649 mean

let test_bernoulli () =
  let r = rng () in
  let hits = ref 0 in
  for _ = 1 to n_samples do
    if Prim.Rng.bernoulli r ~p:0.3 then incr hits
  done;
  check_float ~tol:0.02 "bernoulli rate" 0.3 (float_of_int !hits /. float_of_int n_samples);
  check_true "p=0 never" (not (Prim.Rng.bernoulli r ~p:0.0));
  check_true "p=1 always" (Prim.Rng.bernoulli r ~p:1.0);
  check_true "p clamped above 1" (Prim.Rng.bernoulli r ~p:7.0)

let test_int_range () =
  let r = rng () in
  let seen = Array.make 7 0 in
  for _ = 1 to 7000 do
    let i = Prim.Rng.int r 7 in
    seen.(i) <- seen.(i) + 1
  done;
  Array.iteri (fun i c -> check_true (Printf.sprintf "bucket %d hit" i) (c > 700)) seen

let test_categorical_log_matches () =
  let r = rng () in
  (* Huge log-weights must not overflow, and the argmax weight dominates. *)
  let log_weights = [| 1000.; 980.; 900. |] in
  let hits = ref 0 in
  for _ = 1 to 500 do
    if Prim.Rng.categorical_log r ~log_weights = 0 then incr hits
  done;
  check_true "dominant log-weight wins" (!hits > 495)

let test_shuffle_is_permutation () =
  let r = rng () in
  let a = Array.init 50 (fun i -> i) in
  Prim.Rng.For_testing.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Array.iteri (fun i x -> check_int "permutation" i x) sorted

let test_sample_without_replacement () =
  let r = rng () in
  let a = Array.init 30 (fun i -> i) in
  let s = Prim.Rng.For_testing.sample_without_replacement r ~k:10 a in
  check_int "k elements" 10 (Array.length s);
  let tbl = Hashtbl.create 10 in
  Array.iter
    (fun x ->
      check_true "distinct" (not (Hashtbl.mem tbl x));
      Hashtbl.add tbl x ())
    s

let test_sample_with_replacement () =
  let r = rng () in
  let s = Prim.Rng.sample_with_replacement r ~k:100 [| 1; 2; 3 |] in
  check_int "k elements" 100 (Array.length s);
  Array.iter (fun x -> check_true "member" (x >= 1 && x <= 3)) s

let test_gaussian_vector () =
  let r = rng () in
  let v = Prim.Rng.gaussian_vector r ~dim:10_000 ~sigma:3.0 in
  let mean, var = stats v in
  check_float ~tol:0.12 "vector mean" 0.0 mean;
  check_float ~tol:0.5 "vector variance" 9.0 var

let suite =
  [
    case "seed recorded" test_seed_of;
    case "determinism by seed" test_determinism;
    case "copy and split" test_copy_and_split;
    case "uniform bounds" test_uniform_bounds;
    case "gaussian statistics" test_gaussian_stats;
    case "gaussian sigma=0" test_gaussian_zero_sigma;
    case "laplace statistics" test_laplace_stats;
    case "laplace median shift" test_laplace_median_shift;
    case "exponential statistics" test_exponential_stats;
    case "gumbel location" test_gumbel_location;
    case "bernoulli" test_bernoulli;
    case "int range" test_int_range;
    case "categorical log stability" test_categorical_log_matches;
    case "shuffle is a permutation" test_shuffle_is_permutation;
    case "sample without replacement" test_sample_without_replacement;
    case "sample with replacement" test_sample_with_replacement;
    case "gaussian vector" test_gaussian_vector;
  ]
