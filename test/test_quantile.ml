(* Private quantiles via RecConcave. *)

open Testutil

let grid = Geometry.Grid.create ~axis_size:512 ~dim:1

let test_median_accuracy () =
  let r = rng ~seed:3 () in
  let values = Array.init 4000 (fun i -> float_of_int i /. 8000.) in
  (* True median 0.25. *)
  let res = Privcluster.Quantile.For_testing.median r ~grid ~eps:2.0 values in
  check_in_range "median close" ~lo:0.22 ~hi:0.28 res.Privcluster.Quantile.value;
  check_float "target rank" 2000. res.Privcluster.Quantile.target_rank

let test_extreme_quantiles () =
  let r = rng ~seed:5 () in
  let values = Array.init 3000 (fun _ -> 0.3 +. Prim.Rng.float r 0.4) in
  let q10 = Privcluster.Quantile.quantile r ~grid ~eps:2.0 ~q:0.1 values in
  let q90 = Privcluster.Quantile.quantile r ~grid ~eps:2.0 ~q:0.9 values in
  check_true "order" (q10.Privcluster.Quantile.value <= q90.Privcluster.Quantile.value);
  check_in_range "q10 plausible" ~lo:0.25 ~hi:0.45 q10.Privcluster.Quantile.value;
  check_in_range "q90 plausible" ~lo:0.55 ~hi:0.75 q90.Privcluster.Quantile.value

let test_rank_error_within_bound () =
  let r = rng ~seed:7 () in
  let eps = 1.0 in
  let bound = Privcluster.Quantile.rank_error_bound ~grid ~eps ~beta:0.05 () in
  let violations = ref 0 in
  for _ = 1 to 30 do
    let values = Array.init 3000 (fun _ -> Prim.Rng.float r 1.0) in
    let res = Privcluster.Quantile.quantile r ~grid ~eps ~q:0.5 values in
    let rank =
      Array.fold_left
        (fun acc x -> if x <= res.Privcluster.Quantile.value then acc + 1 else acc)
        0 values
    in
    if Float.abs (float_of_int rank -. res.Privcluster.Quantile.target_rank) > bound then
      incr violations
  done;
  check_true "rank errors within the certified bound" (!violations <= 2)

let test_iqr () =
  let r = rng ~seed:9 () in
  let values = Array.init 4000 (fun _ -> Prim.Rng.float r 1.0) in
  let lo, hi = Privcluster.Quantile.For_testing.interquartile_range r ~grid ~eps:4.0 values in
  check_in_range "q25" ~lo:0.18 ~hi:0.32 lo;
  check_in_range "q75" ~lo:0.68 ~hi:0.82 hi

let test_validation () =
  let r = rng () in
  let grid2 = Geometry.Grid.create ~axis_size:16 ~dim:2 in
  Alcotest.check_raises "1-D only" (Invalid_argument "Quantile.quantile: grid must be 1-D")
    (fun () -> ignore (Privcluster.Quantile.quantile r ~grid:grid2 ~eps:1. ~q:0.5 [| 0.5 |]));
  Alcotest.check_raises "q range" (Invalid_argument "Quantile.quantile: q must be in [0, 1]")
    (fun () -> ignore (Privcluster.Quantile.quantile r ~grid ~eps:1. ~q:1.5 [| 0.5 |]))

(* --- GUPT baseline --- *)

let test_gupt_end_to_end () =
  let r = rng ~seed:11 () in
  let grid2 = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let truth = [| 0.4; 0.6 |] in
  let data =
    Array.init 20_000 (fun _ ->
        Array.map (fun c -> c +. Prim.Rng.gaussian r ~sigma:0.05 ()) truth)
  in
  let res = Baselines.Gupt.run r ~grid:grid2 ~eps:1.0 ~delta:1e-6 ~m:10 ~f:Geometry.Vec.mean data in
  check_int "blocks" 2000 res.Baselines.Gupt.blocks;
  check_true "estimate near truth" (Geometry.Vec.dist res.Baselines.Gupt.estimate truth < 0.05)

let test_gupt_validation () =
  let r = rng () in
  let grid2 = Geometry.Grid.create ~axis_size:16 ~dim:1 in
  Alcotest.check_raises "two blocks" (Invalid_argument "Gupt.run: need at least two blocks")
    (fun () ->
      ignore
        (Baselines.Gupt.run r ~grid:grid2 ~eps:1. ~delta:1e-6 ~m:10
           ~f:(fun _ -> [| 0.5 |])
           (Array.make 15 0.)))

(* [rank_count] against the fold it replaced, over values with NaNs,
   signed zeros, infinities and ties, probed at the values themselves,
   their float neighbours, grid-like points, NaN and the infinities. *)
let qcheck_rank_count_matches_fold =
  let value =
    QCheck2.Gen.(
      frequency
        [
          (6, float_range (-2.) 2.);
          (3, oneofl [ 0.; -0.; 0.5; 1.; -1.; 0.25 ]);
          (1, oneofl [ Float.nan; infinity; neg_infinity ]);
        ])
  in
  qcheck "rank_count = the counting fold, NaN, signed zeros and ties included"
    QCheck2.Gen.(pair (array_size (int_range 0 60) value) (array_size (int_range 0 20) value))
    (fun (values, extra) ->
      let fold v = Array.fold_left (fun acc x -> if x <= v then acc + 1 else acc) 0 values in
      let rank = Privcluster.Quantile.For_testing.rank_count values in
      let probes =
        Array.concat
          [
            values;
            extra;
            Array.map Float.pred values;
            Array.map Float.succ values;
            Array.init 9 (fun i -> float_of_int (i - 4) *. 0.5);
            [| Float.nan; infinity; neg_infinity; 0.; -0. |];
          ]
      in
      Array.for_all (fun v -> rank v = fold v) probes)


(* A regression guard on [rank_count]'s allocation: the NaN filter and
   the sort keep every value unboxed, so at n = 4200 the minor heap sees
   only the returned closure (a [Float.compare] sort after a [Seq] filter
   took 429k words). *)
let test_rank_count_minor_words () =
  let r = rng ~seed:13 () in
  let values = Array.init 4200 (fun _ -> Prim.Rng.float r 1.) in
  let w0 = Gc.minor_words () in
  let rank = Privcluster.Quantile.For_testing.rank_count values in
  let words = Gc.minor_words () -. w0 in
  check_int "rank of 1" 4200 (rank 1.);
  if words >= 50_000. then Alcotest.failf "rank_count at n = 4200: %.0f minor words" words

let suite =
  [
    case "median accuracy" test_median_accuracy;
    case "extreme quantiles" test_extreme_quantiles;
    slow_case "rank error within certified bound" test_rank_error_within_bound;
    case "interquartile range" test_iqr;
    case "validation" test_validation;
    case "gupt end to end" test_gupt_end_to_end;
    case "gupt validation" test_gupt_validation;
    qcheck_rank_count_matches_fold;
    case "rank_count allocates under 50k minor words at n = 4200" test_rank_count_minor_words;
  ]
