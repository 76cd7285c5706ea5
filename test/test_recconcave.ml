(* Quality functions, the scale-quality reduction, RecConcave and the
   monotone noisy binary search. *)

open Testutil

(* Generator for quasi-concave arrays: a non-decreasing prefix followed by a
   non-increasing suffix, built from non-negative increments. *)
let quasi_concave_gen =
  QCheck2.Gen.(
    pair (list_size (int_range 1 40) (float_range 0. 5.)) (list_size (int_range 0 40) (float_range 0. 5.))
    |> map (fun (ups, downs) ->
           let acc = ref 0. in
           let rise = List.map (fun d -> acc := !acc +. d; !acc) ups in
           let fall = List.map (fun d -> acc := !acc -. d; !acc) downs in
           Array.of_list (rise @ fall)))

(* --- Quality --- *)

let test_quality_memoization () =
  let calls = ref 0 in
  let q = Recconcave.Quality.create ~size:10 ~f:(fun i -> incr calls; float_of_int i) in
  check_float "eval" 3. (Recconcave.Quality.eval q 3);
  check_float "eval again" 3. (Recconcave.Quality.eval q 3);
  check_int "underlying called once" 1 !calls;
  check_int "evals counter" 1 (Recconcave.Quality.evals q);
  Alcotest.check_raises "range check" (Invalid_argument "Quality.eval: index out of range")
    (fun () -> ignore (Recconcave.Quality.eval q 10))

let test_quality_of_array_argmax () =
  let q = Recconcave.Quality.of_array [| 1.; 5.; 2.; 5.; 0. |] in
  check_int "first argmax" 1 (Recconcave.Quality.For_testing.argmax q);
  check_int "size" 5 (Recconcave.Quality.size q)

let test_is_quasi_concave () =
  check_true "unimodal yes"
    (Recconcave.Quality.is_quasi_concave (Recconcave.Quality.of_array [| 1.; 3.; 3.; 2. |]));
  check_true "monotone yes"
    (Recconcave.Quality.is_quasi_concave (Recconcave.Quality.of_array [| 1.; 2.; 3. |]));
  check_true "valley no"
    (not (Recconcave.Quality.is_quasi_concave (Recconcave.Quality.of_array [| 3.; 1.; 3. |])))

let qcheck_generator_is_quasi_concave =
  qcheck "generated arrays are quasi-concave" quasi_concave_gen (fun a ->
      Recconcave.Quality.is_quasi_concave (Recconcave.Quality.of_array a))

(* --- Scale_quality --- *)

let test_num_scales_width () =
  check_int "scales of 1" 1 (Recconcave.Scale_quality.num_scales 1);
  check_int "scales of 8" 4 (Recconcave.Scale_quality.num_scales 8);
  check_int "scales of 9" 5 (Recconcave.Scale_quality.num_scales 9);
  check_int "width caps at size" 9 (Recconcave.Scale_quality.width ~size:9 4);
  check_int "width 2^j" 4 (Recconcave.Scale_quality.width ~size:9 2)

let exhaustive_scale_quality a j =
  let size = Array.length a in
  let w = Recconcave.Scale_quality.width ~size j in
  let best = ref neg_infinity in
  for start = 0 to size - w do
    let m = ref infinity in
    for i = start to start + w - 1 do
      m := Float.min !m a.(i)
    done;
    if !m > !best then best := !m
  done;
  !best

let qcheck_scale_quality_matches_exhaustive =
  qcheck "L(j) = exhaustive max-min on quasi-concave arrays" ~count:100 quasi_concave_gen
    (fun a ->
      let q = Recconcave.Quality.of_array a in
      let scales = Recconcave.Scale_quality.num_scales (Array.length a) in
      List.for_all
        (fun j ->
          Float.abs (Recconcave.Scale_quality.For_testing.eval q j -. exhaustive_scale_quality a j) < 1e-9)
        (List.init scales (fun j -> j)))

let qcheck_scale_quality_monotone =
  qcheck "L non-increasing in j" quasi_concave_gen (fun a ->
      let q = Recconcave.Quality.of_array a in
      let lq = Recconcave.Scale_quality.quality q in
      let rec mono j =
        j + 1 >= Recconcave.Quality.size lq
        || (Recconcave.Quality.eval lq j >= Recconcave.Quality.eval lq (j + 1) -. 1e-9
           && mono (j + 1))
      in
      mono 0)

let test_interval_min () =
  let q = Recconcave.Quality.of_array [| 1.; 5.; 3. |] in
  Testutil.check_float "min of endpoints" 1. (Recconcave.Scale_quality.For_testing.interval_min q ~lo:0 ~hi:2);
  Testutil.check_float "single point" 5. (Recconcave.Scale_quality.For_testing.interval_min q ~lo:1 ~hi:1)

let test_scale_zero_is_max () =
  let a = [| 1.; 4.; 9.; 3. |] in
  let q = Recconcave.Quality.of_array a in
  check_float "L(0) = max Q" 9. (Recconcave.Scale_quality.For_testing.eval q 0)

(* --- Rec_concave --- *)

let test_depth_and_mechanisms () =
  check_int "small domain depth 0" 0 (Recconcave.Rec_concave.For_testing.depth 32);
  check_int "depth 1" 1 (Recconcave.Rec_concave.For_testing.depth 1000);
  check_true "depth of 2^60 domain small" (Recconcave.Rec_concave.For_testing.depth (1 lsl 60) <= 3);
  check_int "mechanisms" 3 (Recconcave.Rec_concave.For_testing.mechanism_count 1000)

let test_solve_base_case () =
  let r = rng () in
  let a = Array.init 20 (fun i -> -.Float.abs (float_of_int (i - 13)) *. 20.) in
  let report = Recconcave.Rec_concave.solve r ~eps:5.0 (Recconcave.Quality.of_array a) in
  check_int "base case is one mechanism" 1 report.Recconcave.Rec_concave.mechanisms;
  check_int "picks the peak" 13 report.Recconcave.Rec_concave.chosen

let test_solve_large_domain_quality () =
  let r = rng () in
  (* Sharply peaked quasi-concave quality over a large domain: the chosen
     solution must have near-maximal quality almost always. *)
  let size = 5000 in
  let peak = 3210 in
  let a = Array.init size (fun i -> -.Float.abs (float_of_int (i - peak))) in
  let ok = ref 0 in
  for _ = 1 to 20 do
    let report = Recconcave.Rec_concave.solve r ~eps:2.0 (Recconcave.Quality.of_array a) in
    if a.(report.Recconcave.Rec_concave.chosen) >= -60. then incr ok
  done;
  check_true (Printf.sprintf "near-peak rate %d/20" !ok) (!ok >= 18)

let qcheck_solve_respects_loss_bound =
  qcheck "quality loss within loss_bound whp" ~count:30 quasi_concave_gen (fun a ->
      let r = rng ~seed:(Hashtbl.hash a) () in
      let size = Array.length a in
      let eps = 4.0 in
      let report = Recconcave.Rec_concave.solve r ~eps (Recconcave.Quality.of_array a) in
      let bound = Recconcave.Rec_concave.loss_bound ~size ~eps ~beta:0.02 () in
      let best = Array.fold_left Float.max neg_infinity a in
      a.(report.Recconcave.Rec_concave.chosen) >= best -. bound)

let test_loss_bound_monotone () =
  let b size = Recconcave.Rec_concave.loss_bound ~size ~eps:1.0 ~beta:0.1 () in
  check_true "larger domains lose more" (b 100_000 >= b 100);
  let be eps = Recconcave.Rec_concave.loss_bound ~size:1000 ~eps ~beta:0.1 () in
  check_true "loss ~ 1/eps" (Float.abs ((be 1.0 /. be 2.0) -. 2.) < 1e-6)

let test_paper_promise_flat_in_domain () =
  let p x = Recconcave.Rec_concave.paper_promise ~eps:1.0 ~beta:0.1 ~delta:1e-6 ~domain_size:x in
  (* log* grows so slowly the promise is nearly flat between 2^16 and 2^40. *)
  check_true "log* flatness" (p (2. ** 40.) /. p (2. ** 16.) < 20.);
  check_float "log star" 4. (Recconcave.Rec_concave.For_testing.log_star 65536.)

let qcheck_cells_cover_every_interval =
  qcheck "every width-w interval is inside some cell" ~count:300
    QCheck2.Gen.(pair (int_range 2 300) (int_range 1 64))
    (fun (size, w) ->
      let w = min w size in
      let cs = Recconcave.Rec_concave.For_testing.cells ~size ~w in
      List.for_all
        (fun a ->
          List.exists (fun (lo, hi) -> lo <= a && a + w - 1 <= hi) cs)
        (List.init (size - w + 1) (fun a -> a)))

let qcheck_cells_within_domain =
  qcheck "cells stay in the domain and have width <= 2w"
    QCheck2.Gen.(pair (int_range 2 300) (int_range 1 64))
    (fun (size, w) ->
      List.for_all
        (fun (lo, hi) -> lo >= 0 && hi < size && lo <= hi && hi - lo + 1 <= 2 * w)
        (Recconcave.Rec_concave.For_testing.cells ~size ~w))

(* --- Monotone_search --- *)

let test_monotone_search_exact () =
  let r = rng () in
  (* Step function with a clear jump: search target between the levels. *)
  let a = Array.init 2000 (fun i -> if i >= 1234 then 100. else 0.) in
  let hits = ref 0 in
  for _ = 1 to 50 do
    let res =
      Recconcave.Monotone_search.solve r ~eps:5.0 ~sensitivity:1.0 ~target:50.
        (Recconcave.Quality.of_array a)
    in
    if res.Recconcave.Monotone_search.index = 1234 then incr hits
  done;
  check_true (Printf.sprintf "boundary found %d/50" !hits) (!hits >= 45)

let test_monotone_search_never_reaches () =
  let r = rng () in
  let a = Array.make 100 0. in
  let res =
    Recconcave.Monotone_search.solve r ~eps:5.0 ~sensitivity:1.0 ~target:1e6
      (Recconcave.Quality.of_array a)
  in
  check_int "tops out at last index" 99 res.Recconcave.Monotone_search.index

let test_monotone_search_accuracy_bound () =
  let b = Recconcave.Monotone_search.accuracy_bound ~size:1024 ~eps:1.0 ~sensitivity:2.0 ~beta:0.1 in
  check_true "positive and finite" (b > 0. && Float.is_finite b);
  let b2 = Recconcave.Monotone_search.accuracy_bound ~size:1024 ~eps:2.0 ~sensitivity:2.0 ~beta:0.1 in
  check_float ~tol:1e-9 "1/eps scaling" (b /. 2.) b2

let suite =
  [
    case "quality memoization" test_quality_memoization;
    case "quality of_array / argmax" test_quality_of_array_argmax;
    case "is_quasi_concave" test_is_quasi_concave;
    qcheck_generator_is_quasi_concave;
    case "num_scales / width" test_num_scales_width;
    qcheck_scale_quality_matches_exhaustive;
    qcheck_scale_quality_monotone;
    case "interval_min endpoints" test_interval_min;
    case "scale 0 is the max" test_scale_zero_is_max;
    case "depth and mechanism counts" test_depth_and_mechanisms;
    case "solve base case" test_solve_base_case;
    case "solve on a 5000-point domain" test_solve_large_domain_quality;
    qcheck_solve_respects_loss_bound;
    qcheck_cells_cover_every_interval;
    qcheck_cells_within_domain;
    case "loss bound shape" test_loss_bound_monotone;
    case "paper promise flat in |domain|" test_paper_promise_flat_in_domain;
    case "monotone search finds the jump" test_monotone_search_exact;
    case "monotone search saturates" test_monotone_search_never_reaches;
    case "monotone accuracy bound" test_monotone_search_accuracy_bound;
  ]
