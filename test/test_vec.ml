(* Vector algebra, mostly property-based. *)

open Testutil

let vec_gen = QCheck2.Gen.(array_size (int_range 1 8) (float_range (-100.) 100.))

let pair_gen =
  QCheck2.Gen.(
    int_range 1 8 >>= fun d ->
    pair (array_size (return d) (float_range (-100.) 100.))
      (array_size (return d) (float_range (-100.) 100.)))

let triple_gen =
  QCheck2.Gen.(
    int_range 1 8 >>= fun d ->
    triple
      (array_size (return d) (float_range (-100.) 100.))
      (array_size (return d) (float_range (-100.) 100.))
      (array_size (return d) (float_range (-100.) 100.)))

let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs a +. Float.abs b)

let qsuite =
  [
    qcheck "dist symmetric" pair_gen (fun (a, b) -> close (Geometry.Vec.dist a b) (Geometry.Vec.dist b a));
    qcheck "dist nonneg, zero iff equal-ish" vec_gen (fun a ->
        Geometry.Vec.dist a a = 0. && Geometry.Vec.dist a (Geometry.Vec.copy a) = 0.);
    qcheck "triangle inequality" triple_gen (fun (a, b, c) ->
        Geometry.Vec.dist a c <= Geometry.Vec.dist a b +. Geometry.Vec.dist b c +. 1e-6);
    qcheck "dist via sub/norm" pair_gen (fun (a, b) ->
        close (Geometry.Vec.dist a b) (Geometry.Vec.norm2 (Geometry.Vec.sub a b)));
    qcheck "dot symmetric" pair_gen (fun (a, b) -> close (Geometry.Vec.dot a b) (Geometry.Vec.dot b a));
    qcheck "cauchy-schwarz" pair_gen (fun (a, b) ->
        Float.abs (Geometry.Vec.dot a b) <= (Geometry.Vec.norm2 a *. Geometry.Vec.norm2 b) +. 1e-6);
    qcheck "scale linearity of norm" vec_gen (fun a ->
        close (Geometry.Vec.norm2 (Geometry.Vec.scale 3. a)) (3. *. Geometry.Vec.norm2 a));
    qcheck "add commutes" pair_gen (fun (a, b) ->
        Geometry.Vec.equal ~tol:1e-9 (Geometry.Vec.add a b) (Geometry.Vec.add b a));
    qcheck "norm ordering inf<=2<=1" vec_gen (fun a ->
        Geometry.Vec.norm_inf a <= Geometry.Vec.norm2 a +. 1e-9
        && Geometry.Vec.norm2 a <= Geometry.Vec.norm1 a +. 1e-9);
    qcheck "axpy matches add/scale" pair_gen (fun (a, b) ->
        let y = Geometry.Vec.copy b in
        Geometry.Vec.axpy 2.5 a y;
        Geometry.Vec.equal ~tol:1e-6 y (Geometry.Vec.add (Geometry.Vec.scale 2.5 a) b));
  ]

let test_mean () =
  let m = Geometry.Vec.mean [| [| 0.; 2. |]; [| 2.; 4. |]; [| 4.; 0. |] |] in
  check_float "mean x" 2. m.(0);
  check_float "mean y" 2. m.(1);
  Alcotest.check_raises "empty mean" (Invalid_argument "Vec.mean: empty") (fun () ->
      ignore (Geometry.Vec.mean [||]))

let test_normalize () =
  let v = Geometry.Vec.normalize [| 3.; 4. |] in
  check_float ~tol:1e-12 "unit norm" 1.0 (Geometry.Vec.norm2 v);
  check_float ~tol:1e-12 "direction" 0.6 v.(0);
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec.normalize: zero vector") (fun () ->
      ignore (Geometry.Vec.normalize [| 0.; 0. |]))

let test_dimension_mismatch () =
  Alcotest.check_raises "add mismatch" (Invalid_argument "Vec.add: dimension mismatch")
    (fun () -> ignore (Geometry.Vec.add [| 1. |] [| 1.; 2. |]))

let test_zero_and_of_list () =
  check_int "zero dim" 4 (Geometry.Vec.dim (Geometry.Vec.zero 4));
  check_float "zero content" 0. (Geometry.Vec.zero 4).(2);
  check_float "of_list" 2. (Geometry.Vec.of_list [ 1.; 2. ]).(1)

(* [ball_r2 r] is the largest float whose square root is at most [r]:
   [sqrt (ball_r2 r) <= r < sqrt (Float.succ (ball_r2 r))].  Radii from
   every regime: 0 and -0, subnormals (whose squares underflow), exact
   squares and their neighbours, ordinary and huge values (whose squares
   overflow) and infinity; a negative or NaN radius gives the empty ball. *)
let qcheck_ball_r2_is_the_largest_root_below =
  let radius =
    QCheck2.Gen.(
      oneof
        [
          oneofl [ 0.; -0.; infinity; max_float; 1e200; Float.min_float; 5e-324; 1.; 0.5 ];
          map Int64.float_of_bits (map Int64.of_int (int_range 1 1_000_000));
          map (fun k -> float_of_int k /. 64.) (int_range 0 100_000);
          map (fun k -> Float.succ (sqrt (float_of_int k))) (int_range 0 100_000);
          map (fun k -> Float.pred (sqrt (float_of_int k))) (int_range 1 100_000);
          float_range 0. 10.;
          map (fun e -> ldexp 1.3 e) (int_range (-1074) 1023);
          map Float.neg (float_range 1e-300 10.);
          oneofl [ neg_infinity; nan; -5e-324 ];
        ])
  in
  qcheck ~count:2000 "ball_r2: sqrt (ball_r2 r) <= r < sqrt (succ (ball_r2 r))" radius (fun r ->
      let a = Geometry.Vec.ball_r2 r in
      if r >= 0. then sqrt a <= r && (a = infinity || r < sqrt (Float.succ a))
      else a = neg_infinity)

let test_ball_r2_edges () =
  let check msg expected r =
    let got = Geometry.Vec.ball_r2 r in
    if Int64.bits_of_float got <> Int64.bits_of_float expected then
      Alcotest.failf "%s: ball_r2 %h = %h, expected %h" msg r got expected
  in
  check "0" 0. 0.;
  check "-0" 0. (-0.);
  check "smallest subnormal: its square underflows" 0. 5e-324;
  check "exact square" 9. 3.;
  (* sqrt (1 + 2^-52) rounds to 1: the linear grid's r = 1.0 tie. *)
  check "one ulp above r *. r" (Float.succ 1.) 1.;
  check "square overflows" max_float 1e200;
  check "infinity" infinity infinity;
  List.iter (check "empty ball" neg_infinity) [ -1.; -5e-324; neg_infinity; nan ]

let suite =
  qsuite
  @ [
      case "mean" test_mean;
      case "normalize" test_normalize;
      case "dimension mismatch" test_dimension_mismatch;
      case "zero / of_list" test_zero_and_of_list;
      qcheck_ball_r2_is_the_largest_root_below;
      case "ball_r2 edge values" test_ball_r2_edges;
    ]
