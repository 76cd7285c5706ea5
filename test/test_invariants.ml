(* Cross-cutting property tests: invariants the privacy/utility proofs rely
   on that are not tied to a single module's suite. *)

open Testutil

let vec2_gen = QCheck2.Gen.(array_size (QCheck2.Gen.return 2) (float_range 0. 1.))

let qcheck_grid_snap_idempotent =
  qcheck "grid snap is idempotent" vec2_gen (fun v ->
      let g = Geometry.Grid.create ~axis_size:37 ~dim:2 in
      let s = Geometry.Grid.snap g v in
      Geometry.Vec.For_testing.equal ~tol:1e-12 s (Geometry.Grid.snap g s))

let qcheck_grid_snap_moves_at_most_half_step =
  qcheck "snap moves each coordinate at most step/2" vec2_gen (fun v ->
      let g = Geometry.Grid.create ~axis_size:37 ~dim:2 in
      let s = Geometry.Grid.snap g v in
      let h = Geometry.Grid.step g in
      Array.for_all2 (fun a b -> Float.abs (a -. b) <= (h /. 2.) +. 1e-12) v s)

let qcheck_domain_round_trip =
  qcheck "domain of_unit . to_unit moves points at most one grid step"
    QCheck2.Gen.(pair (float_range (-5.) 45.) (float_range 100. 140.))
    (fun (x, y) ->
      let dom = Privcluster.Domain.create ~lo:[| -10.; 95. |] ~hi:[| 50.; 145. |] ~axis_size:512 in
      let p = [| x; y |] in
      let back = Privcluster.Domain.For_testing.of_unit dom (Privcluster.Domain.For_testing.to_unit dom p) in
      let step_data =
        Privcluster.Domain.For_testing.radius_of_unit dom (Geometry.Grid.step (Privcluster.Domain.For_testing.grid dom))
      in
      Geometry.Vec.dist back p <= step_data +. 1e-9)

let qcheck_kmeans_canonical_is_sorted_permutation =
  qcheck "canonical_order: sorted permutation of the input"
    QCheck2.Gen.(array_size (int_range 1 8) vec2_gen)
    (fun centers ->
      let c = Geometry.Kmeans.For_testing.canonical_order centers in
      let sorted_pairs a = List.sort compare (Array.to_list (Array.map Array.to_list a)) in
      sorted_pairs c = sorted_pairs centers
      &&
      let rec mono i =
        i + 1 >= Array.length c || (Array.to_list c.(i) <= Array.to_list c.(i + 1) && mono (i + 1))
      in
      mono 0)

let qcheck_zcdp_conversion_monotone =
  qcheck "zCDP->DP conversion is monotone in rho" QCheck2.Gen.(pair (float_range 0.001 2.) (float_range 0.001 2.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Prim.Dp.eps (Prim.Zcdp.to_dp lo ~delta:1e-6) <= Prim.Dp.eps (Prim.Zcdp.to_dp hi ~delta:1e-6) +. 1e-12)

(* Observation A.2: NoisyAVG with a predicate whose accepted set is a ball
   not centered at the origin behaves like the shifted problem — the
   released average is equivariant under translation (same rng stream). *)
let test_noisy_avg_shift_equivariance () =
  let shift = [| 10.; -3. |] in
  let vs = Array.init 800 (fun i -> [| 0.4 +. (float_of_int (i mod 7) /. 100.); 0.6 |]) in
  let vs_shifted = Array.map (Geometry.Vec.add shift) vs in
  let run rng_seed vectors ~center =
    let r = rng ~seed:rng_seed () in
    Prim.Noisy_avg.run r ~eps:1.0 ~delta:1e-6 ~diameter:0.5
      ~pred:(fun v -> Geometry.Vec.dist v center <= 0.25)
      ~dim:2 vectors
  in
  match (run 7 vs ~center:[| 0.45; 0.6 |], run 7 vs_shifted ~center:[| 10.45; -2.4 |]) with
  | Prim.Noisy_avg.Average a, Prim.Noisy_avg.Average b ->
      check_true "same noise, shifted mean"
        (Geometry.Vec.For_testing.equal ~tol:1e-9
           (Geometry.Vec.add a.Prim.Noisy_avg.average shift)
           b.Prim.Noisy_avg.average);
      check_float ~tol:1e-12 "same sigma" a.Prim.Noisy_avg.sigma b.Prim.Noisy_avg.sigma
  | _ -> Alcotest.fail "unexpected bottom"

let test_rec_concave_deterministic_by_seed () =
  let a = Array.init 3000 (fun i -> -.Float.abs (float_of_int (i - 1700))) in
  let run seed =
    (Recconcave.Rec_concave.solve (rng ~seed ()) ~eps:1.0 (Recconcave.Quality.of_array a))
      .Recconcave.Rec_concave.chosen
  in
  check_int "same seed, same choice" (run 5) (run 5)

let qcheck_boxing_diameter_bounds_points =
  qcheck "any two points of one box are within the l2 diameter" ~count:100
    QCheck2.Gen.(pair vec2_gen vec2_gen)
    (fun (a, b) ->
      let boxing =
        Geometry.Boxing.For_testing.of_partitions
          [| Geometry.Interval.For_testing.fixed ~shift:0.05 ~len:0.3; Geometry.Interval.For_testing.fixed ~shift:0.1 ~len:0.2 |]
      in
      Geometry.Boxing.For_testing.key_of boxing a <> Geometry.Boxing.For_testing.key_of boxing b
      || Geometry.Vec.dist a b <= Geometry.Boxing.For_testing.l2_diameter boxing +. 1e-9)

let qcheck_gamma_monotone_in_domain =
  qcheck "GoodRadius Gamma is monotone in |X|" ~count:30 QCheck2.Gen.(int_range 3 12)
    (fun bits ->
      let g axis =
        Privcluster.Good_radius.gamma Privcluster.Profile.practical
          ~grid:(Geometry.Grid.create ~axis_size:axis ~dim:2)
          ~eps:1.0 ~delta:1e-6 ~beta:0.1
      in
      g (1 lsl bits) <= g (1 lsl (bits + 1)) +. 1e-9)

let suite =
  [
    qcheck_grid_snap_idempotent;
    qcheck_grid_snap_moves_at_most_half_step;
    qcheck_domain_round_trip;
    qcheck_kmeans_canonical_is_sorted_permutation;
    qcheck_zcdp_conversion_monotone;
    case "noisy-avg shift equivariance (Obs A.2)" test_noisy_avg_shift_equivariance;
    case "rec-concave deterministic by seed" test_rec_concave_deterministic_by_seed;
    qcheck_boxing_diameter_bounds_points;
    qcheck_gamma_monotone_in_domain;
  ]
