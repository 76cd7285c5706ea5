(* Point sets: capped counts B̄_r, the score L(r, S), its monotonicity and
   its sensitivity-2 property (Lemma 4.5), and the distance index. *)

open Testutil

let points_gen =
  QCheck2.Gen.(
    array_size (int_range 2 40)
      (array_size (return 2) (float_range 0. 1.)))

let test_create_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Pointset.create: empty") (fun () ->
      ignore (Geometry.Pointset.create [||]));
  Alcotest.check_raises "mixed dims" (Invalid_argument "Pointset.create: mixed dimensions")
    (fun () -> ignore (Geometry.Pointset.create [| [| 1. |]; [| 1.; 2. |] |]))

let test_ball_count () =
  let ps = Geometry.Pointset.create [| [| 0.; 0. |]; [| 1.; 0. |]; [| 0.3; 0. |] |] in
  check_int "radius 0.5" 2 (Geometry.Pointset.ball_count ps ~center:[| 0.; 0. |] ~radius:0.5);
  check_int "radius 1" 3 (Geometry.Pointset.ball_count ps ~center:[| 0.; 0. |] ~radius:1.0);
  check_int "boundary inclusive" 2
    (Geometry.Pointset.ball_count ps ~center:[| 0.; 0. |] ~radius:0.3);
  check_int "capped" 1 (Geometry.Pointset.capped_ball_count ps ~cap:1 ~center:[| 0.; 0. |] ~radius:1.0);
  check_int "ball_points agrees" 2
    (Array.length (Geometry.Pointset.ball_points ps ~center:[| 0.; 0. |] ~radius:0.5))

let test_top_average () =
  check_float "top 2 of [1;5;3]" 4.0 (Geometry.Pointset.top_average [| 1.; 5.; 3. |] ~k:2);
  check_float "top all" 3.0 (Geometry.Pointset.top_average [| 1.; 5.; 3. |] ~k:3);
  Alcotest.check_raises "bad k" (Invalid_argument "Pointset.top_average: bad k") (fun () ->
      ignore (Geometry.Pointset.top_average [| 1. |] ~k:2))

let qcheck_index_matches_direct =
  qcheck "indexed L = direct L" ~count:60 points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let idx = Geometry.Pointset.build_index ps in
      let t = max 1 (Array.length pts / 3) in
      List.for_all
        (fun r ->
          Float.abs
            (Geometry.Pointset.score_l idx ~cap:t ~radius:r
            -. Geometry.Pointset.score_l_direct ps ~cap:t ~radius:r)
          < 1e-9)
        [ 0.; 0.05; 0.2; 0.7; 2.0 ])

let qcheck_l_monotone =
  qcheck "L non-decreasing in r" ~count:60 points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let idx = Geometry.Pointset.build_index ps in
      let t = max 1 (Array.length pts / 2) in
      let radii = [ 0.; 0.01; 0.1; 0.3; 0.9; 1.5 ] in
      let scores = List.map (fun r -> Geometry.Pointset.score_l idx ~cap:t ~radius:r) radii in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono scores)

(* Lemma 4.5: |L(r, S) − L(r, S')| ≤ 2 for S, S' differing in one point. *)
let qcheck_l_sensitivity_two =
  qcheck "L sensitivity <= 2 (Lemma 4.5)" ~count:80
    QCheck2.Gen.(
      triple points_gen (array_size (return 2) (float_range 0. 1.)) (float_range 0. 1.))
    (fun (pts, replacement, r) ->
      let n = Array.length pts in
      let t = max 1 (n / 3) in
      let ps = Geometry.Pointset.create pts in
      let pts' = Array.copy pts in
      pts'.(n - 1) <- replacement;
      let ps' = Geometry.Pointset.create pts' in
      let l = Geometry.Pointset.score_l_direct ps ~cap:t ~radius:r in
      let l' = Geometry.Pointset.score_l_direct ps' ~cap:t ~radius:r in
      Float.abs (l -. l') <= 2. +. 1e-9)

let qcheck_l_bounds =
  qcheck "0 <= L <= t and L(diam) = min n t" ~count:60 points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let n = Array.length pts in
      let t = max 1 (n / 2) in
      let l r = Geometry.Pointset.score_l_direct ps ~cap:t ~radius:r in
      l 0. >= 0.
      && l 0. <= float_of_int t +. 1e-9
      && Float.abs (l 10. -. float_of_int (min n t)) < 1e-9)

let test_counts_within () =
  let pts = [| [| 0. |]; [| 0.1 |]; [| 0.2 |]; [| 0.9 |] |] in
  let idx = Geometry.Pointset.build_index (Geometry.Pointset.create pts) in
  let counts = Geometry.Pointset.counts_within idx ~radius:0.15 in
  Alcotest.(check (array int)) "counts" [| 2; 3; 2; 1 |] counts;
  let zero = Geometry.Pointset.counts_within idx ~radius:(-1.) in
  Alcotest.(check (array int)) "negative radius" [| 0; 0; 0; 0 |] zero;
  (* [holds_at_least] is the per-point [counts_within .. >= k], on both
     backends. *)
  let tree = Geometry.Pointset.build_tree_index (Geometry.Pointset.create pts) in
  List.iter
    (fun radius ->
      let counts = Geometry.Pointset.counts_within idx ~radius in
      List.iter
        (fun index ->
          Array.iteri
            (fun i c ->
              for k = 1 to Array.length pts do
                check_true
                  (Printf.sprintf "holds_at_least r=%g i=%d k=%d" radius i k)
                  (Geometry.Pointset.holds_at_least index ~radius ~k i = (c >= k))
              done)
            counts)
        [ idx; tree ])
    [ -1.; 0.; 0.1; 0.15; 0.2; 1. ]

(* The two backends test ball membership differently: a dense row holds
   [sqrt acc] and counts [sqrt acc <= r]; the k-d tree counts
   [acc <= r *. r].  Rounding can split the two (DESIGN.md §6: on these
   planted sets the linear grid's r = 1.0 does, for seeds 3 and 4).  On
   the geometric grid, the engine's default, they must agree exactly. *)
let test_backends_agree_on_geometric_grid () =
  List.iter
    (fun seed ->
      let _, grid, w = small_workload ~seed ~n:1500 ~axis:256 ~radius:0.05 () in
      let ps = Geometry.Pointset.create w.Workload.Synth.points in
      let dense = Geometry.Pointset.build_index ps in
      let tree = Geometry.Pointset.build_tree_index ps in
      for j = 0 to Geometry.Grid.geometric_candidates grid - 1 do
        let radius = Geometry.Grid.geometric_radius_of_index grid j in
        Alcotest.(check (array int))
          (Printf.sprintf "seed %d, r = %h" seed radius)
          (Geometry.Pointset.counts_within dense ~radius)
          (Geometry.Pointset.counts_within tree ~radius)
      done)
    [ 1; 2; 3; 4 ]

let test_kth_neighbor () =
  let pts = [| [| 0. |]; [| 0.3 |]; [| 1.0 |] |] in
  let idx = Geometry.Pointset.build_index (Geometry.Pointset.create pts) in
  check_float "1st neighbor is self" 0.0 (Geometry.Pointset.kth_neighbor_distance idx ~k:1 0);
  check_float "2nd neighbor" 0.3 (Geometry.Pointset.kth_neighbor_distance idx ~k:2 0);
  check_float "3rd neighbor" 1.0 (Geometry.Pointset.kth_neighbor_distance idx ~k:3 0);
  Alcotest.check_raises "bad k" (Invalid_argument "Pointset.kth_neighbor_distance: bad k")
    (fun () -> ignore (Geometry.Pointset.kth_neighbor_distance idx ~k:4 0))

let test_subset_filter_map () =
  let ps = Geometry.Pointset.create [| [| 0. |]; [| 1. |]; [| 2. |] |] in
  let sub = Geometry.Pointset.subset ps ~indices:[| 2; 0 |] in
  check_int "subset size" 2 (Geometry.Pointset.n sub);
  check_float "subset order" 2. (Geometry.Pointset.point sub 0).(0);
  let filtered = Geometry.Pointset.filter (fun p -> p.(0) > 0.5) ps in
  check_int "filter" 2 (Geometry.Pointset.n filtered);
  check_float "filter keeps order" 1. (Geometry.Pointset.point filtered 0).(0);
  let mapped = Geometry.Pointset.map_points (Geometry.Vec.scale 2.) ps in
  check_float "map" 4. (Geometry.Pointset.point mapped 2).(0)

let suite =
  [
    case "create validation" test_create_validation;
    case "ball counts" test_ball_count;
    case "top average" test_top_average;
    qcheck_index_matches_direct;
    qcheck_l_monotone;
    qcheck_l_sensitivity_two;
    qcheck_l_bounds;
    case "counts_within" test_counts_within;
    case "dense and tree counts agree on the geometric grid" test_backends_agree_on_geometric_grid;
    case "kth neighbor distance" test_kth_neighbor;
    case "subset / filter / map" test_subset_filter_map;
  ]
