(* Enclosing-ball reference solvers. *)

open Testutil

let coords_gen = QCheck2.Gen.(array_size (int_range 3 30) (float_range 0. 1.))

(* Brute-force smallest interval over all index pairs. *)
let brute_1d coords t =
  let sorted = Array.copy coords in
  Array.sort compare sorted;
  let best = ref infinity in
  let n = Array.length sorted in
  for i = 0 to n - t do
    best := Float.min !best (sorted.(i + t - 1) -. sorted.(i))
  done;
  !best /. 2.

let qcheck_exact_1d =
  qcheck "exact_1d matches brute force" coords_gen (fun coords ->
      let t = max 1 (Array.length coords / 2) in
      let b = Geometry.Seb.exact_1d coords ~t in
      Float.abs (b.Geometry.Seb.radius -. brute_1d coords t) < 1e-9)

let qcheck_exact_1d_feasible =
  qcheck "exact_1d ball contains t points" coords_gen (fun coords ->
      let t = max 1 (Array.length coords / 2) in
      let b = Geometry.Seb.exact_1d coords ~t in
      let pts = Array.map (fun x -> [| x |]) coords in
      Geometry.Seb.For_testing.count_inside b pts >= t)

let points_gen =
  QCheck2.Gen.(array_size (int_range 3 25) (array_size (return 2) (float_range 0. 1.)))

let qcheck_two_approx_feasible =
  qcheck "two_approx ball contains t points" points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let t = max 1 (Array.length pts / 2) in
      let b = Geometry.Seb.two_approx ps ~t in
      Geometry.Seb.For_testing.count_inside b pts >= t)

(* The unpruned scan [two_approx_indexed] replaced: every point's t-th
   neighbor distance, strict [<], first index wins. *)
let two_approx_unpruned idx ~t =
  let ps = Geometry.Pointset.index_pointset idx in
  let best = ref infinity and best_i = ref 0 in
  for i = 0 to Geometry.Pointset.n ps - 1 do
    let r = Geometry.Pointset.kth_neighbor_distance idx ~k:t i in
    if r < !best then begin
      best := r;
      best_i := i
    end
  done;
  { Geometry.Seb.center = Geometry.Pointset.point ps !best_i; radius = !best }

let same_ball (a : Geometry.Seb.ball) (b : Geometry.Seb.ball) =
  let bits = Int64.bits_of_float in
  bits a.radius = bits b.radius
  && Array.for_all2 (fun x y -> bits x = bits y) a.center b.center

let qcheck_two_approx_indexed_matches =
  qcheck "two_approx indexed = direct" points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let n = Array.length pts in
      List.for_all
        (fun t ->
          same_ball (Geometry.Seb.two_approx ps ~t)
            (two_approx_unpruned (Geometry.Pointset.build_index ps) ~t))
        [ 1; max 1 (n / 2); n ])

(* Coordinates snapped to a 4-step grid, so points repeat and the t-th
   neighbor distance is often exactly 0. *)
let snapped_gen ~lo ~hi =
  QCheck2.Gen.(
    array_size (int_range lo hi)
      (array_size (return 2) (map (fun k -> float_of_int k /. 3.) (int_range 0 3))))

(* The scan must not depend on the index's memoized sweep: each case runs
   on a cold memo, then on memos over two ascending grids up to the
   diameter — every pair distance (radii exactly on the t-th distances)
   and a coarse grid — then on a memo over a short grid just below the
   smallest t-th distance, which no point reaches. *)
let qcheck_pruned_scan_bit_identical =
  qcheck "pruned two_approx_indexed = unpruned scan, bit for bit" (snapped_gen ~lo:3 ~hi:40)
    (fun pts ->
      let base = Geometry.Pointset.build_index (Geometry.Pointset.create pts) in
      let n = Array.length pts in
      let pair_dists =
        List.init n (fun i ->
            List.init n (fun k -> Geometry.Pointset.kth_neighbor_distance base ~k:(k + 1) i))
        |> List.concat |> List.sort_uniq Float.compare |> Array.of_list
      in
      let warm idx radii =
        ignore (Geometry.Pointset.score_l_many idx ~cap:n ~radii);
        if not (Geometry.Pointset.For_testing.memo_holds idx ~radii) then
          QCheck2.Test.fail_report "memo not warmed"
      in
      List.for_all
        (fun t ->
          let idx = Geometry.Pointset.cold_copy base in
          let expect = two_approx_unpruned idx ~t in
          let same () = same_ball (Geometry.Seb.two_approx_indexed idx ~t) expect in
          let cold = same () in
          warm idx pair_dists;
          let exact = same () in
          warm idx [| 0.; 0.25; 0.5; 1.; 1.5 |];
          let coarse = same () in
          let r_min = expect.Geometry.Seb.radius in
          let short = if r_min > 0. then [| r_min /. 2.; Float.pred r_min |] else [| 0. |] in
          warm idx short;
          cold && exact && coarse && same ())
        [ 1; (n + 1) / 2; n ])

let test_two_approx_factor () =
  (* In 1-D the exact optimum is available: check radius <= 2·r_opt. *)
  let r = rng () in
  for _ = 1 to 50 do
    let coords = Array.init 40 (fun _ -> Prim.Rng.float r 1.0) in
    let t = 20 in
    let exact = Geometry.Seb.exact_1d coords ~t in
    let ps = Geometry.Pointset.create (Array.map (fun x -> [| x |]) coords) in
    let approx = Geometry.Seb.two_approx ps ~t in
    check_true "2-approximation factor"
      (approx.Geometry.Seb.radius <= (2. *. exact.Geometry.Seb.radius) +. 1e-9)
  done

let qcheck_meb_contains_all =
  qcheck "min_enclosing_ball contains everything" points_gen (fun pts ->
      let b = Geometry.Seb.For_testing.min_enclosing_ball pts in
      Geometry.Seb.For_testing.count_inside b pts = Array.length pts)

let test_meb_approximation () =
  (* Points on a circle of radius 1: MEB radius must approach 1. *)
  let n = 60 in
  let pts =
    Array.init n (fun i ->
        let a = 2. *. Float.pi *. float_of_int i /. float_of_int n in
        [| cos a; sin a |])
  in
  let b = Geometry.Seb.For_testing.min_enclosing_ball ~iterations:500 pts in
  check_in_range "circle MEB radius" ~lo:1.0 ~hi:1.15 b.Geometry.Seb.radius

let qcheck_t_ball_heuristic =
  qcheck "t_ball_heuristic feasible and never worse than 2-approx" points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let t = max 1 (Array.length pts / 2) in
      let h = Geometry.Seb.t_ball_heuristic ps ~t in
      let a = Geometry.Seb.two_approx ps ~t in
      Geometry.Seb.For_testing.count_inside h pts >= t
      && h.Geometry.Seb.radius <= a.Geometry.Seb.radius +. 1e-9)

let test_validation () =
  Alcotest.check_raises "exact_1d t range" (Invalid_argument "Seb.exact_1d: t must be in [1, n]")
    (fun () -> ignore (Geometry.Seb.exact_1d [| 1.; 2. |] ~t:3));
  Alcotest.check_raises "meb empty" (Invalid_argument "Seb.min_enclosing_ball: empty")
    (fun () -> ignore (Geometry.Seb.For_testing.min_enclosing_ball [||]))

let suite =
  [
    qcheck_exact_1d;
    qcheck_exact_1d_feasible;
    qcheck_two_approx_feasible;
    qcheck_two_approx_indexed_matches;
    case "two_approx 2x factor (1-D reference)" test_two_approx_factor;
    qcheck_meb_contains_all;
    case "MEB on a circle" test_meb_approximation;
    qcheck_t_ball_heuristic;
    case "validation" test_validation;
    qcheck_pruned_scan_bit_identical;
  ]
