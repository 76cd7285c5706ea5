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
      Geometry.Seb.count_inside b pts >= t)

let points_gen =
  QCheck2.Gen.(array_size (int_range 3 25) (array_size (return 2) (float_range 0. 1.)))

let qcheck_two_approx_feasible =
  qcheck "two_approx ball contains t points" points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let t = max 1 (Array.length pts / 2) in
      let b = Geometry.Seb.two_approx ps ~t in
      Geometry.Seb.count_inside b pts >= t)

let qcheck_two_approx_indexed_matches =
  qcheck "two_approx indexed = direct" points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let t = max 1 (Array.length pts / 2) in
      let a = Geometry.Seb.two_approx ps ~t in
      let b = Geometry.Seb.two_approx_indexed (Geometry.Pointset.build_index ps) ~t in
      Float.abs (a.Geometry.Seb.radius -. b.Geometry.Seb.radius) < 1e-9)

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

(* Coordinates snapped to a 4-step grid, so points repeat and the t-th
   neighbor distance is often exactly 0. *)
let snapped_gen ~lo ~hi =
  QCheck2.Gen.(
    array_size (int_range lo hi)
      (array_size (return 2) (map (fun k -> float_of_int k /. 3.) (int_range 0 3))))

(* A tree-backed index over [pts] reached through incremental maintenance:
   built over the first half of [pts] plus [extra], grown by the second
   half with [Kdtree.insert_bulk], then stripped of [extra] with
   [Kdtree.remove_bulk]. *)
let maintained_tree_index pts extra =
  let n = Array.length pts and m = Array.length extra in
  let storage = Array.concat (Array.to_list (Array.append pts extra)) in
  let off i = 2 * i in
  let half = n / 2 in
  let tree =
    Geometry.Kdtree.build_flat ~storage
      ~offs:(Array.append (Array.init half off) (Array.init m (fun j -> off (n + j))))
      ~dim:2 ()
  in
  let tree =
    Geometry.Kdtree.insert_bulk tree ~offs:(Array.init (n - half) (fun j -> off (half + j)))
  in
  let tree = Geometry.Kdtree.remove_bulk tree ~dead:(fun o -> o >= off n) in
  let ps = Geometry.Pointset.view ~storage ~offs:(Array.init n off) ~dim:2 in
  Geometry.Pointset.index_of_tree ps tree

let same_ball (a : Geometry.Seb.ball) (b : Geometry.Seb.ball) =
  let bits = Int64.bits_of_float in
  bits a.radius = bits b.radius
  && Array.for_all2 (fun x y -> bits x = bits y) a.center b.center

let qcheck_pruned_scan_bit_identical =
  qcheck "pruned two_approx_indexed = unpruned scan, bit for bit (fresh and maintained tree)"
    QCheck2.Gen.(pair (snapped_gen ~lo:3 ~hi:40) (snapped_gen ~lo:0 ~hi:10))
    (fun (pts, extra) ->
      let ps = Geometry.Pointset.create pts in
      let n = Array.length pts in
      let indexes =
        [ Geometry.Pointset.build_index ps; maintained_tree_index pts extra ]
      in
      List.for_all
        (fun idx ->
          List.for_all
            (fun t ->
              same_ball (Geometry.Seb.two_approx_indexed idx ~t) (two_approx_unpruned idx ~t))
            [ 1; (n + 1) / 2; n ])
        indexes)

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
      let b = Geometry.Seb.min_enclosing_ball pts in
      Geometry.Seb.count_inside b pts = Array.length pts)

let test_meb_approximation () =
  (* Points on a circle of radius 1: MEB radius must approach 1. *)
  let n = 60 in
  let pts =
    Array.init n (fun i ->
        let a = 2. *. Float.pi *. float_of_int i /. float_of_int n in
        [| cos a; sin a |])
  in
  let b = Geometry.Seb.min_enclosing_ball ~iterations:500 pts in
  check_in_range "circle MEB radius" ~lo:1.0 ~hi:1.15 b.Geometry.Seb.radius

let qcheck_t_ball_heuristic =
  qcheck "t_ball_heuristic feasible and never worse than 2-approx" points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let t = max 1 (Array.length pts / 2) in
      let h = Geometry.Seb.t_ball_heuristic ps ~t in
      let a = Geometry.Seb.two_approx ps ~t in
      Geometry.Seb.count_inside h pts >= t
      && h.Geometry.Seb.radius <= a.Geometry.Seb.radius +. 1e-9)

let test_validation () =
  Alcotest.check_raises "exact_1d t range" (Invalid_argument "Seb.exact_1d: t must be in [1, n]")
    (fun () -> ignore (Geometry.Seb.exact_1d [| 1.; 2. |] ~t:3));
  Alcotest.check_raises "meb empty" (Invalid_argument "Seb.min_enclosing_ball: empty")
    (fun () -> ignore (Geometry.Seb.min_enclosing_ball [||]))

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
