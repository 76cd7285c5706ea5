(* The k-d tree, checked against brute force, plus the tree-backed
   Pointset index. *)

open Testutil

let brute_count pts center radius =
  Array.fold_left
    (fun acc p -> if Geometry.Vec.dist p center <= radius then acc + 1 else acc)
    0 pts

let random_points r ~n ~d = Array.init n (fun _ -> Prim.Rng.gaussian_vector r ~dim:d ~sigma:1.0)

let qcheck_count_matches_brute =
  qcheck "count_within = brute force" ~count:100
    QCheck2.Gen.(
      triple (int_range 1 120) (int_range 1 4) (float_range 0. 2.))
    (fun (n, d, radius) ->
      let r = rng ~seed:(n + (d * 1000)) () in
      let pts = random_points r ~n ~d in
      let tree = Geometry.Kdtree.build pts in
      let center = Prim.Rng.gaussian_vector r ~dim:d ~sigma:1.0 in
      Geometry.Kdtree.count_within tree ~center ~radius = brute_count pts center radius)

let test_build_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Kdtree.build: empty") (fun () ->
      ignore (Geometry.Kdtree.build [||]));
  Alcotest.check_raises "mixed" (Invalid_argument "Kdtree.build: mixed dimensions") (fun () ->
      ignore (Geometry.Kdtree.build [| [| 1. |]; [| 1.; 2. |] |]))

let test_size_dim () =
  let r = rng () in
  let tree = Geometry.Kdtree.build (random_points r ~n:321 ~d:3) in
  check_int "size" 321 (Geometry.Kdtree.size tree);
  check_int "dim" 3 (Geometry.Kdtree.dim tree)

let test_duplicates () =
  (* Heavy duplication exercises the zero-width-split fallback. *)
  let pts = Array.init 200 (fun i -> if i < 150 then [| 0.5; 0.5 |] else [| 0.9; 0.1 |]) in
  let tree = Geometry.Kdtree.build pts in
  check_int "duplicates counted" 150
    (Geometry.Kdtree.count_within tree ~center:[| 0.5; 0.5 |] ~radius:0.);
  check_int "all" 200 (Geometry.Kdtree.count_within tree ~center:[| 0.5; 0.5 |] ~radius:2.);
  (* A large cloud whose first 100 rows coincide: here the zero-width box
     turns up several levels down rather than at the root. *)
  let r = rng ~seed:91 () in
  let n = 4000 and d = 3 in
  let st = Array.init (n * d) (fun i -> if i < 300 then 0.25 else Prim.Rng.float r 1.0) in
  let pts = Array.init n (fun i -> Array.sub st (i * d) d) in
  let tree = Geometry.Kdtree.build pts in
  List.iter
    (fun c ->
      List.iter
        (fun radius ->
          check_int
            (Printf.sprintf "large cloud, center %d, r=%g" c radius)
            (brute_count pts pts.(c) radius)
            (Geometry.Kdtree.count_within tree ~center:pts.(c) ~radius))
        [ 0.; 0.05; 0.5 ])
    [ 0; n - 1 ]

let test_negative_radius () =
  let tree = Geometry.Kdtree.build [| [| 0. |] |] in
  check_int "negative radius empty" 0
    (Geometry.Kdtree.count_within tree ~center:[| 0. |] ~radius:(-1.))

(* --- Tree-backed Pointset index --- *)

(* Against the rows a dense distance index would hold
   ([sorted_dist_rows]), bit for bit. *)
let test_tree_index_matches_dense () =
  let r = rng () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:2 in
  let w = Workload.Synth.planted_ball r ~grid ~n:500 ~cluster_fraction:0.4 ~cluster_radius:0.06 in
  let pts = w.Workload.Synth.points in
  let rows = sorted_dist_rows pts in
  let tree = Geometry.Pointset.build_index (Geometry.Pointset.create pts) in
  List.iter
    (fun radius ->
      Alcotest.(check (array int))
        (Printf.sprintf "counts at r=%.2f" radius)
        (Array.map (fun row -> Array.fold_left (fun c x -> if x <= radius then c + 1 else c) 0 row) rows)
        (Geometry.Pointset.counts_within tree ~radius))
    [ 0.; 0.03; 0.1; 0.5 ];
  for i = 0 to 20 do
    List.iter
      (fun k ->
        if
          Int64.bits_of_float rows.(i).(k - 1)
          <> Int64.bits_of_float (Geometry.Pointset.kth_neighbor_distance tree ~k i)
        then Alcotest.failf "kth neighbor of %d, k = %d" i k)
      [ 1; 50; 500 ]
  done

(* The names the end-to-end driver still calls: every index is the tree. *)
let test_auto_index () =
  let r = rng () in
  let ps = Geometry.Pointset.create (random_points r ~n:100 ~d:2) in
  let idx = Geometry.Pointset.auto_index ~domains:2 ps in
  check_true "never dense" (not (Geometry.Pointset.index_is_dense idx));
  check_true "same counts as build_index"
    (Geometry.Pointset.counts_within idx ~radius:0.5
    = Geometry.Pointset.counts_within (Geometry.Pointset.build_index ps) ~radius:0.5)

let test_good_radius_on_tree_index () =
  (* The whole radius stage must work unchanged on the scalable backend. *)
  let r, grid, w = small_workload ~seed:13 ~n:600 ~fraction:0.5 ~radius:0.05 () in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  let idx = Geometry.Pointset.build_index ps in
  let result =
    Privcluster.Good_radius.run r Privcluster.Profile.practical ~grid ~eps:4.0 ~delta:1e-6
      ~beta:0.1 ~t:300 idx
  in
  check_true "radius positive and bounded"
    (result.Privcluster.Good_radius.radius >= 0.
    && result.Privcluster.Good_radius.radius <= Geometry.Grid.diameter grid)

let suite =
  [
    qcheck_count_matches_brute;
    case "build validation" test_build_validation;
    case "size / dim" test_size_dim;
    case "duplicates" test_duplicates;
    case "negative radius" test_negative_radius;
    case "tree index matches dense index" test_tree_index_matches_dense;
    case "auto index" test_auto_index;
    case "good radius on tree index" test_good_radius_on_tree_index;
  ]
