(* Lloyd's k-means and the private k-means compilation. *)

open Testutil

let three_clusters rng ~per =
  let centers = [| [| 0.2; 0.2 |]; [| 0.8; 0.2 |]; [| 0.5; 0.8 |] |] in
  let pts =
    Array.init (3 * per) (fun i ->
        let c = centers.(i mod 3) in
        Array.map (fun x -> x +. Prim.Rng.gaussian rng ~sigma:0.02 ()) c)
  in
  (centers, pts)

let test_lloyd_recovers_centers () =
  let r = rng ~seed:33 () in
  let truth, pts = three_clusters r ~per:200 in
  let km = Geometry.Kmeans.lloyd r ~k:3 pts in
  check_int "three centers" 3 (Array.length km.Geometry.Kmeans.centers);
  Array.iter
    (fun c ->
      let nearest =
        Array.fold_left
          (fun acc got -> Float.min acc (Geometry.Vec.dist got c))
          infinity km.Geometry.Kmeans.centers
      in
      check_true "every true center matched" (nearest < 0.05))
    truth;
  check_true "iterated at least once" (km.Geometry.Kmeans.iterations >= 1);
  check_true "inertia consistent"
    (Float.abs
       (km.Geometry.Kmeans.inertia
       -. Geometry.Kmeans.For_testing.inertia ~centers:km.Geometry.Kmeans.centers pts)
    < 1e-9)

let test_lloyd_improves_inertia () =
  let r = rng ~seed:35 () in
  let _, pts = three_clusters r ~per:100 in
  let km1 = Geometry.Kmeans.lloyd r ~k:1 pts in
  let km3 = Geometry.Kmeans.lloyd r ~k:3 pts in
  check_true "more centers, less inertia" (km3.Geometry.Kmeans.inertia < km1.Geometry.Kmeans.inertia)

let test_assign () =
  let centers = [| [| 0. |]; [| 1. |] |] in
  check_int "near zero" 0 (Geometry.Kmeans.assign centers [| 0.2 |]);
  check_int "near one" 1 (Geometry.Kmeans.assign centers [| 0.9 |])

let test_canonical_order () =
  let ordered = Geometry.Kmeans.For_testing.canonical_order [| [| 0.9; 0. |]; [| 0.1; 1. |]; [| 0.1; 0.5 |] |] in
  check_float "first by x then y" 0.1 ordered.(0).(0);
  check_float "tie broken by y" 0.5 ordered.(0).(1);
  check_float "last" 0.9 ordered.(2).(0)

let test_flatten_roundtrip () =
  let centers = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let flat = Geometry.Kmeans.flatten centers in
  check_int "flat length" 4 (Array.length flat);
  let back = Geometry.Kmeans.unflatten ~d:2 flat in
  check_true "roundtrip"
    (Geometry.Vec.For_testing.equal back.(0) centers.(0) && Geometry.Vec.For_testing.equal back.(1) centers.(1));
  Alcotest.check_raises "bad length" (Invalid_argument "Kmeans.unflatten: length not a multiple of d")
    (fun () -> ignore (Geometry.Kmeans.unflatten ~d:3 flat))

let test_lloyd_validation () =
  let r = rng () in
  Alcotest.check_raises "k <= n" (Invalid_argument "Kmeans.lloyd: fewer points than centers")
    (fun () -> ignore (Geometry.Kmeans.lloyd r ~k:5 [| [| 0. |] |]))

let test_private_kmeans_end_to_end () =
  let r = rng ~seed:37 () in
  (* Block-count arithmetic: Algorithm 4 keeps k_blocks = n/(9·m) outputs
     and clusters t = alpha·k_blocks/2 of them, which must clear the
     stability-histogram threshold (~90 at eps = 3): n = 60000, m = 15
     gives 444 blocks and t = 177. *)
  let truth, pts = three_clusters r ~per:20_000 in
  match
    Privcluster.Kmeans_sa.run r Privcluster.Profile.practical ~axis_size:128 ~eps:4.0
      ~delta:1e-6 ~beta:0.1 ~k:3 ~block_size:15 ~alpha:0.8 pts
  with
  | Error f -> Alcotest.failf "private k-means failed: %a" Privcluster.One_cluster.pp_failure f
  | Ok result ->
      check_int "three private centers" 3 (Array.length result.Privcluster.Kmeans_sa.centers);
      Array.iter
        (fun c ->
          let nearest =
            Array.fold_left
              (fun acc got -> Float.min acc (Geometry.Vec.dist got c))
              infinity result.Privcluster.Kmeans_sa.centers
          in
          (* 0.25 is far below the 0.6 planted separation, so the three
             matches are necessarily distinct private centers. *)
          check_true
            (Printf.sprintf "true center matched within 0.25 (got %.3f)" nearest)
            (nearest < 0.25))
        truth

let suite =
  [
    case "lloyd recovers planted centers" test_lloyd_recovers_centers;
    case "lloyd improves inertia with k" test_lloyd_improves_inertia;
    case "assign" test_assign;
    case "canonical order" test_canonical_order;
    case "flatten roundtrip" test_flatten_roundtrip;
    case "lloyd validation" test_lloyd_validation;
    slow_case "private k-means end to end" test_private_kmeans_end_to_end;
  ]
