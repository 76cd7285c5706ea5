(* Differential suite for the flat storage layout: every refactored flat-path
   kernel must agree with its boxed reference — bitwise where both paths
   accumulate in the same order (which is the layout contract, see DESIGN.md
   "Memory layout"), and the view API must round-trip indices exactly. *)

open Testutil

let check_bits msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h (not bit-identical)" msg expected actual

(* A deterministic boxed point cloud and its packed pointset. *)
let cloud ?(seed = 11) ?(n = 60) ?(dim = 5) () =
  let r = rng ~seed () in
  let points =
    Array.init n (fun _ -> Array.init dim (fun _ -> Prim.Rng.float r 1.0))
  in
  (points, Geometry.Pointset.create points)

(* Generator: dimension, then a non-empty list of points of that dimension. *)
let points_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun d ->
    array_size (int_range 1 40) (array_size (return d) (float_range (-50.) 50.)))

let test_vec_kernels_match_boxed () =
  let points, ps = cloud () in
  let st = Geometry.Pointset.storage ps in
  let offs = Geometry.Pointset.row_offsets ps in
  let d = Geometry.Pointset.dim ps in
  let q = points.(7) in
  Array.iteri
    (fun i p ->
      let off = offs.(i) in
      check_bits "dist_to_row" (Geometry.Vec.dist p q)
        (Geometry.Vec.dist_to_row st ~off ~dim:d q);
      check_bits "dist_sq_to_row" (Geometry.Vec.dist_sq p q)
        (Geometry.Vec.dist_sq_to_row st ~off ~dim:d q);
      check_bits "dot_row" (Geometry.Vec.For_testing.dot p q) (Geometry.Vec.dot_row st ~off ~dim:d q);
      check_bits "dist_rows"
        (Geometry.Vec.dist p points.(3))
        (Geometry.Vec.dist_rows st off st offs.(3) ~dim:d);
      check_bits "dot_rows"
        (Geometry.Vec.For_testing.dot p points.(3))
        (Geometry.Vec.dot_rows st off st offs.(3) ~dim:d);
      let y_flat = Array.copy q and y_boxed = Array.copy q in
      Geometry.Vec.axpy_row 2.5 st ~off ~dim:d y_flat;
      Geometry.Vec.For_testing.axpy 2.5 p y_boxed;
      Array.iteri (fun j e -> check_bits "axpy_row" e y_flat.(j)) y_boxed)
    points

let test_ball_count_matches_naive () =
  let points, ps = cloud ~n:80 ~dim:3 () in
  let center = points.(5) in
  List.iter
    (fun radius ->
      let naive =
        Array.fold_left
          (fun acc p -> if Geometry.Vec.dist p center <= radius then acc + 1 else acc)
          0 points
      in
      check_int "ball_count vs naive" naive
        (Geometry.Pointset.ball_count ps ~center ~radius))
    [ 0.0; 0.1; 0.3; 0.7; 2.0 ]

let test_score_l_matches_index () =
  let _, ps = cloud ~n:50 ~dim:3 () in
  let idx = Geometry.Pointset.build_index ps in
  List.iter
    (fun radius ->
      check_bits "score_l index vs direct"
        (Geometry.Pointset.For_testing.score_l_direct ps ~cap:10 ~radius)
        (Geometry.Pointset.score_l idx ~cap:10 ~radius))
    [ 0.05; 0.2; 0.5; 1.0 ]

let test_jl_project_matches_apply () =
  let points, ps = cloud ~n:40 ~dim:24 () in
  let jl = Geometry.Jl.make (rng ~seed:5 ()) ~input_dim:24 ~output_dim:8 in
  let projected = Geometry.Jl.project jl ps in
  check_int "projected n" (Array.length points) (Geometry.Pointset.n projected);
  check_int "projected dim" 8 (Geometry.Pointset.dim projected);
  Array.iteri
    (fun i p ->
      let boxed = Geometry.Jl.apply jl p in
      let flat = Geometry.Pointset.point projected i in
      Array.iteri (fun j e -> check_bits "jl row" e flat.(j)) boxed)
    points

let test_kdtree_matches_brute_force () =
  let points, ps = cloud ~n:70 ~dim:4 () in
  let tree =
    Geometry.Kdtree.build_flat
      ~storage:(Geometry.Pointset.storage ps)
      ~offs:(Geometry.Pointset.row_offsets ps)
      ~dim:(Geometry.Pointset.dim ps) ()
  in
  let center = points.(9) in
  List.iter
    (fun radius ->
      let brute =
        Array.fold_left
          (fun acc p -> if Geometry.Vec.dist p center <= radius then acc + 1 else acc)
          0 points
      in
      check_int "kdtree count vs brute" brute
        (Geometry.Kdtree.count_within tree ~center ~radius))
    [ 0.0; 0.15; 0.4; 0.9; 3.0 ]

let test_noisy_avg_rows_matches_boxed () =
  let points, ps = cloud ~n:45 ~dim:6 () in
  let st = Geometry.Pointset.storage ps in
  let offs = Geometry.Pointset.row_offsets ps in
  let run_boxed () =
    Prim.Noisy_avg.run (rng ~seed:77 ()) ~eps:0.7 ~delta:1e-6 ~diameter:2.0
      ~pred:(fun p -> p.(0) < 0.6)
      ~dim:6 points
  in
  let run_flat () =
    Prim.Noisy_avg.run_rows (rng ~seed:77 ()) ~eps:0.7 ~delta:1e-6 ~diameter:2.0
      ~pred:(fun i -> st.(offs.(i)) < 0.6)
      ~dim:6 ~offs st
  in
  match (run_boxed (), run_flat ()) with
  | Prim.Noisy_avg.Bottom, Prim.Noisy_avg.Bottom -> ()
  | Prim.Noisy_avg.Average b, Prim.Noisy_avg.Average f ->
      check_bits "m_hat" b.Prim.Noisy_avg.m_hat f.Prim.Noisy_avg.m_hat;
      check_bits "sigma" b.Prim.Noisy_avg.sigma f.Prim.Noisy_avg.sigma;
      Array.iteri
        (fun j e -> check_bits "noisy average" e f.Prim.Noisy_avg.average.(j))
        b.Prim.Noisy_avg.average
  | _ -> Alcotest.fail "boxed and flat NoisyAVG disagreed on Bottom"

let test_good_center_ps_matches_boxed () =
  let r1 = rng ~seed:21 () and r2 = rng ~seed:21 () in
  let _, _, w = small_workload ~seed:21 ~n:300 ~dim:3 () in
  let points = w.Workload.Synth.points in
  let profile = Privcluster.Profile.practical in
  let t = 120 and radius = 0.08 in
  let boxed =
    Privcluster.Good_center.run r1 profile ~eps:2.0 ~delta:1e-6 ~beta:0.1 ~t ~radius points
  in
  let flat =
    Privcluster.Good_center.run_ps r2 profile ~eps:2.0 ~delta:1e-6 ~beta:0.1 ~t ~radius
      (Geometry.Pointset.create points)
  in
  match (boxed, flat) with
  | Ok b, Ok f ->
      Array.iteri
        (fun j e -> check_bits "good-center coordinate" e f.Privcluster.Good_center.center.(j))
        b.Privcluster.Good_center.center
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "boxed and flat GoodCenter disagreed on success"

let qsuite =
  [
    qcheck "create/points round-trip" points_gen (fun pts ->
        let ps = Geometry.Pointset.create pts in
        let back = Geometry.Pointset.For_testing.points ps in
        Array.length back = Array.length pts
        && Array.for_all2 (fun a b -> a = b) back pts);
    qcheck "of_storage point indexing" points_gen (fun pts ->
        let d = Array.length pts.(0) in
        let flat = Array.concat (Array.to_list pts) in
        let ps = Geometry.Pointset.of_storage ~dim:d flat in
        Array.for_all
          (fun i -> Geometry.Pointset.point ps i = pts.(i))
          (Array.init (Array.length pts) Fun.id));
    qcheck "subset view indexing" points_gen (fun pts ->
        let ps = Geometry.Pointset.create pts in
        let n = Array.length pts in
        (* Every other point, then the first again (duplicates allowed). *)
        let indices = Array.append (Array.init ((n + 1) / 2) (fun i -> 2 * i)) [| 0 |] in
        let view = Geometry.Pointset.subset ps ~indices in
        Geometry.Pointset.n view = Array.length indices
        && Array.for_all
             (fun k -> Geometry.Pointset.point view k = pts.(indices.(k)))
             (Array.init (Array.length indices) Fun.id));
    qcheck "filter matches filter_rows" points_gen (fun pts ->
        let ps = Geometry.Pointset.create pts in
        let d = Array.length pts.(0) in
        let keep v = v.(0) > 0. in
        let a = Geometry.Pointset.For_testing.filter keep ps in
        let b =
          Geometry.Pointset.filter_rows (fun st off -> Geometry.Vec.For_testing.get st ~off 0 > 0.) ps
        in
        ignore d;
        Geometry.Pointset.n a = Geometry.Pointset.n b
        && Array.for_all
             (fun i -> Geometry.Pointset.point a i = Geometry.Pointset.point b i)
             (Array.init (Geometry.Pointset.n a) Fun.id));
    qcheck "coords_axis matches column" points_gen (fun pts ->
        let ps = Geometry.Pointset.create pts in
        let d = Array.length pts.(0) in
        Array.for_all
          (fun axis ->
            Geometry.Pointset.coords_axis ps axis = Array.map (fun p -> p.(axis)) pts)
          (Array.init d Fun.id));
    qcheck "points returns copies (mutation is invisible)" points_gen (fun pts ->
        let ps = Geometry.Pointset.create pts in
        let copy = Geometry.Pointset.For_testing.points ps in
        copy.(0).(0) <- 1e9;
        Geometry.Pointset.point ps 0 = pts.(0));
  ]

let suite =
  [
    case "vec kernels match boxed (bitwise)" test_vec_kernels_match_boxed;
    case "ball_count matches naive" test_ball_count_matches_naive;
    case "score_l index matches direct (bitwise)" test_score_l_matches_index;
    case "jl project matches per-point apply (bitwise)" test_jl_project_matches_apply;
    case "kdtree matches brute force" test_kdtree_matches_brute_force;
    case "noisy-avg rows matches boxed (bitwise)" test_noisy_avg_rows_matches_boxed;
    case "good-center run_ps matches run (bitwise)" test_good_center_ps_matches_boxed;
  ]
  @ qsuite
