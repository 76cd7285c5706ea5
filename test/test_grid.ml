(* The finite domain X^d and both candidate-radius sets. *)

open Testutil

let test_basic_properties () =
  let g = Geometry.Grid.create ~axis_size:256 ~dim:4 in
  check_int "axis" 256 (Geometry.Grid.axis_size g);
  check_int "dim" 4 (Geometry.Grid.dim g);
  check_float ~tol:1e-12 "step" (1. /. 255.) (Geometry.Grid.step g);
  check_float ~tol:1e-12 "diameter" 2.0 (Geometry.Grid.diameter g);
  Alcotest.check_raises "axis >= 2" (Invalid_argument "Grid.create: axis_size must be >= 2")
    (fun () -> ignore (Geometry.Grid.create ~axis_size:1 ~dim:1))

let test_snap_and_mem () =
  let g = Geometry.Grid.create ~axis_size:11 ~dim:2 in
  (* step = 0.1 *)
  let s = Geometry.Grid.snap g [| 0.234; 0.56 |] in
  check_float ~tol:1e-12 "snap x" 0.2 s.(0);
  check_float ~tol:1e-12 "snap y" 0.6 s.(1);
  check_true "snapped point on grid" (Geometry.Grid.For_testing.mem g s);
  check_true "off-grid rejected" (not (Geometry.Grid.For_testing.mem g [| 0.234; 0.56 |]));
  let clamped = Geometry.Grid.snap g [| -5.; 7. |] in
  check_float "clamp low" 0. clamped.(0);
  check_float "clamp high" 1. clamped.(1)

let test_random_point_on_grid () =
  let r = rng () in
  let g = Geometry.Grid.create ~axis_size:17 ~dim:3 in
  for _ = 1 to 100 do
    check_true "random point on grid" (Geometry.Grid.For_testing.mem g (Geometry.Grid.random_point g r))
  done

let test_linear_candidates () =
  let g = Geometry.Grid.create ~axis_size:256 ~dim:4 in
  let m = Geometry.Grid.radius_candidates g in
  (* {0, 1/512, ..., ⌈2⌉ = 2}: 2·512 + 1. *)
  check_int "count" 1025 m;
  check_float "index 0" 0. (Geometry.Grid.radius_of_index g 0);
  check_float ~tol:1e-12 "index 1" (1. /. 512.) (Geometry.Grid.radius_of_index g 1);
  check_float "top index = ceil(sqrt d)" 2. (Geometry.Grid.radius_of_index g (m - 1));
  Alcotest.check_raises "out of range" (Invalid_argument "Grid.radius_of_index: out of range")
    (fun () -> ignore (Geometry.Grid.radius_of_index g m))

let test_linear_index_of_radius_inverse () =
  let g = Geometry.Grid.create ~axis_size:64 ~dim:2 in
  for i = 0 to Geometry.Grid.radius_candidates g - 1 do
    let r = Geometry.Grid.radius_of_index g i in
    let j = Geometry.Grid.For_testing.index_of_radius g r in
    check_true "index_of_radius inverts" (j <= i);
    check_true "returned radius covers" (Geometry.Grid.radius_of_index g j >= r -. 1e-12)
  done

let test_geometric_candidates () =
  let g = Geometry.Grid.create ~axis_size:256 ~dim:4 in
  let m = Geometry.Grid.geometric_candidates g in
  check_true "logarithmically many" (m < 50);
  check_float "index 0 is radius 0" 0. (Geometry.Grid.geometric_radius_of_index g 0);
  check_float ~tol:1e-12 "index 1 is step/2" (Geometry.Grid.step g /. 2.)
    (Geometry.Grid.geometric_radius_of_index g 1);
  check_true "top covers the diameter"
    (Geometry.Grid.geometric_radius_of_index g (m - 1) >= Geometry.Grid.diameter g -. 1e-9)

let test_geometric_half_relation () =
  (* r_{i-2} = r_i / 2 wherever no capping occurs — GoodRadius's half-index
     map depends on this. *)
  let g = Geometry.Grid.create ~axis_size:256 ~dim:4 in
  let m = Geometry.Grid.geometric_candidates g in
  for i = 3 to m - 2 do
    let r = Geometry.Grid.geometric_radius_of_index g i in
    if r < Geometry.Grid.diameter g then
      check_float ~tol:1e-9
        (Printf.sprintf "half relation at %d" i)
        (r /. 2.)
        (Geometry.Grid.geometric_radius_of_index g (i - 2))
  done

let test_geometric_monotone_and_ratio () =
  let g = Geometry.Grid.create ~axis_size:1024 ~dim:2 in
  let m = Geometry.Grid.geometric_candidates g in
  for i = 2 to m - 1 do
    let a = Geometry.Grid.geometric_radius_of_index g (i - 1) in
    let b = Geometry.Grid.geometric_radius_of_index g i in
    check_true "strictly increasing until cap" (b >= a);
    if b < Geometry.Grid.diameter g then
      check_true "ratio at most sqrt 2" (b /. a <= sqrt 2. +. 1e-9)
  done

let test_geometric_index_of_radius () =
  let g = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  check_int "zero maps to 0" 0 (Geometry.Grid.For_testing.geometric_index_of_radius g 0.);
  for i = 1 to Geometry.Grid.geometric_candidates g - 1 do
    let r = Geometry.Grid.geometric_radius_of_index g i in
    let j = Geometry.Grid.For_testing.geometric_index_of_radius g r in
    check_true "covering index" (Geometry.Grid.geometric_radius_of_index g j >= r -. 1e-9)
  done

let test_log_star () =
  let g16 = Geometry.Grid.create ~axis_size:16 ~dim:1 in
  let g64k = Geometry.Grid.create ~axis_size:65536 ~dim:1 in
  check_true "log* grows very slowly"
    (Geometry.Grid.log_star_term g64k -. Geometry.Grid.log_star_term g16 <= 1.5);
  check_true "log* small" (Geometry.Grid.log_star_term g64k <= 5.5)

let suite =
  [
    case "basic properties" test_basic_properties;
    case "snap and mem" test_snap_and_mem;
    case "random points on grid" test_random_point_on_grid;
    case "linear candidate set" test_linear_candidates;
    case "linear index_of_radius" test_linear_index_of_radius_inverse;
    case "geometric candidate set" test_geometric_candidates;
    case "geometric half relation" test_geometric_half_relation;
    case "geometric ratio" test_geometric_monotone_and_ratio;
    case "geometric index_of_radius" test_geometric_index_of_radius;
    case "log star term" test_log_star;
  ]
