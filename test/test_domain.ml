(* Remark 3.3: arbitrary rectangular domains via affine rescaling. *)

open Testutil

let test_round_trip () =
  let dom =
    Privcluster.Domain.create ~lo:[| -10.; 100. |] ~hi:[| 30.; 120. |] ~axis_size:512
  in
  check_float "side is the longest axis" 40. (Privcluster.Domain.For_testing.scale dom);
  let p = [| 5.; 110. |] in
  let u = Privcluster.Domain.For_testing.to_unit dom p in
  check_in_range "unit x" ~lo:0. ~hi:1. u.(0);
  check_in_range "unit y" ~lo:0. ~hi:1. u.(1);
  let back = Privcluster.Domain.For_testing.of_unit dom u in
  (* Round trip exact up to one grid step in data units. *)
  let step_data = Privcluster.Domain.For_testing.radius_of_unit dom (Geometry.Grid.step (Privcluster.Domain.For_testing.grid dom)) in
  check_true "round trip within a grid step" (Geometry.Vec.dist back p <= step_data +. 1e-9)

let test_radius_scaling () =
  let dom = Privcluster.Domain.create ~lo:[| 0. |] ~hi:[| 50. |] ~axis_size:64 in
  check_float "radius out" 5. (Privcluster.Domain.For_testing.radius_of_unit dom 0.1);
  check_float "radius in" 0.1 (Privcluster.Domain.For_testing.radius_to_unit dom 5.)

let test_of_points_covers () =
  let r = rng () in
  let points = Array.init 200 (fun _ -> [| Prim.Rng.uniform r ~lo:(-3.) ~hi:7.; Prim.Rng.uniform r ~lo:40. ~hi:45. |]) in
  let dom = Privcluster.Domain.For_testing.of_points ~axis_size:256 points in
  Array.iter
    (fun p ->
      let u = Privcluster.Domain.For_testing.to_unit dom p in
      Array.iter (fun x -> check_in_range "mapped inside" ~lo:0. ~hi:1. x) u)
    points

let test_clamping () =
  let dom = Privcluster.Domain.create ~lo:[| 0. |] ~hi:[| 1. |] ~axis_size:16 in
  let u = Privcluster.Domain.For_testing.to_unit dom [| 99. |] in
  check_float "clamped" 1.0 u.(0)

let test_validation () =
  Alcotest.check_raises "lo < hi" (Invalid_argument "Domain.create: lo must be below hi on every axis")
    (fun () -> ignore (Privcluster.Domain.create ~lo:[| 1. |] ~hi:[| 1. |] ~axis_size:4));
  Alcotest.check_raises "empty" (Invalid_argument "Domain.of_points: empty") (fun () ->
      ignore (Privcluster.Domain.For_testing.of_points ~axis_size:4 [||]))

let test_solve_on_shifted_data () =
  (* A cluster around (1000, -500) in a 200-wide box: the solver must find
     it in data coordinates. *)
  let r = rng ~seed:23 () in
  let center = [| 1000.; -500. |] in
  let n = 1500 in
  let points =
    Array.init n (fun i ->
        if i < 900 then
          Array.map (fun c -> c +. Prim.Rng.gaussian r ~sigma:2.0 ()) center
        else [| Prim.Rng.uniform r ~lo:900. ~hi:1100.; Prim.Rng.uniform r ~lo:(-600.) ~hi:(-400.) |])
  in
  let dom = Privcluster.Domain.create ~lo:[| 900.; -600. |] ~hi:[| 1100.; -400. |] ~axis_size:512 in
  match
    Privcluster.Domain.solve r Privcluster.Profile.practical dom ~eps:4.0 ~delta:1e-6 ~beta:0.1
      ~t:800 points
  with
  | Error f -> Alcotest.failf "domain solve failed: %a" Privcluster.One_cluster.pp_failure f
  | Ok result ->
      check_true
        (Printf.sprintf "center near (1000, -500): got (%.1f, %.1f)"
           result.Privcluster.Domain.center.(0) result.Privcluster.Domain.center.(1))
        (Geometry.Vec.dist result.Privcluster.Domain.center center < 30.);
      check_true "radius in data units" (result.Privcluster.Domain.radius < 200.);
      let covered =
        Array.fold_left
          (fun acc p ->
            if Geometry.Vec.dist p result.Privcluster.Domain.center <= result.Privcluster.Domain.radius
            then acc + 1 else acc)
          0 points
      in
      check_true (Printf.sprintf "covers the cluster (%d/800)" covered) (covered >= 700)

let suite =
  [
    case "round trip" test_round_trip;
    case "radius scaling" test_radius_scaling;
    case "of_points covers" test_of_points_covers;
    case "clamping" test_clamping;
    case "validation" test_validation;
    slow_case "solve on shifted data" test_solve_on_shifted_data;
  ]
