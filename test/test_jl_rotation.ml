(* The JL transform (Lemma 4.10) and random orthonormal bases (Lemma 4.9). *)

open Testutil

let test_jl_shapes () =
  let r = rng () in
  let f = Geometry.Jl.make r ~input_dim:20 ~output_dim:5 in
  check_int "input dim" 20 (Geometry.Jl.For_testing.input_dim f);
  check_int "output dim" 5 (Geometry.Jl.For_testing.output_dim f);
  check_int "apply shape" 5 (Array.length (Geometry.Jl.apply f (Array.make 20 1.)));
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Jl.apply: dimension mismatch")
    (fun () -> ignore (Geometry.Jl.apply f (Array.make 3 1.)))

let test_jl_linear () =
  let r = rng () in
  let f = Geometry.Jl.make r ~input_dim:10 ~output_dim:4 in
  let a = Prim.Rng.gaussian_vector r ~dim:10 ~sigma:1.0 in
  let b = Prim.Rng.gaussian_vector r ~dim:10 ~sigma:1.0 in
  let lhs = Geometry.Jl.apply f (Geometry.Vec.add a b) in
  let rhs = Geometry.Vec.add (Geometry.Jl.apply f a) (Geometry.Jl.apply f b) in
  check_true "linearity" (Geometry.Vec.For_testing.equal ~tol:1e-9 lhs rhs)

let test_jl_norm_preservation_in_expectation () =
  let r = rng () in
  let d = 40 in
  let v = Prim.Rng.gaussian_vector r ~dim:d ~sigma:1.0 in
  let norm2 = Geometry.Vec.For_testing.norm2_sq v in
  (* Average over many independent transforms: E ||f(v)||² = ||v||². *)
  let trials = 300 in
  let acc = ref 0. in
  for _ = 1 to trials do
    let f = Geometry.Jl.make r ~input_dim:d ~output_dim:8 in
    acc := !acc +. Geometry.Vec.For_testing.norm2_sq (Geometry.Jl.apply f v)
  done;
  check_float ~tol:(0.1 *. norm2) "unbiased squared norm" norm2 (!acc /. float_of_int trials)

let test_jl_distance_preservation_whp () =
  let r = rng () in
  let n = 30 and d = 100 in
  let points = Array.init n (fun _ -> Prim.Rng.gaussian_vector r ~dim:d ~sigma:1.0) in
  let eta = 0.5 and beta = 0.05 in
  let k = Geometry.Jl.For_testing.target_dim ~n ~eta ~beta in
  let f = Geometry.Jl.make r ~input_dim:d ~output_dim:k in
  let proj = Geometry.Jl.apply_all f points in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let o = Geometry.Vec.dist_sq points.(i) points.(j) in
      let p = Geometry.Vec.dist_sq proj.(i) proj.(j) in
      if p < (1. -. eta) *. o || p > (1. +. eta) *. o then ok := false
    done
  done;
  check_true "all pairs preserved at the lemma's k" !ok

let test_jl_dims_formulas () =
  check_int "target_dim formula"
    (int_of_float (Float.ceil (8. /. 0.25 *. log (2. *. 900. /. 0.1))))
    (Geometry.Jl.For_testing.target_dim ~n:30 ~eta:0.5 ~beta:0.1);
  check_int "paper_dim formula"
    (int_of_float (Float.ceil (46. *. log (2. *. 100. /. 0.1))))
    (Geometry.Jl.paper_dim ~n:100 ~beta:0.1)

let test_rotation_orthonormal () =
  let r = rng () in
  let d = 12 in
  let rot = Geometry.Rotation.make r ~dim:d in
  for i = 0 to d - 1 do
    for j = i to d - 1 do
      let dot =
        Geometry.Vec.For_testing.dot (Geometry.Rotation.For_testing.basis_vector rot i) (Geometry.Rotation.For_testing.basis_vector rot j)
      in
      if i = j then check_float ~tol:1e-9 "unit norm" 1.0 dot
      else check_float ~tol:1e-9 "orthogonal" 0.0 dot
    done
  done

let test_rotation_isometry () =
  let r = rng () in
  let rot = Geometry.Rotation.make r ~dim:9 in
  for _ = 1 to 50 do
    let v = Prim.Rng.gaussian_vector r ~dim:9 ~sigma:1.0 in
    let c = Geometry.Rotation.For_testing.to_coords rot v in
    check_float ~tol:1e-9 "norm preserved" (Geometry.Vec.norm2 v) (Geometry.Vec.norm2 c);
    let back = Geometry.Rotation.from_coords rot c in
    check_true "round trip" (Geometry.Vec.For_testing.equal ~tol:1e-9 v back)
  done

let test_rotation_identity () =
  let rot = Geometry.Rotation.For_testing.identity ~dim:3 in
  let v = [| 1.; 2.; 3. |] in
  check_true "identity to_coords" (Geometry.Vec.For_testing.equal v (Geometry.Rotation.For_testing.to_coords rot v));
  check_float "project" 2. (Geometry.Rotation.project rot v 1)

let test_rotation_projection_lemma () =
  (* Lemma 4.9 statistically: projections of a fixed difference vector onto
     random basis vectors have magnitude ~ ||v||/sqrt(d). *)
  let r = rng () in
  let d = 64 in
  let v = Prim.Rng.gaussian_vector r ~dim:d ~sigma:1.0 in
  let norm = Geometry.Vec.norm2 v in
  let bound = Geometry.Rotation.projection_bound ~dim:d ~n_points:2 ~beta:0.05 in
  let violations = ref 0 in
  for _ = 1 to 50 do
    let rot = Geometry.Rotation.make r ~dim:d in
    for i = 0 to d - 1 do
      if Float.abs (Geometry.Rotation.project rot v i) > bound *. norm then incr violations
    done
  done;
  check_true "projection bound holds" (!violations <= 5)

let suite =
  [
    case "jl shapes" test_jl_shapes;
    case "jl linearity" test_jl_linear;
    case "jl unbiased norm" test_jl_norm_preservation_in_expectation;
    slow_case "jl distance preservation whp" test_jl_distance_preservation_whp;
    case "jl dimension formulas" test_jl_dims_formulas;
    case "rotation orthonormal" test_rotation_orthonormal;
    case "rotation isometry" test_rotation_isometry;
    case "rotation identity" test_rotation_identity;
    case "rotation projection lemma" test_rotation_projection_lemma;
  ]
