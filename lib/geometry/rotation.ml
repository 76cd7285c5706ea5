(* The orthonormal basis is stored flat (dim × dim, row-major); row [i] is
   basis vector z_i.  Gram–Schmidt runs on a boxed scratch vector drawn
   with the historical RNG sequence and identical accumulation order, so
   the basis — and every projection through it — is bit-identical to the
   old [Vec.t array] representation. *)

type t = { basis : float array; d : int }

(* Gram–Schmidt on iid Gaussian vectors; re-draws a vector on the
   (probability-zero) event that it is linearly dependent on its
   predecessors. *)
let make rng ~dim =
  if dim <= 0 then invalid_arg "Rotation.make: dim must be positive";
  let basis = Array.make (dim * dim) 0. in
  let rec draw i =
    let v = Prim.Rng.gaussian_vector rng ~dim ~sigma:1.0 in
    for j = 0 to i - 1 do
      let off = j * dim in
      Vec.axpy_row (-.Vec.dot_row basis ~off ~dim v) basis ~off ~dim v
    done;
    let norm = Vec.norm2 v in
    if norm < 1e-10 then draw i else Vec.scale (1. /. norm) v
  in
  for i = 0 to dim - 1 do
    Vec.set_row basis ~off:(i * dim) (draw i)
  done;
  { basis; d = dim }

let project t v i = Vec.dot_row t.basis ~off:(i * t.d) ~dim:t.d v
let project_row t st ~off i = Vec.dot_rows t.basis (i * t.d) st off ~dim:t.d
let from_coords t c =
  if Array.length c <> t.d then invalid_arg "Rotation.from_coords: dimension mismatch";
  let acc = Vec.zero t.d in
  Array.iteri (fun i ci -> Vec.axpy_row ci t.basis ~off:(i * t.d) ~dim:t.d acc) c;
  acc

let projection_bound ~dim ~n_points ~beta =
  if dim <= 0 || n_points <= 0 then invalid_arg "Rotation.projection_bound: positive args";
  if not (beta > 0. && beta < 1.) then invalid_arg "Rotation.projection_bound: beta in (0, 1)";
  let d = float_of_int dim in
  2. *. sqrt (log (d *. float_of_int n_points /. beta) /. d)

module For_testing = struct
  let identity ~dim =
    if dim <= 0 then invalid_arg "Rotation.identity: dim must be positive";
    let basis = Array.make (dim * dim) 0. in
    for i = 0 to dim - 1 do
      basis.((i * dim) + i) <- 1.
    done;
    { basis; d = dim }

  let basis_vector t i = Vec.of_row t.basis ~off:(i * t.d) ~dim:t.d
  let to_coords t v = Array.init t.d (fun i -> project t v i)
end
