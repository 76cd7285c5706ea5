(* The projection matrix is stored flat (output_dim × input_dim, row-major)
   and drawn row by row with the same RNG sequence as the historical boxed
   representation, so [apply] is bit-identical to the old per-row dot
   products and [project] is the same arithmetic as a blocked mat-mul over
   a whole pointset. *)

type t = { mat : float array; input_dim : int; output_dim : int; scale : float }

let make rng ~input_dim ~output_dim =
  if input_dim <= 0 || output_dim <= 0 then invalid_arg "Jl.make: dimensions must be positive";
  let mat = Array.make (output_dim * input_dim) 0. in
  for r = 0 to output_dim - 1 do
    Vec.set_row mat ~off:(r * input_dim)
      (Prim.Rng.gaussian_vector rng ~dim:input_dim ~sigma:1.0)
  done;
  { mat; input_dim; output_dim; scale = 1. /. sqrt (float_of_int output_dim) }

let apply t v =
  if Vec.dim v <> t.input_dim then invalid_arg "Jl.apply: dimension mismatch";
  Array.init t.output_dim (fun r ->
      t.scale *. Vec.dot_row t.mat ~off:(r * t.input_dim) ~dim:t.input_dim v)

let apply_all t vs = Array.map (apply t) vs

let project t ps =
  if Pointset.dim ps <> t.input_dim then invalid_arg "Jl.project: dimension mismatch";
  let n = Pointset.n ps in
  let st = Pointset.storage ps and offs = Pointset.row_offsets ps in
  let out = Array.make (n * t.output_dim) 0. in
  Kernel.jl_project ~mat:t.mat ~st ~offs ~n ~in_dim:t.input_dim ~out_dim:t.output_dim
    ~scale:t.scale ~out;
  Pointset.of_storage ~dim:t.output_dim out

let paper_dim ~n ~beta =
  if n <= 0 then invalid_arg "Jl.paper_dim: n must be positive";
  if not (beta > 0. && beta < 1.) then invalid_arg "Jl.paper_dim: beta in (0, 1)";
  max 1 (int_of_float (Float.ceil (46. *. log (2. *. float_of_int n /. beta))))

module For_testing = struct
  let input_dim t = t.input_dim
  let output_dim t = t.output_dim

  let target_dim ~n ~eta ~beta =
    if n <= 0 then invalid_arg "Jl.target_dim: n must be positive";
    if not (eta > 0. && eta < 1.) then invalid_arg "Jl.target_dim: eta in (0, 1)";
    if not (beta > 0. && beta < 1.) then invalid_arg "Jl.target_dim: beta in (0, 1)";
    let nf = float_of_int n in
    int_of_float (Float.ceil (8. /. (eta *. eta) *. log (2. *. nf *. nf /. beta)))
end
