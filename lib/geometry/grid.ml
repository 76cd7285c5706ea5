type t = { axis_size : int; dim : int }

let create ~axis_size ~dim =
  if axis_size < 2 then invalid_arg "Grid.create: axis_size must be >= 2";
  if dim < 1 then invalid_arg "Grid.create: dim must be >= 1";
  { axis_size; dim }

let axis_size g = g.axis_size
let dim g = g.dim
let step g = 1. /. float_of_int (g.axis_size - 1)
let diameter g = sqrt (float_of_int g.dim)

let rec log_star x = if x <= 1. then 0. else 1. +. log_star (log x /. log 2.)

let log_star_term g = log_star (2. *. float_of_int g.axis_size *. diameter g)

let snap g v =
  if Vec.dim v <> g.dim then invalid_arg "Grid.snap: dimension mismatch";
  let h = step g in
  Array.map
    (fun x ->
      let x = Float.max 0. (Float.min 1. x) in
      Float.round (x /. h) *. h)
    v

let snap_row g st ~off =
  let h = step g in
  Array.init g.dim (fun i ->
      let x = st.(off + i) in
      let x = Float.max 0. (Float.min 1. x) in
      Float.round (x /. h) *. h)

let random_point g rng =
  let h = step g in
  Array.init g.dim (fun _ -> float_of_int (Prim.Rng.int rng g.axis_size) *. h)

let max_radius g = float_of_int (int_of_float (Float.ceil (diameter g)))

let radius_candidates g =
  let denom = 2. *. float_of_int g.axis_size in
  int_of_float (Float.ceil (max_radius g *. denom)) + 1

let radius_of_index g i =
  if i < 0 || i >= radius_candidates g then invalid_arg "Grid.radius_of_index: out of range";
  Float.min (float_of_int i /. (2. *. float_of_int g.axis_size)) (max_radius g)

let geom_ratio = sqrt 2.

let geom_min g = step g /. 2.

let geometric_candidates g =
  (* Smallest m with r_min·√2^(m−2) ≥ √d, plus the radius-0 candidate. *)
  let m = Float.ceil (log (diameter g /. geom_min g) /. log geom_ratio) in
  2 + max 0 (int_of_float m)

let geometric_radius_of_index g i =
  if i < 0 || i >= geometric_candidates g then
    invalid_arg "Grid.geometric_radius_of_index: out of range";
  if i = 0 then 0.
  else Float.min (geom_min g *. (geom_ratio ** float_of_int (i - 1))) (max_radius g)

module For_testing = struct
  let mem g v =
    Vec.dim v = g.dim
    &&
    let h = step g in
    Array.for_all
      (fun x ->
        x >= -1e-9
        && x <= 1. +. 1e-9
        && Float.abs (x -. (Float.round (x /. h) *. h)) <= 1e-9)
      v

  let index_of_radius g r =
    if r <= 0. then 0
    else
      let i = int_of_float (Float.ceil (r *. 2. *. float_of_int g.axis_size)) in
      min i (radius_candidates g - 1)

  let geometric_index_of_radius g r =
    if r <= 0. then 0
    else
      let i = 1 + int_of_float (Float.ceil (log (r /. geom_min g) /. log geom_ratio)) in
      max 1 (min i (geometric_candidates g - 1))
end
