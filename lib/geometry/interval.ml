type partition = { p_shift : float; p_len : float }

let make rng ~len =
  if not (len > 0.) then invalid_arg "Interval.make: len must be positive";
  { p_shift = Prim.Rng.float rng len; p_len = len }

let len p = p.p_len
let shift p = p.p_shift
let index_of p x = int_of_float (Float.floor ((x -. p.p_shift) /. p.p_len))

let bounds p j =
  let lo = p.p_shift +. (float_of_int j *. p.p_len) in
  (lo, lo +. p.p_len)

let extend p j ~by =
  let lo, hi = bounds p j in
  (lo -. by, hi +. by)

type t = { lo : float; hi : float }

let intersect a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

module For_testing = struct
  let fixed ~shift ~len =
    if not (len > 0.) then invalid_arg "Interval.fixed: len must be positive";
    { p_shift = shift; p_len = len }

  let shift p = p.p_shift
  let contains i x = i.lo <= x && x <= i.hi
  let length i = i.hi -. i.lo
  let center i = 0.5 *. (i.lo +. i.hi)
  let of_center ~center ~radius = { lo = center -. radius; hi = center +. radius }
end
