type params = { eps : float; delta : float }

let v ~eps ~delta =
  if not (eps > 0.) then invalid_arg "Dp.v: eps must be positive";
  if not (delta >= 0. && delta < 1.) then invalid_arg "Dp.v: delta must be in [0, 1)";
  { eps; delta }

let pure ~eps = v ~eps ~delta:0.
let eps p = p.eps
let delta p = p.delta

let pp ppf p = Format.fprintf ppf "(%g, %g)-DP" p.eps p.delta
let to_string p = Format.asprintf "%a" pp p

module For_testing = struct
  let split p k =
    if k <= 0 then invalid_arg "Dp.split: k must be positive";
    let k = float_of_int k in
    { eps = p.eps /. k; delta = p.delta /. k }

  let scale p c =
    if not (c > 0.) then invalid_arg "Dp.scale: factor must be positive";
    v ~eps:(p.eps *. c) ~delta:(Float.min (p.delta *. c) (Float.pred 1.0))

  let is_pure p = p.delta = 0.
end
