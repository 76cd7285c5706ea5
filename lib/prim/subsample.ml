let amplification_factor ~m ~n =
  if m < 1 then invalid_arg "Subsample.amplification_factor: m must be >= 1";
  if n < 2 * m then invalid_arg "Subsample.amplification_factor: need n >= 2m";
  6. *. float_of_int m /. float_of_int n

let amplify ~eps ~delta ~m ~n =
  if not (eps > 0. && eps <= 1.) then invalid_arg "Subsample.amplify: eps must be in (0, 1]";
  if not (delta >= 0. && delta < 1.) then invalid_arg "Subsample.amplify: delta must be in [0, 1)";
  let factor = amplification_factor ~m ~n in
  let eps' = factor *. eps in
  let delta' = exp eps' *. 4. *. (float_of_int m /. float_of_int n) *. delta in
  Dp.v ~eps:eps' ~delta:(Float.min delta' (Float.pred 1.0))

module For_testing = struct
  let amplification_factor = amplification_factor
end
