let sigma ~eps ~delta ~l2_sensitivity =
  if not (eps > 0.) then invalid_arg "Gaussian_mech.sigma: eps must be positive";
  if not (delta > 0. && delta < 1.) then
    invalid_arg "Gaussian_mech.sigma: delta must be in (0, 1)";
  if not (l2_sensitivity >= 0.) then
    invalid_arg "Gaussian_mech.sigma: sensitivity must be non-negative";
  (* Theorem 2.4's calibration is only proved for ε < 1; for larger budgets
     we keep the ε = 1 noise level, which gives strictly more privacy than
     requested (the caller simply does not benefit from the surplus ε). *)
  let eps = Float.min eps (1. -. 1e-9) in
  l2_sensitivity /. eps *. sqrt (2. *. log (1.25 /. delta))

(* Uncharged: the caller owns the (ε, δ) that calibrated [sigma] (e.g.
   [Noisy_avg] charges its whole budget on its own span). *)
let vector_with_sigma rng ~sigma v = Array.map (fun x -> x +. Rng.gaussian rng ~sigma ()) v

let vector rng ~eps ~delta ~l2_sensitivity v =
  Obs.Span.with_charged
    ~attrs:(fun () ->
      [ ("sensitivity", Obs.Span.F l2_sensitivity); ("dim", Obs.Span.I (Array.length v)) ])
    ~eps ~delta "gaussian_vector"
    (fun () -> vector_with_sigma rng ~sigma:(sigma ~eps ~delta ~l2_sensitivity) v)

let coordinate_tail_bound ~sigma ~dim ~beta =
  if not (beta > 0. && beta <= 1.) then
    invalid_arg "Gaussian_mech.coordinate_tail_bound: beta in (0, 1]";
  if dim <= 0 then invalid_arg "Gaussian_mech.coordinate_tail_bound: dim must be positive";
  sigma *. sqrt (2. *. log (2. *. float_of_int dim /. beta))
