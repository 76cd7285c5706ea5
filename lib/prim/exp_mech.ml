let select rng ~eps ~sensitivity ~qualities =
  if Array.length qualities = 0 then invalid_arg "Exp_mech.select: empty candidate set";
  if not (eps > 0.) then invalid_arg "Exp_mech.select: eps must be positive";
  if not (sensitivity > 0.) then invalid_arg "Exp_mech.select: sensitivity must be positive";
  Obs.Span.with_charged
    ~attrs:(fun () ->
      [ ("candidates", Obs.Span.I (Array.length qualities));
        ("sensitivity", Obs.Span.F sensitivity) ])
    ~eps ~delta:0. "exp_mech"
    (fun () ->
      let scale = eps /. (2. *. sensitivity) in
      let log_weights = Array.map (fun q -> scale *. q) qualities in
      Rng.categorical_log rng ~log_weights)

let probabilities ~eps ~sensitivity ~qualities =
  if Array.length qualities = 0 then invalid_arg "Exp_mech.probabilities: empty candidate set";
  if not (eps > 0.) then invalid_arg "Exp_mech.probabilities: eps must be positive";
  if not (sensitivity > 0.) then
    invalid_arg "Exp_mech.probabilities: sensitivity must be positive";
  let scale = eps /. (2. *. sensitivity) in
  let m = Array.fold_left (fun acc q -> Float.max acc (scale *. q)) neg_infinity qualities in
  let w = Array.map (fun q -> exp ((scale *. q) -. m)) qualities in
  let z = Array.fold_left ( +. ) 0. w in
  Array.map (fun x -> x /. z) w

let error_bound ~eps ~sensitivity ~n_candidates ~beta =
  if n_candidates <= 0 then invalid_arg "Exp_mech.error_bound: need candidates";
  if not (beta > 0. && beta <= 1.) then invalid_arg "Exp_mech.error_bound: beta in (0, 1]";
  2. *. sensitivity /. eps *. log (float_of_int n_candidates /. beta)
