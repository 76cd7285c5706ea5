type rho = float

let of_pure_dp ~eps =
  if not (eps > 0.) then invalid_arg "Zcdp.of_pure_dp: eps must be positive";
  eps *. eps /. 2.

let compose rhos =
  List.iter (fun r -> if r < 0. then invalid_arg "Zcdp.compose: negative rho") rhos;
  List.fold_left ( +. ) 0. rhos

let to_dp rho ~delta =
  if rho < 0. then invalid_arg "Zcdp.to_dp: negative rho";
  if not (delta > 0. && delta < 1.) then invalid_arg "Zcdp.to_dp: delta must be in (0, 1)";
  Dp.v ~eps:(rho +. (2. *. sqrt (rho *. log (1. /. delta)))) ~delta

module For_testing = struct
  let of_gaussian ~sigma ~l2_sensitivity =
    if not (sigma > 0.) then invalid_arg "Zcdp.of_gaussian: sigma must be positive";
    l2_sensitivity *. l2_sensitivity /. (2. *. sigma *. sigma)

  let eps_budget_to_rho ~eps ~delta =
    if not (eps > 0.) then invalid_arg "Zcdp.eps_budget_to_rho: eps must be positive";
    (* eps(ρ) = ρ + 2√(ρ·ln(1/δ)) is strictly increasing; bisect. *)
    let target = eps in
    let rec bisect lo hi iters =
      if iters = 0 then lo
      else
        let mid = 0.5 *. (lo +. hi) in
        if Dp.eps (to_dp mid ~delta) > target then bisect lo mid (iters - 1)
        else bisect mid hi (iters - 1)
    in
    bisect 0. eps 80

  let gaussian_sigma ~rho ~l2_sensitivity =
    if not (rho > 0.) then invalid_arg "Zcdp.gaussian_sigma: rho must be positive";
    l2_sensitivity /. sqrt (2. *. rho)

  let per_mechanism_rho ~total_rho ~k =
    if k <= 0 then invalid_arg "Zcdp.per_mechanism_rho: k must be positive";
    if total_rho < 0. then invalid_arg "Zcdp.per_mechanism_rho: negative rho";
    total_rho /. float_of_int k
end
