let basic p ~k =
  if k <= 0 then invalid_arg "Composition.basic: k must be positive";
  let kf = float_of_int k in
  Dp.v ~eps:(Dp.eps p *. kf) ~delta:(Float.min (Dp.delta p *. kf) (Float.pred 1.0))

let basic_list = function
  | [] -> invalid_arg "Composition.basic_list: empty"
  | ps ->
      let eps = List.fold_left (fun acc p -> acc +. Dp.eps p) 0. ps in
      let delta = List.fold_left (fun acc p -> acc +. Dp.delta p) 0. ps in
      Dp.v ~eps ~delta:(Float.min delta (Float.pred 1.0))

let advanced_eps ~eps ~k ~delta' =
  let kf = float_of_int k in
  (2. *. kf *. eps *. eps) +. (eps *. sqrt (2. *. kf *. log (1. /. delta')))

let advanced p ~k ~delta' =
  if k <= 0 then invalid_arg "Composition.advanced: k must be positive";
  if not (delta' > 0. && delta' < 1.) then
    invalid_arg "Composition.advanced: delta' must be in (0, 1)";
  let eps' = advanced_eps ~eps:(Dp.eps p) ~k ~delta' in
  let delta = (float_of_int k *. Dp.delta p) +. delta' in
  Dp.v ~eps:eps' ~delta:(Float.min delta (Float.pred 1.0))

let advanced_per_mechanism ~total_eps ~k ~delta' =
  if not (total_eps > 0.) then invalid_arg "Composition.advanced_per_mechanism: eps > 0";
  if k <= 0 then invalid_arg "Composition.advanced_per_mechanism: k must be positive";
  (* advanced_eps is strictly increasing in eps, so bisect. *)
  let target = total_eps in
  let rec bisect lo hi iters =
    if iters = 0 then lo
    else
      let mid = 0.5 *. (lo +. hi) in
      if advanced_eps ~eps:mid ~k ~delta' > target then bisect lo mid (iters - 1)
      else bisect mid hi (iters - 1)
  in
  bisect 0. total_eps 80
