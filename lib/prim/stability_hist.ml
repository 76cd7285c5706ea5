type 'k cell = { key : 'k; count : int; noisy_count : float }

let release_threshold ~eps ~delta =
  if not (eps > 0.) then invalid_arg "Stability_hist: eps must be positive";
  if not (delta > 0. && delta < 1.) then invalid_arg "Stability_hist: delta must be in (0, 1)";
  1. +. (2. /. eps *. log (2. /. delta))

let count_by ~key data =
  let tbl = Hashtbl.create (max 16 (Array.length data)) in
  let firsts = ref [] in
  Array.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some c -> incr c
      | None ->
          let c = ref 1 in
          Hashtbl.add tbl k c;
          firsts := (k, c) :: !firsts)
    data;
  List.rev_map (fun (k, c) -> (k, !c)) !firsts

let noisy_cells rng ~eps cells =
  List.map
    (fun (key, count) ->
      let noisy_count = float_of_int count +. Rng.laplace rng ~scale:(2. /. eps) () in
      { key; count; noisy_count })
    cells

let select rng ~eps ~delta cells =
  Obs.Span.with_charged
    ~attrs:(fun () -> [ ("cells", Obs.Span.I (List.length cells)) ])
    ~eps ~delta "stability_hist"
    (fun () ->
      let threshold = release_threshold ~eps ~delta in
      let best =
        List.fold_left
          (fun acc c ->
            match acc with
            | Some b when b.noisy_count >= c.noisy_count -> acc
            | _ -> Some c)
          None
          (noisy_cells rng ~eps cells)
      in
      match best with Some c when c.noisy_count >= threshold -> Some c | _ -> None)

let select_by rng ~eps ~delta ~key data = select rng ~eps ~delta (count_by ~key data)

let utility_requirement ~eps ~delta ~n ~beta =
  2. /. eps *. log (4. *. float_of_int n /. (beta *. delta))

let utility_loss ~eps ~n ~beta = 4. /. eps *. log (2. *. float_of_int n /. beta)
