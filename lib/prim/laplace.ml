(* [noise_raw] is the uninstrumented core; the public entry points wrap it
   in one charged span each so a traced vector release records a single
   span (the per-coordinate draws share the one ε budget), and [scalar]
   does not double-record through [noise]. *)
let noise_raw rng ~eps ~sensitivity =
  if not (eps > 0.) then invalid_arg "Laplace.noise: eps must be positive";
  if not (sensitivity > 0.) then invalid_arg "Laplace.noise: sensitivity must be positive";
  Rng.laplace rng ~scale:(sensitivity /. eps) ()

let attrs ~sensitivity () = [ ("sensitivity", Obs.Span.F sensitivity) ]

let noise rng ~eps ~sensitivity =
  Obs.Span.with_charged ~attrs:(attrs ~sensitivity) ~eps ~delta:0. "laplace" (fun () ->
      noise_raw rng ~eps ~sensitivity)

let scalar rng ~eps ~sensitivity x =
  Obs.Span.with_charged ~attrs:(attrs ~sensitivity) ~eps ~delta:0. "laplace" (fun () ->
      x +. noise_raw rng ~eps ~sensitivity)

let count rng ~eps n = scalar rng ~eps ~sensitivity:1.0 (float_of_int n)

let tail_bound ~eps ~sensitivity ~beta =
  if not (beta > 0. && beta <= 1.) then invalid_arg "Laplace.tail_bound: beta in (0, 1]";
  sensitivity /. eps *. log (1. /. beta)

let cdf ~eps ~sensitivity ?(mu = 0.) x =
  if not (eps > 0.) then invalid_arg "Laplace.cdf: eps must be positive";
  if not (sensitivity > 0.) then invalid_arg "Laplace.cdf: sensitivity must be positive";
  let scale = sensitivity /. eps in
  let z = (x -. mu) /. scale in
  if z < 0. then 0.5 *. exp z else 1. -. (0.5 *. exp (-.z))
