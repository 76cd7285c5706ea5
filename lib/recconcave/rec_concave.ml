type report = { chosen : int; mechanisms : int; eps_each : float; depth : int }

let default_base = 32

let depth ?(base = default_base) size =
  if size < 1 then invalid_arg "Rec_concave.depth: size must be >= 1";
  let rec go size d = if size <= base then d else go (Scale_quality.num_scales size) (d + 1) in
  go size 0

let mechanism_count ?base size = (2 * depth ?base size) + 1

(* Cells of the two staggered partitions of [0, size) into intervals of
   length 2w (clipped to the domain).  Any width-w subinterval of the domain
   is fully contained in at least one cell. *)
let cells ~size ~w =
  let len = 2 * w in
  let clip (lo, hi) = (max 0 lo, min (size - 1) hi) in
  let collect first_start =
    let rec go start acc =
      if start > size - 1 then acc
      else
        let lo, hi = clip (start, start + len - 1) in
        let acc = if lo <= hi then (lo, hi) :: acc else acc in
        go (start + len) acc
    in
    go first_start []
  in
  List.rev_append (collect 0) (collect (-w))

let cell_max q (lo, hi) =
  let best = ref neg_infinity in
  for f = lo to hi do
    let v = Quality.eval q f in
    if v > !best then best := v
  done;
  !best

let solve rng ~eps ?(base = default_base) ?(sensitivity = 1.0) q =
  if not (eps > 0.) then invalid_arg "Rec_concave.solve: eps must be positive";
  if base < 2 then invalid_arg "Rec_concave.solve: base must be >= 2";
  let d = depth ~base (Quality.size q) in
  let mechanisms = (2 * d) + 1 in
  let eps_each = eps /. float_of_int mechanisms in
  (* Stage span: carries the whole ε budget; its exp-mech children sum to
     exactly mechanisms × eps_each = ε. *)
  Obs.Span.with_charged ~cat:"stage"
    ~attrs:(fun () ->
      [ ("depth", Obs.Span.I d);
        ("mechanisms", Obs.Span.I mechanisms);
        ("size", Obs.Span.I (Quality.size q)) ])
    ~eps ~delta:0. "rec_concave"
  @@ fun () ->
  let select qualities =
    Prim.Exp_mech.select rng ~eps:eps_each ~sensitivity ~qualities
  in
  let rec level q =
    let size = Quality.size q in
    if size <= base then select (Array.init size (Quality.eval q))
    else begin
      let j = level (Scale_quality.quality q) in
      let w = Scale_quality.width ~size j in
      let cs = Array.of_list (cells ~size ~w) in
      let cell = cs.(select (Array.map (cell_max q) cs)) in
      let lo, hi = cell in
      lo + select (Array.init (hi - lo + 1) (fun i -> Quality.eval q (lo + i)))
    end
  in
  { chosen = level q; mechanisms; eps_each; depth = d }

let loss_bound ?(base = default_base) ~size ~eps ~beta () =
  if size < 1 then invalid_arg "Rec_concave.loss_bound: size must be >= 1";
  let mechanisms = mechanism_count ~base size in
  let eps_each = eps /. float_of_int mechanisms in
  let beta_each = beta /. float_of_int mechanisms in
  (* Walk the recursion, summing the exponential-mechanism error bound of
     every selection.  Candidate counts: the in-cell selection ranges over at
     most min(2w, size) solutions and the cell selection over at most
     2·size/w cells; both are bounded by 2·size, and the base case by base. *)
  let em n = Prim.Exp_mech.error_bound ~eps:eps_each ~sensitivity:1.0 ~n_candidates:n ~beta:beta_each in
  let rec go size acc =
    if size <= base then acc +. em (max 1 size)
    else
      let acc = acc +. em (2 * size) (* cell selection *) +. em (2 * size) (* in-cell *) in
      go (Scale_quality.num_scales size) acc
  in
  go size 0.

let rec log_star x = if x <= 1. then 0. else 1. +. log_star (log x /. log 2.)

let paper_promise ~eps ~beta ~delta ~domain_size =
  let ls = log_star domain_size in
  (8. ** ls) *. (144. *. ls /. eps) *. log (24. *. ls /. (beta *. delta))

module For_testing = struct
  let cells = cells
  let depth = depth
  let log_star = log_star
  let mechanism_count = mechanism_count
end
