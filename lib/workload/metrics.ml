type score = {
  covered : int;
  delta_measured : int;
  ratio_vs_hi : float;
  ratio_vs_lo : float;
  r_lo : float;
  r_hi : float;
}

let score_with_bounds ~r_lo ~r_hi ps ~t ~center ~radius =
  let covered = Geometry.Pointset.ball_count ps ~center ~radius in
  let r_lo = Float.min r_lo r_hi in
  let safe_div a b = if b <= 0. then Float.infinity else a /. b in
  {
    covered;
    delta_measured = max 0 (t - covered);
    ratio_vs_hi = safe_div radius r_hi;
    ratio_vs_lo = safe_div radius r_lo;
    r_lo;
    r_hi;
  }

let r_opt_bounds_indexed idx ~t =
  let b = Geometry.Seb.two_approx_indexed idx ~t in
  let r2 = b.Geometry.Seb.radius in
  (r2 /. 2., r2)

let score ?planted_radius ps ~t ~center ~radius =
  let r_lo, r_hi = Baselines.Nonprivate.r_opt_bounds ps ~t in
  let r_hi = match planted_radius with Some r -> Float.min r_hi r | None -> r_hi in
  score_with_bounds ~r_lo ~r_hi ps ~t ~center ~radius

let tight_radius ps ~center ~t =
  let st = Geometry.Pointset.storage ps and d = Geometry.Pointset.dim ps in
  let dists =
    Array.map
      (fun off -> Geometry.Vec.dist_to_row st ~off ~dim:d center)
      (Geometry.Pointset.row_offsets ps)
  in
  Array.sort Float.compare dists;
  dists.(min (Array.length dists - 1) (max 0 (t - 1)))

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let quantile xs ~q =
  match xs with
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else
        let frac = pos -. float_of_int i in
        (a.(i) *. (1. -. frac)) +. (a.(i + 1) *. frac)

let median xs = quantile xs ~q:0.5

module For_testing = struct
  let success s ~t ~max_delta ~max_ratio =
    s.covered >= t - max_delta && s.ratio_vs_hi <= max_ratio

  let score_with_bounds = score_with_bounds
end
