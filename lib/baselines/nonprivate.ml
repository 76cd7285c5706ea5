type answer = { center : Geometry.Vec.t; radius : float; exact : bool }

(* [start]: the 2-approximation, when the caller already computed it. *)
let solve_from ?start ps ~t =
  if Geometry.Pointset.dim ps = 1 then begin
    let coords = Geometry.Pointset.coords_axis ps 0 in
    let b = Geometry.Seb.exact_1d coords ~t in
    { center = b.Geometry.Seb.center; radius = b.Geometry.Seb.radius; exact = true }
  end
  else begin
    let b = Geometry.Seb.t_ball_heuristic ?start ps ~t in
    { center = b.Geometry.Seb.center; radius = b.Geometry.Seb.radius; exact = false }
  end

let solve ps ~t = solve_from ps ~t

let r_opt_bounds ps ~t =
  let approx2 = Geometry.Seb.two_approx ps ~t in
  let best = solve_from ~start:approx2 ps ~t in
  let hi = Float.min approx2.Geometry.Seb.radius best.radius in
  let lo = if best.exact then best.radius else approx2.Geometry.Seb.radius /. 2. in
  (lo, hi)

module For_testing = struct
  let two_approx ps ~t =
    let b = Geometry.Seb.two_approx ps ~t in
    { center = b.Geometry.Seb.center; radius = b.Geometry.Seb.radius; exact = false }
end
