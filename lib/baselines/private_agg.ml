type result = { center : Geometry.Vec.t; radius : float }

let coordinate_median rng ~grid ~eps coords =
  let axis = Geometry.Grid.axis_size grid in
  let h = Geometry.Grid.step grid in
  let n2 = float_of_int (Array.length coords) /. 2. in
  let candidates = Array.init axis (fun i -> float_of_int i *. h) in
  let rank v = Array.fold_left (fun acc x -> if x <= v then acc + 1 else acc) 0 coords in
  let qualities =
    Array.map (fun v -> -.Float.abs (float_of_int (rank v) -. n2)) candidates
  in
  candidates.(Prim.Exp_mech.select rng ~eps ~sensitivity:1.0 ~qualities)

let run rng ~grid ~eps ~t ps =
  let d = Geometry.Pointset.dim ps in
  if d <> Geometry.Grid.dim grid then invalid_arg "Private_agg.run: dimension mismatch";
  let eps_axis = eps /. 2. /. float_of_int d in
  let center =
    Array.init d (fun i ->
        coordinate_median rng ~grid ~eps:eps_axis (Geometry.Pointset.coords_axis ps i))
  in
  (* Private radius search: the in-ball count around the (now public) center
     is a monotone sensitivity-1 function of the radius. *)
  let size = Geometry.Grid.radius_candidates grid in
  let count =
    Recconcave.Quality.create ~size ~f:(fun i ->
        float_of_int
          (Geometry.Pointset.ball_count ps ~center
             ~radius:(Geometry.Grid.radius_of_index grid i)))
  in
  let slack =
    Recconcave.Monotone_search.accuracy_bound ~size ~eps:(eps /. 2.) ~sensitivity:1.0 ~beta:0.1
  in
  let search =
    Recconcave.Monotone_search.solve rng ~eps:(eps /. 2.) ~sensitivity:1.0
      ~target:(float_of_int t -. slack)
      count
  in
  { center; radius = Geometry.Grid.radius_of_index grid search.Recconcave.Monotone_search.index }

let gupt_average rng ~grid ~eps ~delta points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Private_agg.gupt_average: empty";
  let sensitivity = Geometry.Grid.diameter grid /. float_of_int n in
  Prim.Gaussian_mech.vector rng ~eps ~delta ~l2_sensitivity:sensitivity
    (Geometry.Vec.mean points)

module For_testing = struct
  let coordinate_median = coordinate_median
end
