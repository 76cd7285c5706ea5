type t = { lo : Geometry.Vec.t; side : float; grid : Geometry.Grid.t }

let create ~lo ~hi ~axis_size =
  let d = Geometry.Vec.dim lo in
  if Geometry.Vec.dim hi <> d then invalid_arg "Domain.create: dimension mismatch";
  let side = ref 0. in
  for i = 0 to d - 1 do
    if not (lo.(i) < hi.(i)) then invalid_arg "Domain.create: lo must be below hi on every axis";
    side := Float.max !side (hi.(i) -. lo.(i))
  done;
  { lo = Geometry.Vec.copy lo; side = !side; grid = Geometry.Grid.create ~axis_size ~dim:d }

let to_unit t p =
  if Geometry.Vec.dim p <> Geometry.Grid.dim t.grid then
    invalid_arg "Domain.to_unit: dimension mismatch";
  Geometry.Grid.snap t.grid (Array.mapi (fun i x -> (x -. t.lo.(i)) /. t.side) p)

let of_unit t p =
  if Geometry.Vec.dim p <> Geometry.Grid.dim t.grid then
    invalid_arg "Domain.of_unit: dimension mismatch";
  Array.mapi (fun i x -> t.lo.(i) +. (x *. t.side)) p

let radius_of_unit t r = r *. t.side
type result = {
  center : Geometry.Vec.t;
  radius : float;
  unit_result : One_cluster.result;
}

let solve rng profile dom ~eps ~delta ~beta ~t points =
  let unit_points = Array.map (to_unit dom) points in
  match One_cluster.run rng profile ~grid:dom.grid ~eps ~delta ~beta ~t unit_points with
  | Error e -> Error e
  | Ok unit_result ->
      Ok
        {
          center = of_unit dom unit_result.One_cluster.center;
          radius = radius_of_unit dom unit_result.One_cluster.radius;
          unit_result;
        }

module For_testing = struct
  let of_points ?(margin = 0.05) ~axis_size points =
    if Array.length points = 0 then invalid_arg "Domain.of_points: empty";
    let d = Geometry.Vec.dim points.(0) in
    let lo = Array.make d infinity and hi = Array.make d neg_infinity in
    Array.iter
      (fun p ->
        for i = 0 to d - 1 do
          if p.(i) < lo.(i) then lo.(i) <- p.(i);
          if p.(i) > hi.(i) then hi.(i) <- p.(i)
        done)
      points;
    let widest =
      Array.fold_left Float.max 1e-9 (Array.init d (fun i -> hi.(i) -. lo.(i)))
    in
    let pad = margin *. widest in
    let lo = Array.map (fun x -> x -. pad) lo and hi = Array.map (fun x -> x +. pad) hi in
    create ~lo ~hi ~axis_size

  let grid t = t.grid
  let scale t = t.side
  let radius_to_unit t r = r /. t.side

  let of_unit = of_unit
  let radius_of_unit = radius_of_unit
  let to_unit = to_unit
end
