type ball = { center : Vec.t; radius : float }

let contains b p = Vec.dist p b.center <= b.radius +. 1e-12

let exact_1d coords ~t =
  let n = Array.length coords in
  if t < 1 || t > n then invalid_arg "Seb.exact_1d: t must be in [1, n]";
  let sorted = Array.copy coords in
  Array.sort Float.compare sorted;
  let best = ref (sorted.(t - 1) -. sorted.(0)) and best_i = ref 0 in
  for i = 1 to n - t do
    let w = sorted.(i + t - 1) -. sorted.(i) in
    if w < !best then begin
      best := w;
      best_i := i
    end
  done;
  { center = [| 0.5 *. (sorted.(!best_i) +. sorted.(!best_i + t - 1)) |]; radius = 0.5 *. !best }

let two_approx_indexed idx ~t =
  let ps = Pointset.index_pointset idx in
  if t < 1 || t > Pointset.n ps then invalid_arg "Seb.two_approx_indexed: t must be in [1, n]";
  let i, radius = Pointset.min_kth_neighbor_distance idx ~k:t in
  { center = Pointset.point ps i; radius }

let two_approx ps ~t =
  if t < 1 || t > Pointset.n ps then invalid_arg "Seb.two_approx: t must be in [1, n]";
  two_approx_indexed (Pointset.build_index ps) ~t

let farthest_from points c =
  let best = ref 0 and best_d = ref neg_infinity in
  Array.iteri
    (fun i p ->
      let d = Vec.dist_sq p c in
      if d > !best_d then begin
        best_d := d;
        best := i
      end)
    points;
  !best

(* Flat Bădoiu–Clarkson over the rows listed in [offs]; same iteration as
   [min_enclosing_ball] without materializing any point. *)
let farthest_row st offs count d c =
  Kernel.argmax_dist ~st ~offs ~n:count ~q:c ~qoff:0 ~dim:d

let meb_rows ?(iterations = 100) st offs count d =
  let c = Vec.of_row st ~off:offs.(0) ~dim:d in
  for i = 1 to iterations do
    let p_off = offs.(farthest_row st offs count d c) in
    let step = 1. /. float_of_int (i + 1) in
    for j = 0 to d - 1 do
      c.(j) <- c.(j) +. (step *. (st.(p_off + j) -. c.(j)))
    done
  done;
  let r = Vec.dist_to_row st ~off:offs.(farthest_row st offs count d c) ~dim:d c in
  { center = c; radius = r }

(* Row offsets of the [t] points nearest [c].  The comparator only looks at
   the distances, so the sort permutation — and hence the selected rows —
   match the historical boxed implementation exactly. *)
let t_nearest_offs st offs count d ~t c =
  let with_d =
    Array.init count (fun j -> (Vec.dist_sq_to_row st ~off:offs.(j) ~dim:d c, offs.(j)))
  in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) with_d;
  Array.init t (fun i -> snd with_d.(i))

let t_ball_heuristic ?(iterations = 8) ?start ps ~t =
  let start = match start with Some b -> b | None -> two_approx ps ~t in
  let st = Pointset.storage ps and offs = Pointset.row_offsets ps in
  let count = Pointset.n ps and d = Pointset.dim ps in
  let best = ref start in
  let c = ref start.center in
  for _ = 1 to iterations do
    let near = t_nearest_offs st offs count d ~t !c in
    let meb = meb_rows st near t d in
    (* The MEB of the t nearest points always contains t points, so it is a
       feasible solution; keep it if it improves. *)
    if meb.radius < !best.radius then best := meb;
    c := meb.center
  done;
  !best

module For_testing = struct
  let count_inside b points =
    Array.fold_left (fun acc p -> if contains b p then acc + 1 else acc) 0 points

  let min_enclosing_ball ?(iterations = 100) points =
    if Array.length points = 0 then invalid_arg "Seb.min_enclosing_ball: empty";
    let c = Vec.copy points.(0) in
    for i = 1 to iterations do
      let p = points.(farthest_from points c) in
      (* c <- c + (p - c)/(i+1) *)
      let step = 1. /. float_of_int (i + 1) in
      for j = 0 to Array.length c - 1 do
        c.(j) <- c.(j) +. (step *. (p.(j) -. c.(j)))
      done
    done;
    let r = Vec.dist points.(farthest_from points c) c in
    { center = c; radius = r }
end
