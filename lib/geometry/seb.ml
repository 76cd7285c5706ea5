type ball = { center : Vec.t; radius : float }

let contains b p = Vec.dist p b.center <= b.radius +. 1e-12

let count_inside b points =
  Array.fold_left (fun acc p -> if contains b p then acc + 1 else acc) 0 points

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

let two_approx ps ~t =
  let n = Pointset.n ps in
  if t < 1 || t > n then invalid_arg "Seb.two_approx: t must be in [1, n]";
  let st = Pointset.storage ps and offs = Pointset.row_offsets ps in
  let d = Pointset.dim ps in
  let best = ref infinity and best_i = ref 0 in
  let dists = Array.make n 0. in
  for i = 0 to n - 1 do
    Kernel.dists_to_rows ~st ~offs ~n ~q:st ~qoff:offs.(i) ~dim:d ~out:dists;
    (* [dists] is refilled next iteration, so the destructive quickselect
       scratch is free; the k-th order statistic equals the sorted read. *)
    let r = Kernel.kth_smallest dists ~len:n ~k:t in
    if r < !best then begin
      best := r;
      best_i := i
    end
  done;
  { center = Pointset.point ps !best_i; radius = !best }

let two_approx_indexed idx ~t =
  let ps = Pointset.index_pointset idx in
  let n = Pointset.n ps in
  if t < 1 || t > n then invalid_arg "Seb.two_approx_indexed: t must be in [1, n]";
  let best = ref infinity and best_i = ref 0 in
  for i = 0 to n - 1 do
    (* Pruned but exact: evaluate point i only if it is the first of its
       identical points and its ball of the running best radius already
       holds t points.  A duplicate (not a representative) has exactly its
       representative's t-th distance, which was already evaluated or
       pruned, so the best is already <= it.  A count skip happens when
       count(best) < t.  The count and the t-th distance use one
       predicate, [sqrt acc <= r] (Pointset), so count(best) < t is
       exactly "the t-th distance exceeds best": the strict [<] below
       would not have fired, and the skip changes neither radius nor
       center (first index still wins ties).  The first probe, at radius
       infinity, always holds. *)
    if Pointset.is_representative idx i && Pointset.holds_at_least idx ~radius:!best ~k:t i then begin
      let r = Pointset.kth_neighbor_distance idx ~k:t i in
      if r < !best then begin
        best := r;
        best_i := i
      end
    end
  done;
  { center = Pointset.point ps !best_i; radius = !best }

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

let t_ball_heuristic ?(iterations = 8) ps ~t =
  let start = two_approx ps ~t in
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
