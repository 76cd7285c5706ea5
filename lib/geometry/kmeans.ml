type result = { centers : Vec.t array; inertia : float; iterations : int }

let assign centers p =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun i c ->
      let d = Vec.dist_sq p c in
      if d < !best_d then begin
        best_d := d;
        best := i
      end)
    centers;
  !best

let inertia ~centers points =
  Array.fold_left
    (fun acc p -> acc +. Vec.dist_sq p centers.(assign centers p))
    0. points

(* Lexicographic order on coordinate vectors. *)
let compare_vec a b =
  let rec go i =
    if i = Array.length a then 0
    else
      let c = Float.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let canonical_order centers =
  let sorted = Array.copy centers in
  Array.sort compare_vec sorted;
  sorted

(* k-means++ over flat row-major storage: each next seed drawn
   proportionally to its squared distance from the chosen set.  Returns the
   k seeds as a flat k×d matrix.  The RNG draw sequence and every float
   operation mirror the historical boxed implementation exactly. *)
let seed_plus_plus_rows rng ~k st n d =
  let cst = Array.make (k * d) 0. in
  let blit_row i j = Array.blit st (i * d) cst (j * d) d in
  blit_row (Prim.Rng.int rng n) 0;
  let dist2 = Array.make n infinity in
  Kernel.min_dist2_update ~st ~n ~dim:d ~centers:cst ~coff:0 ~dist2;
  for j = 1 to k - 1 do
    let total = Array.fold_left ( +. ) 0. dist2 in
    let next =
      if total <= 0. then Prim.Rng.int rng n
      else begin
        let x = Prim.Rng.float rng total in
        let acc = ref 0. and chosen = ref (n - 1) in
        (try
           Array.iteri
             (fun i d ->
               acc := !acc +. d;
               if x < !acc then begin
                 chosen := i;
                 raise Exit
               end)
             dist2
         with Exit -> ());
        !chosen
      end
    in
    blit_row next j;
    (* min-update: distances are never NaN or -0, so "replace when strictly
       smaller" is bit-identical to the historical [Float.min] fold. *)
    Kernel.min_dist2_update ~st ~n ~dim:d ~centers:cst ~coff:(j * d) ~dist2
  done;
  cst

let assign_rows cst k st p_off d =
  Kernel.argmin_center ~st ~off:p_off ~centers:cst ~k ~dim:d

let lloyd rng ~k ?(max_iterations = 64) ?(tolerance = 1e-9) points =
  let n = Array.length points in
  if k < 1 then invalid_arg "Kmeans.lloyd: k must be >= 1";
  if n < k then invalid_arg "Kmeans.lloyd: fewer points than centers";
  let d = Vec.dim points.(0) in
  let st = Array.make (n * d) 0. in
  Array.iteri
    (fun i p ->
      if Vec.dim p <> d then invalid_arg "Kmeans.lloyd: mixed dimensions";
      Vec.set_row st ~off:(i * d) p)
    points;
  let cst = ref (seed_plus_plus_rows rng ~k st n d) in
  let iterations = ref 0 in
  let moved = ref infinity in
  while !iterations < max_iterations && !moved > tolerance do
    incr iterations;
    let sums = Array.make (k * d) 0. in
    let counts = Array.make k 0 in
    for i = 0 to n - 1 do
      let j = assign_rows !cst k st (i * d) d in
      let sb = j * d and pb = i * d in
      for l = 0 to d - 1 do
        sums.(sb + l) <- (1.0 *. st.(pb + l)) +. sums.(sb + l)
      done;
      counts.(j) <- counts.(j) + 1
    done;
    let next = Array.make (k * d) 0. in
    for j = 0 to k - 1 do
      if counts.(j) = 0 then
        (* Empty cluster: re-seed on a random point. *)
        Array.blit st (Prim.Rng.int rng n * d) next (j * d) d
      else begin
        let inv = 1. /. float_of_int counts.(j) in
        for l = 0 to d - 1 do
          next.((j * d) + l) <- inv *. sums.((j * d) + l)
        done
      end
    done;
    let m = ref 0. in
    for j = 0 to k - 1 do
      m := Float.max !m (Vec.dist_rows !cst (j * d) next (j * d) ~dim:d)
    done;
    moved := !m;
    cst := next
  done;
  let centers =
    canonical_order (Array.init k (fun j -> Vec.of_row !cst ~off:(j * d) ~dim:d))
  in
  { centers; inertia = inertia ~centers points; iterations = !iterations }

let flatten centers = Array.concat (Array.to_list centers)

let unflatten ~d v =
  let len = Array.length v in
  if d < 1 || len mod d <> 0 then invalid_arg "Kmeans.unflatten: length not a multiple of d";
  Array.init (len / d) (fun i -> Array.sub v (i * d) d)

module For_testing = struct
  let canonical_order = canonical_order
  let inertia = inertia
end
