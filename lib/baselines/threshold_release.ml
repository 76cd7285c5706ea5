type tree = {
  noisy : float array array;  (** [noisy.(level).(i)] — level 0 = leaves. *)
  leaves : int;  (** Padded to a power of two. *)
  axis : int;
  step : float;
}

let levels t = Array.length t.noisy

let bucket_of t x =
  let i = int_of_float (Float.round (x /. t.step)) in
  max 0 (min (t.axis - 1) i)

let release rng ~grid ~eps values =
  if Geometry.Grid.dim grid <> 1 then invalid_arg "Threshold_release.release: grid must be 1-D";
  if not (eps > 0.) then invalid_arg "Threshold_release.release: eps must be positive";
  let axis = Geometry.Grid.axis_size grid in
  let leaves =
    let rec pow2 p = if p >= axis then p else pow2 (2 * p) in
    pow2 1
  in
  let num_levels =
    let rec go p l = if p >= leaves then l + 1 else go (2 * p) (l + 1) in
    go 1 0
  in
  let t =
    { noisy = [||]; leaves; axis; step = Geometry.Grid.step grid }
  in
  let counts = Array.make leaves 0 in
  Array.iter (fun x -> counts.(bucket_of t x) <- counts.(bucket_of t x) + 1) values;
  (* Each point contributes to one node per level: the tree's L1 sensitivity
     is [num_levels], so Lap(num_levels/ε) per node gives (ε, 0)-DP. *)
  let scale = float_of_int num_levels /. eps in
  let noisy = Array.make num_levels [||] in
  let current = ref (Array.map float_of_int counts) in
  for level = 0 to num_levels - 1 do
    noisy.(level) <- Array.map (fun c -> c +. Prim.Rng.laplace rng ~scale ()) !current;
    let w = Array.length !current in
    if w > 1 then
      current := Array.init (w / 2) (fun i -> !current.(2 * i) +. !current.((2 * i) + 1))
  done;
  { t with noisy }

(* Canonical dyadic decomposition of the bucket range [a, b]. *)
let bucket_range_count t ~a ~b =
  let rec go level node_lo node_hi =
    if node_hi < a || node_lo > b then 0.
    else if a <= node_lo && node_hi <= b then t.noisy.(level).(node_lo lsr level)
    else
      let mid = (node_lo + node_hi) / 2 in
      go (level - 1) node_lo mid +. go (level - 1) (mid + 1) node_hi
  in
  go (levels t - 1) 0 (t.leaves - 1)

let range_count t ~lo ~hi =
  if hi < lo then 0. else bucket_range_count t ~a:(bucket_of t lo) ~b:(bucket_of t hi)

let query_error_bound ~grid ~eps ~beta =
  let axis = Geometry.Grid.axis_size grid in
  let lvls = Float.ceil (log (float_of_int axis) /. log 2.) +. 1. in
  (* A range touches m ≤ 2·levels nodes, each Lap(b) with b = levels/ε; the
     sum of m independent Laplace variables concentrates like
     b·√(2m·ln(2/β')) in its sub-Gaussian regime (Chernoff for the Laplace
     mgf), with β' the per-range budget after a union bound over the ≤ |X|²
     ranges.  This is the O(log^{1.5}|X|/ε) rate the literature quotes for
     the tree mechanism. *)
  let m = 2. *. lvls in
  let beta' = beta /. float_of_int (axis * axis) in
  lvls /. eps *. sqrt (2. *. m *. log (2. /. beta'))

type result = { center : Geometry.Vec.t; radius : float; estimated_count : float }

let smallest_interval t ~t:target ~slack =
  let axis = t.axis in
  let prefix = Array.make (axis + 1) 0. in
  for i = 0 to axis - 1 do
    prefix.(i + 1) <- bucket_range_count t ~a:0 ~b:i
  done;
  let need = float_of_int target -. slack in
  let best_for_len len =
    (* Best window [a, a+len-1] of len buckets. *)
    let best = ref neg_infinity and best_a = ref 0 in
    for a = 0 to axis - len do
      let c = prefix.(a + len) -. prefix.(a) in
      if c > !best then begin
        best := c;
        best_a := a
      end
    done;
    (!best, !best_a)
  in
  let rec search lo hi =
    (* Invariant: windows of length hi reach the target; lo-length do not. *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if fst (best_for_len mid) >= need then search lo mid else search mid hi
  in
  let len = if fst (best_for_len 1) >= need then 1 else search 1 axis in
  let count, a = best_for_len len in
  let lo_val = float_of_int a *. t.step in
  let hi_val = float_of_int (a + len - 1) *. t.step in
  {
    center = [| 0.5 *. (lo_val +. hi_val) |];
    radius = 0.5 *. (hi_val -. lo_val);
    estimated_count = count;
  }

let run rng ~grid ~eps ~beta ~t:target values =
  let tree = release rng ~grid ~eps values in
  let slack = query_error_bound ~grid ~eps ~beta in
  smallest_interval tree ~t:target ~slack

module For_testing = struct
  let levels = levels
  let smallest_interval = smallest_interval
end
