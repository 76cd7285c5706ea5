(* k-d tree over flat row-major storage.  The tree never copies point
   coordinates: it keeps a reference to the backing store and permutes an
   array of row offsets.  Every leaf holds at least one row, and every
   count is an integer sum of per-point ball tests, so any tree over the
   same rows gives the same answers. *)

type node =
  | Leaf of { lo : int; hi : int }  (** [idx.(lo..hi)] inclusive. *)
  | Split of {
      axis : int;
      threshold : float;  (** left: coordinate <= threshold; right: >. *)
      left : node;
      right : node;
      bbox_lo : Vec.t;
      bbox_hi : Vec.t;
      size : int;
    }

(* [pos.(i)] is the position, in the build's input order, of the row at
   [idx.(i)]; [select] permutes the two arrays together. *)
type t = { st : float array; idx : int array; pos : int array; root : node; size : int; dim : int }

(* One constant for every d, chosen by measurement on the d = 2 planted
   sets the serving workloads use: first use (build, cold sweep, r_opt)
   took up to 20% longer at 16 and no less at 128 or 256
   (PERFORMANCE.md §4). *)
let leaf_capacity = 64

let bbox st dim idx lo hi =
  let blo = Array.make dim infinity and bhi = Array.make dim neg_infinity in
  for i = lo to hi do
    let off = idx.(i) in
    for j = 0 to dim - 1 do
      let x = st.(off + j) in
      if x < blo.(j) then blo.(j) <- x;
      if x > bhi.(j) then bhi.(j) <- x
    done
  done;
  (blo, bhi)

let widest_axis lo hi =
  let best = ref 0 and best_w = ref neg_infinity in
  Array.iteri
    (fun i l ->
      let w = hi.(i) -. l in
      if w > !best_w then begin
        best_w := w;
        best := i
      end)
    lo;
  !best

(* In-place quickselect partition of idx[lo..hi] (and pos alongside) by
   coordinate [axis] so that index mid holds the median element.  The
   annotation keeps the comparisons on unboxed floats: left polymorphic,
   every [<] is a [caml_lessthan] call on freshly boxed floats. *)
let rec select (st : float array) idx pos axis lo hi mid =
  if lo < hi then begin
    let pivot = st.(idx.((lo + hi) / 2) + axis) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while st.(idx.(!i) + axis) < pivot do incr i done;
      while st.(idx.(!j) + axis) > pivot do decr j done;
      if !i <= !j then begin
        let tmp = idx.(!i) in
        idx.(!i) <- idx.(!j);
        idx.(!j) <- tmp;
        let tmp = pos.(!i) in
        pos.(!i) <- pos.(!j);
        pos.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    if mid <= !j then select st idx pos axis lo !j mid
    else if mid >= !i then select st idx pos axis !i hi mid
  end

let rec build_node st dim idx pos lo hi =
  let n = hi - lo + 1 in
  if n <= leaf_capacity then Leaf { lo; hi }
  else begin
    let blo, bhi = bbox st dim idx lo hi in
    let axis = widest_axis blo bhi in
    if bhi.(axis) -. blo.(axis) <= 0. then Leaf { lo; hi }
    else begin
      let mid = lo + (n / 2) in
      select st idx pos axis lo hi mid;
      let threshold = st.(idx.(mid) + axis) in
      Split
        {
          axis;
          threshold;
          left = build_node st dim idx pos lo mid;
          right = build_node st dim idx pos (mid + 1) hi;
          bbox_lo = blo;
          bbox_hi = bhi;
          size = n;
        }
    end
  end

let build_flat ~storage ~offs ~dim () =
  let n = Array.length offs in
  if n = 0 then invalid_arg "Kdtree.build: empty";
  let idx = Array.copy offs and pos = Array.init n Fun.id in
  { st = storage; idx; pos; root = build_node storage dim idx pos 0 (n - 1); size = n; dim }

let leaves t =
  let starts = ref [ t.size ] in
  let rec walk = function
    | Leaf { lo; _ } -> starts := lo :: !starts
    | Split { left; right; _ } ->
        walk right;
        walk left
  in
  walk t.root;
  (Array.copy t.pos, Array.of_list !starts)

(* Squared distance from a point to an axis-aligned box. *)
let box_dist_sq lo hi p =
  let acc = ref 0. in
  for i = 0 to Array.length p - 1 do
    let d = if p.(i) < lo.(i) then lo.(i) -. p.(i) else if p.(i) > hi.(i) then p.(i) -. hi.(i) else 0. in
    acc := !acc +. (d *. d)
  done;
  !acc

(* Squared distance from a point to the farthest corner of a box. *)
let box_far_dist_sq lo hi p =
  let acc = ref 0. in
  for i = 0 to Array.length p - 1 do
    let d = Float.max (Float.abs (p.(i) -. lo.(i))) (Float.abs (p.(i) -. hi.(i))) in
    acc := !acc +. (d *. d)
  done;
  !acc

(* Same, against a flat row rather than a boxed center. *)
let box_dist_sq_row lo hi cst coff =
  let acc = ref 0. in
  for i = 0 to Array.length lo - 1 do
    let x = cst.(coff + i) in
    let d = if x < lo.(i) then lo.(i) -. x else if x > hi.(i) then x -. hi.(i) else 0. in
    acc := !acc +. (d *. d)
  done;
  !acc

let box_far_dist_sq_row lo hi cst coff =
  let acc = ref 0. in
  for i = 0 to Array.length lo - 1 do
    let x = cst.(coff + i) in
    let d = Float.max (Float.abs (x -. lo.(i))) (Float.abs (x -. hi.(i))) in
    acc := !acc +. (d *. d)
  done;
  !acc

let node_size = function Leaf { lo; hi } -> hi - lo + 1 | Split { size; _ } -> size

let rec count_node t node center r2 =
  match node with
  | Leaf { lo; hi } ->
      Kernel.count_within ~st:t.st ~offs:t.idx ~lo ~hi ~q:center ~qoff:0 ~dim:t.dim ~r2
  | Split { left; right; bbox_lo; bbox_hi; _ } ->
      if box_dist_sq bbox_lo bbox_hi center > r2 then 0
      else if box_far_dist_sq bbox_lo bbox_hi center <= r2 then node_size node
      else count_node t left center r2 + count_node t right center r2

(* Every query compares squared distances against [Vec.ball_r2 radius], so
   it counts exactly the points with [sqrt acc <= radius].  Pruning stays
   exact against any threshold: correctly rounded subtraction, squaring
   and summation are monotone, so no point in a box has a smaller
   computed squared distance than the box's near bound, nor a larger one
   than its far bound.  A negative radius gives [neg_infinity]: the root
   prunes and the count is 0. *)
let count_within t ~center ~radius = count_node t t.root center (Vec.ball_r2 radius)

(* Center given as a row of some flat store (possibly [t]'s own). *)
let rec count_node_row t node cst coff r2 =
  match node with
  | Leaf { lo; hi } ->
      Kernel.count_within ~st:t.st ~offs:t.idx ~lo ~hi ~q:cst ~qoff:coff ~dim:t.dim ~r2
  | Split { left; right; bbox_lo; bbox_hi; _ } ->
      if box_dist_sq_row bbox_lo bbox_hi cst coff > r2 then 0
      else if box_far_dist_sq_row bbox_lo bbox_hi cst coff <= r2 then node_size node
      else count_node_row t left cst coff r2 + count_node_row t right cst coff r2

let count_within_row t cst ~off ~radius = count_node_row t t.root cst off (Vec.ball_r2 radius)

module For_testing = struct
  let build points =
    let n = Array.length points in
    if n = 0 then invalid_arg "Kdtree.build: empty";
    let d = Vec.dim points.(0) in
    Array.iter
      (fun p -> if Vec.dim p <> d then invalid_arg "Kdtree.build: mixed dimensions")
      points;
    let storage = Array.make (n * d) 0. in
    Array.iteri (fun i p -> Vec.set_row storage ~off:(i * d) p) points;
    build_flat ~storage ~offs:(Array.init n (fun i -> i * d)) ~dim:d ()

  let size t = t.size
  let dim t = t.dim
end
