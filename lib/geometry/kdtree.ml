(* k-d tree over flat row-major storage.  The tree never copies point
   coordinates: it keeps a reference to the backing store and permutes an
   array of row offsets.  The build replays exactly the same
   median-quickselect comparison sequence as the historical boxed build, so
   tree structure and query results are bit-identical to the old
   [Vec.t array] implementation on the same input. *)

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

type t = { st : float array; idx : int array; root : node; size : int; dim : int }

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

(* In-place quickselect partition of idx[lo..hi] by coordinate [axis] so
   that index mid holds the median element. *)
let rec select st idx axis lo hi mid =
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
        incr i;
        decr j
      end
    done;
    if mid <= !j then select st idx axis lo !j mid
    else if mid >= !i then select st idx axis !i hi mid
  end

let rec build_node st dim idx lo hi =
  let n = hi - lo + 1 in
  if n <= leaf_capacity then Leaf { lo; hi }
  else begin
    let blo, bhi = bbox st dim idx lo hi in
    let axis = widest_axis blo bhi in
    if bhi.(axis) -. blo.(axis) <= 0. then Leaf { lo; hi }
    else begin
      let mid = lo + (n / 2) in
      select st idx axis lo hi mid;
      let threshold = st.(idx.(mid) + axis) in
      Split
        {
          axis;
          threshold;
          left = build_node st dim idx lo mid;
          right = build_node st dim idx (mid + 1) hi;
          bbox_lo = blo;
          bbox_hi = bhi;
          size = n;
        }
    end
  end

let build_flat ~storage ~offs ~dim () =
  let n = Array.length offs in
  if n = 0 then invalid_arg "Kdtree.build: empty";
  let idx = Array.copy offs in
  { st = storage; idx; root = build_node storage dim idx 0 (n - 1); size = n; dim }

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

(* --- incremental maintenance ------------------------------------------- *)

(* Re-point the tree at a grown backing store whose prefix is the old one.
   Every offset the tree holds indexes the identical coordinates, so all
   query results are bit-identical; only the array the reads go through
   changes.  The caller owns the prefix-equality contract (the registry's
   append-only arena satisfies it by construction). *)
let with_storage t ~storage =
  if Array.length storage < Array.length t.st then
    invalid_arg "Kdtree.with_storage: new storage smaller than the old";
  if storage == t.st then t else { t with st = storage }

(* Bulk insert without re-splitting: each new offset descends the existing
   split structure to its leaf (the same <= threshold comparison queries
   use), leaves absorb their arrivals in append order, and split bboxes
   widen to cover them.  Counting queries are order-independent sums of
   per-point ball-membership tests, so a tree maintained this way answers
   every count bit-identically to a fresh build over the same points —
   only the traversal order differs.
   Leaves grow past [leaf_capacity] here; the registry bounds the
   degradation with a drift threshold that triggers a full rebuild. *)
let insert_bulk t ~offs:new_offs =
  let k = Array.length new_offs in
  if k = 0 then t
  else begin
    let st = t.st and dim = t.dim in
    Array.iter
      (fun off ->
        if off < 0 || off + dim > Array.length st then
          invalid_arg "Kdtree.insert_bulk: offset out of storage bounds")
      new_offs;
    let idx' = Array.make (t.size + k) 0 in
    let pos = ref 0 in
    (* Emit the tree left-to-right: each subtree copies its old entries and
       appends the new offsets routed into it, so leaf intervals stay
       contiguous in the rebuilt [idx'] permutation. *)
    let rec emit node extra =
      match node with
      | Leaf { lo; hi } ->
          let lo' = !pos in
          for i = lo to hi do
            idx'.(!pos) <- t.idx.(i);
            incr pos
          done;
          List.iter
            (fun off ->
              idx'.(!pos) <- off;
              incr pos)
            extra;
          Leaf { lo = lo'; hi = !pos - 1 }
      | Split { axis; threshold; left; right; bbox_lo; bbox_hi; size } ->
          let added = List.length extra in
          let blo, bhi =
            if added = 0 then (bbox_lo, bbox_hi)
            else begin
              let blo = Array.copy bbox_lo and bhi = Array.copy bbox_hi in
              List.iter
                (fun off ->
                  for j = 0 to dim - 1 do
                    let x = st.(off + j) in
                    if x < blo.(j) then blo.(j) <- x;
                    if x > bhi.(j) then bhi.(j) <- x
                  done)
                extra;
              (blo, bhi)
            end
          in
          let lefts, rights =
            List.partition (fun off -> st.(off + axis) <= threshold) extra
          in
          let left = emit left lefts in
          let right = emit right rights in
          Split { axis; threshold; left; right; bbox_lo = blo; bbox_hi = bhi; size = size + added }
    in
    let root = emit t.root (Array.to_list new_offs) in
    { t with idx = idx'; root; size = t.size + k }
  end

(* Bulk removal: one emit pass dropping every offset [dead] selects.  Split
   bboxes are kept (now possibly loose): a too-wide box only weakens
   pruning — the near-distance bound stays a valid lower bound and the
   full-containment shortcut still counts exactly the points present — so
   counts remain exact and bit-identical to a fresh build.  Emptied leaves
   are left in place as [lo > hi] intervals, which every traversal already
   skips. *)
let remove_bulk t ~dead =
  let idx' = Array.make (max 1 t.size) 0 in
  let pos = ref 0 in
  let rec emit node =
    match node with
    | Leaf { lo; hi } ->
        let lo' = !pos in
        for i = lo to hi do
          let off = t.idx.(i) in
          if not (dead off) then begin
            idx'.(!pos) <- off;
            incr pos
          end
        done;
        Leaf { lo = lo'; hi = !pos - 1 }
    | Split { axis; threshold; left; right; bbox_lo; bbox_hi; size = _ } ->
        let before = !pos in
        let left = emit left in
        let right = emit right in
        Split { axis; threshold; left; right; bbox_lo; bbox_hi; size = !pos - before }
  in
  let root = emit t.root in
  { t with idx = Array.sub idx' 0 !pos; root; size = !pos }

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
      if lo > hi then 0
      else
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
      if lo > hi then 0
      else Kernel.count_within ~st:t.st ~offs:t.idx ~lo ~hi ~q:cst ~qoff:coff ~dim:t.dim ~r2
  | Split { left; right; bbox_lo; bbox_hi; _ } ->
      if box_dist_sq_row bbox_lo bbox_hi cst coff > r2 then 0
      else if box_far_dist_sq_row bbox_lo bbox_hi cst coff <= r2 then node_size node
      else count_node_row t left cst coff r2 + count_node_row t right cst coff r2

let count_within_row t cst ~off ~radius = count_node_row t t.root cst off (Vec.ball_r2 radius)

(* One query, many radii in a single traversal.  [radii] must be ascending
   and non-negative; [r2s] is then ascending too ([Vec.ball_r2] is
   monotone), so at every node the
   radii still "in play" form a window [jlo, jhi): below it the subtree is
   pruned (near-distance > r²), at/above [jfull] the subtree is fully
   contained (far-distance <= r²) and contributes its size to every such
   radius at once.  Memberships are recorded in a difference array and
   prefix-summed, producing exactly the integer counts of [nr] independent
   [count_within_row] calls — integer sums of the same per-point
   ball-membership indicators, in a different order. *)
let count_within_row_many t cst ~off:coff ~radii ~out ~stride ~col =
  let nr = Array.length radii in
  if nr > 0 then begin
    let r2s = Array.map Vec.ball_r2 radii in
    let acc = Array.make (nr + 1) 0 in
    (* First index in [jlo, jhi) whose r² clears [bound]. *)
    let first_ge jlo jhi bound =
      let a = ref jlo and b = ref jhi in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if r2s.(mid) >= bound then b := mid else a := mid + 1
      done;
      !a
    in
    let rec go node jlo jhi =
      if jlo < jhi then
        match node with
        | Leaf { lo; hi } ->
            if lo <= hi then
              Kernel.leaf_multi_count ~st:t.st ~idx:t.idx ~lo ~hi ~q:cst ~qoff:coff
                ~dim:t.dim ~r2s ~jlo ~jhi ~acc
        | Split { left; right; bbox_lo; bbox_hi; _ } as nd ->
            let jlo = first_ge jlo jhi (box_dist_sq_row bbox_lo bbox_hi cst coff) in
            if jlo < jhi then begin
              let jfull = first_ge jlo jhi (box_far_dist_sq_row bbox_lo bbox_hi cst coff) in
              if jfull < jhi then begin
                let s = node_size nd in
                acc.(jfull) <- acc.(jfull) + s;
                acc.(jhi) <- acc.(jhi) - s
              end;
              if jlo < jfull then begin
                go left jlo jfull;
                go right jlo jfull
              end
            end
    in
    go t.root 0 nr;
    let running = ref 0 in
    for j = 0 to nr - 1 do
      running := !running + acc.(j);
      out.((j * stride) + col) <- !running
    done
  end
