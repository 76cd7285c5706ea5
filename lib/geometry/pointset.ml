(* Flat, cache-friendly point storage.

   A pointset owns (or shares) a single row-major [float array] of length
   n·d; point [i] lives at [st.(offs.(i)) .. st.(offs.(i) + dim - 1)].
   Subsets and filters are index views over the same storage — no
   coordinate is copied.  All counting loops run on the flat layout and
   accumulate in the same order as the historical boxed implementation, so
   results are bit-identical. *)

type t = { st : float array; offs : int array; dim : int }

let create points =
  let count = Array.length points in
  if count = 0 then invalid_arg "Pointset.create: empty";
  let dim = Vec.dim points.(0) in
  Array.iter
    (fun p -> if Vec.dim p <> dim then invalid_arg "Pointset.create: mixed dimensions")
    points;
  let st = Array.make (count * dim) 0. in
  Array.iteri (fun i p -> Vec.set_row st ~off:(i * dim) p) points;
  { st; offs = Array.init count (fun i -> i * dim); dim }

let of_storage ~dim st =
  if dim < 1 then invalid_arg "Pointset.of_storage: dim must be >= 1";
  let len = Array.length st in
  if len = 0 then invalid_arg "Pointset.of_storage: empty";
  if len mod dim <> 0 then invalid_arg "Pointset.of_storage: length not a multiple of dim";
  { st; offs = Array.init (len / dim) (fun i -> i * dim); dim }

let view ~storage ~offs ~dim =
  if dim < 1 then invalid_arg "Pointset.view: dim must be >= 1";
  if Array.length offs = 0 then invalid_arg "Pointset.view: empty";
  let len = Array.length storage in
  Array.iter
    (fun off ->
      if off < 0 || off + dim > len then invalid_arg "Pointset.view: offset out of storage")
    offs;
  { st = storage; offs = Array.copy offs; dim }

let n t = Array.length t.offs
let dim t = t.dim
let storage t = t.st
let row_offset t i = t.offs.(i)
let row_offsets t = t.offs
let point t i = Vec.of_row t.st ~off:t.offs.(i) ~dim:t.dim
let points t = Array.init (n t) (point t)
let coords_axis t axis =
  if axis < 0 || axis >= t.dim then invalid_arg "Pointset.coords_axis: axis out of range";
  Array.map (fun off -> t.st.(off + axis)) t.offs

let map_points f t = create (Array.map f (points t))

let subset t ~indices = { t with offs = Array.map (fun i -> t.offs.(i)) indices }

let filter_rows pred t =
  let keep = ref [] and kept = ref 0 in
  for i = n t - 1 downto 0 do
    if pred t.st t.offs.(i) then begin
      keep := t.offs.(i) :: !keep;
      incr kept
    end
  done;
  let offs = Array.make !kept 0 in
  List.iteri (fun j off -> offs.(j) <- off) !keep;
  { t with offs }

let filter pred t = filter_rows (fun st off -> pred (Vec.of_row st ~off ~dim:t.dim)) t

(* Every ball below counts [sqrt acc <= radius] through [Vec.ball_r2] —
   the k-d tree's predicate too — so a count never depends on how it was
   computed. *)
let ball_count t ~center ~radius =
  if Vec.dim center <> t.dim then invalid_arg "Pointset.ball_count: dimension mismatch";
  let r2 = Vec.ball_r2 radius in
  Kernel.count_within ~st:t.st ~offs:t.offs ~lo:0 ~hi:(n t - 1) ~q:center ~qoff:0
    ~dim:t.dim ~r2

let ball_points t ~center ~radius =
  let r2 = Vec.ball_r2 radius in
  points (filter_rows (fun st off -> Vec.dist_sq_to_row st ~off ~dim:t.dim center <= r2) t)

let capped_ball_count t ~cap ~center ~radius = min cap (ball_count t ~center ~radius)

let top_average counts ~k =
  let len = Array.length counts in
  if k <= 0 || k > len then invalid_arg "Pointset.top_average: bad k";
  let sorted = Array.copy counts in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let acc = ref 0. in
  for i = 0 to k - 1 do
    acc := !acc +. sorted.(i)
  done;
  !acc /. float_of_int k

let score_l_direct t ~cap ~radius =
  if radius < 0. then 0.
  else begin
    let r2 = Vec.ball_r2 radius in
    let count = n t in
    let counts =
      Array.init count (fun i ->
          Kernel.count_within ~st:t.st ~offs:t.offs ~lo:0 ~hi:(count - 1) ~q:t.st
            ~qoff:t.offs.(i) ~dim:t.dim ~r2)
    in
    Kernel.top_avg_capped ~counts ~off:0 ~len:count ~cap ~k:(min cap count)
  end

(* One-entry memo of the count matrix [score_l_many] sweeps: the
   non-negative radii it was filled for ([key]; empty = no entry) and the
   radius-major counts.  The matrix depends only on the index's rows and
   the radii — not on the cap — so every later sweep over the same grid is
   a lookup.  [mu] also serializes the fill: a concurrent first caller
   waits for the sweep in flight instead of redoing it. *)
type memo = { mu : Mutex.t; mutable key : float array; mutable counts : int array }

(* [reps] is the row grouping ([group_rows]), computed when the index is
   built and never written afterwards. *)
type index = { ps : t; tree : Kdtree.t; memo : memo; reps : int array }

let fresh_memo () = { mu = Mutex.create (); key = [||]; counts = [||] }

(* [reps.(i)]: the first row whose coordinates are bit-identical to row
   [i]'s (so [reps.(i) <= i]), keyed on [Int64.bits_of_float] of every
   coordinate — [0.0] and [-0.0] stay apart.  A point's distance to every
   other point is a function of its own coordinates alone, so a
   duplicate's ball counts are exactly its representative's: every
   per-row sweep below runs once per distinct point and copies the
   rest. *)
let group_rows ps =
  let count = n ps and d = ps.dim and st = ps.st and offs = ps.offs in
  let module H = Hashtbl.Make (struct
    type nonrec t = int

    let equal a b =
      let oa = offs.(a) and ob = offs.(b) in
      let j = ref 0 in
      while
        !j < d && (Int64.bits_of_float st.(oa + !j) : int64) = Int64.bits_of_float st.(ob + !j)
      do
        incr j
      done;
      !j = d

    let hash i =
      let off = offs.(i) and h = ref 0 in
      for j = 0 to d - 1 do
        h := (!h * 31) + Int64.to_int (Int64.bits_of_float st.(off + j))
      done;
      Hashtbl.hash !h
  end) in
  let first = H.create count in
  Array.init count (fun i ->
      match H.find_opt first i with
      | Some r -> r
      | None ->
          H.add first i i;
          i)

let is_representative idx i = idx.reps.(i) = i

let index_of_tree ps tree =
  if Kdtree.size tree <> n ps then
    invalid_arg "Pointset.index_of_tree: tree size does not match the pointset";
  { ps; tree; memo = fresh_memo (); reps = group_rows ps }

let build_index ps = index_of_tree ps (Kdtree.build_flat ~storage:ps.st ~offs:ps.offs ~dim:ps.dim ())

(* The dense backend's names, kept for the end-to-end benchmark driver,
   which calls them: every index is the tree. *)
let auto_index ?domains:_ ps = build_index ps
let index_is_dense _ = false
let index_pointset idx = idx.ps
let index_tree idx = idx.tree

let cold_copy idx = { idx with memo = fresh_memo () }

let count_row idx i radius = Kdtree.count_within_row idx.tree idx.ps.st ~off:idx.ps.offs.(i) ~radius

let counts_within idx ~radius =
  let count = n idx.ps in
  let counts = Array.make count 0 in
  if radius >= 0. then begin
    let reps = idx.reps in
    for i = 0 to count - 1 do
      let r = reps.(i) in
      counts.(i) <- (if r = i then count_row idx i radius else counts.(r))
    done
  end;
  counts

let holds_at_least idx ~radius ~k i = count_row idx i radius >= k

let score_l idx ~cap ~radius =
  if radius < 0. then 0.
  else begin
    let counts = counts_within idx ~radius in
    Kernel.top_avg_capped ~counts ~off:0 ~len:(Array.length counts) ~cap
      ~k:(min cap (n idx.ps))
  end

(* Per-point counts for every radius of [rblock] (ascending), radius-major:
   [counts.(j * n + i)] is the number of points within [rblock.(j)] of
   point [i] — a single multi-radius k-d traversal per point, run for
   distinct points only; a duplicate's column is a copy of its
   representative's (filled earlier, since [reps.(i) < i]).  The one fill
   loop behind both the memo and the blocked path of [score_l_many]. *)
let fill_counts idx rblock =
  let count = n idx.ps and bnr = Array.length rblock in
  let counts = Array.make (bnr * count) 0 in
  let fill_col i =
    Kdtree.count_within_row_many idx.tree idx.ps.st ~off:idx.ps.offs.(i) ~radii:rblock ~out:counts
      ~stride:count ~col:i
  in
  let reps = idx.reps in
  for i = 0 to count - 1 do
    let r = reps.(i) in
    if r = i then fill_col i
    else
      for j = 0 to bnr - 1 do
        counts.((j * count) + i) <- counts.((j * count) + r)
      done
  done;
  counts

(* The memoized matrix for [key], filling (and replacing the entry) on a
   miss.  Radii compare by float equality, under which every [<=] count
   agrees, so a hit returns exactly the matrix a fill would. *)
let memo_counts idx key =
  let m = idx.memo in
  Mutex.protect m.mu (fun () ->
      if m.key <> key then begin
        m.counts <- fill_counts idx key;
        m.key <- key
      end;
      m.counts)

(* Index of the first non-negative radius of an ascending [radii]. *)
let first_non_negative radii =
  let j = ref 0 in
  while !j < Array.length radii && radii.(!j) < 0. do
    incr j
  done;
  !j

let memo_holds idx ~radii =
  let first = first_non_negative radii in
  let key = Array.sub radii first (Array.length radii - first) in
  Mutex.protect idx.memo.mu (fun () -> Array.length key > 0 && idx.memo.key = key)

(* Batched L: one score per candidate radius, equal to mapping [score_l]
   over [radii] but sharing the per-point work across all radii
   ([fill_counts]).  Counts are exact integers and the capped top-k
   average sums integers below 2^53, so every output is bit-identical to
   the per-radius path.  The count matrix does not depend on [cap]: when
   it fits one block it is memoized on the index, so only the first sweep
   over a grid pays for it. *)
let score_l_many idx ~cap ~radii =
  let nr = Array.length radii in
  let count = n idx.ps in
  let out = Array.make nr 0. in
  let ascending =
    let ok = ref true in
    for j = 1 to nr - 1 do
      if radii.(j) < radii.(j - 1) then ok := false
    done;
    !ok
  in
  if not ascending then
    (* Out-of-order radii: no batching contract; score one by one. *)
    Array.iteri (fun j r -> out.(j) <- score_l idx ~cap ~radius:r) radii
  else begin
    (* Negative radii score 0 (same guard as [score_l]); [out] starts at 0. *)
    let first = first_non_negative radii in
    let k = min cap count in
    (* Radii per count-matrix block: bounds the matrix at ~4 M counts
       (~32 MB) regardless of |radii|·n. *)
    let block = max 1 (4_000_000 / count) in
    let j0 = ref first in
    while !j0 < nr do
      let bnr = min block (nr - !j0) in
      let rblock = Array.sub radii !j0 bnr in
      (* A sweep that fits one block is memoized; larger grids stream
         their blocks unmemoized. *)
      let counts = if bnr = nr - first then memo_counts idx rblock else fill_counts idx rblock in
      for j = 0 to bnr - 1 do
        out.(!j0 + j) <- Kernel.top_avg_capped ~counts ~off:(j * count) ~len:count ~cap ~k
      done;
      j0 := !j0 + bnr
    done
  end;
  out

(* Point [i]'s distances to every point, as the tree's predicate sees
   them ([Kernel.dists_to_rows] is [sqrt] of the same squared distance),
   then the k-th order statistic: exact, one O(n·d) pass. *)
let kth_neighbor_distance idx ~k i =
  let ps = idx.ps in
  let count = n ps in
  if k <= 0 || k > count then invalid_arg "Pointset.kth_neighbor_distance: bad k";
  let row = Array.create_float count in
  Kernel.dists_to_rows ~st:ps.st ~offs:ps.offs ~n:count ~q:ps.st ~qoff:ps.offs.(i) ~dim:ps.dim
    ~out:row;
  Kernel.kth_smallest row ~len:count ~k
