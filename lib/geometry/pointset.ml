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

(* Every ball below counts [sqrt acc <= radius] through [Vec.ball_r2] —
   the k-d tree's predicate too — so a count never depends on how it was
   computed. *)
let ball_count t ~center ~radius =
  if Vec.dim center <> t.dim then invalid_arg "Pointset.ball_count: dimension mismatch";
  let r2 = Vec.ball_r2 radius in
  Kernel.count_within ~st:t.st ~offs:t.offs ~lo:0 ~hi:(n t - 1) ~q:center ~qoff:0
    ~dim:t.dim ~r2

let capped_ball_count t ~cap ~center ~radius = min cap (ball_count t ~center ~radius)

(* A cap below 1 has no top-[cap] average (k = 0). *)
let check_cap fn cap = if cap < 1 then invalid_arg (Printf.sprintf "Pointset.%s: cap must be >= 1" fn)

(* A resumable candidate sweep over one ascending grid of non-negative
   radii ([key]).  The distinct points' rows are gathered into [rows]
   (weights [w]; row [i]'s representative sits at position [apos.(i)])
   in blocks of spatially close points ([starts]).  Every pair of blocks
   carries a lower bound on the squared distance of its point pairs,
   and [pairs] lists the block pairs by the first radius their bound is
   within: the first [upto.(j + 1)] are every block pair that can hold a
   point pair within [key.(j)].  [advance] pairs those it has not yet
   run ([Kernel.pair_hist_blocks]) into [hist] (one row per position),
   so count columns [0 .. exact - 1] of the radius-major [counts] are
   final and never written again; later columns are not computed
   yet.  [exact] is published atomically after [advance] has written
   its columns, so a reader that loads it may read every column below
   it without a lock. *)
type sweep = {
  key : float array;
  r2s : float array;
  apos : int array;
  rows : float array;
  w : int array;
  starts : int array;
  pairs : int array;
  upto : int array;
  hist : int array;
  counts : int array;
  exact : int Atomic.t;
}

(* One-entry memo of the sweep [score_l_many] last ran over a grid that
   fits one block.  The sweep depends only on the index's rows and the
   radii — not on the cap — so a later call over the same grid resumes
   it.  [mu] serializes replacing the entry and every [advance] of it: a
   concurrent caller that needs a column not yet final waits for the
   advance in flight instead of redoing it.  The entry is read without
   [mu] (see [memo_sweep]). *)
type memo = { mu : Mutex.t; sweep : sweep option Atomic.t }

(* [reps] is the row grouping ([group_rows]), computed when the index is
   built and never written afterwards. *)
type index = { ps : t; tree : Kdtree.t; memo : memo; reps : int array }

let fresh_memo () = { mu = Mutex.create (); sweep = Atomic.make None }

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

let build_index ps =
  {
    ps;
    tree = Kdtree.build_flat ~storage:ps.st ~offs:ps.offs ~dim:ps.dim ();
    memo = fresh_memo ();
    reps = group_rows ps;
  }

(* The dense backend's names, kept for the end-to-end benchmark driver,
   which calls them: every index is the tree. *)
let auto_index ?domains:_ ps = build_index ps
let index_is_dense _ = false
let index_pointset idx = idx.ps

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
  check_cap "score_l" cap;
  if radius < 0. then 0.
  else begin
    let counts = counts_within idx ~radius in
    Kernel.top_avg_capped ~counts ~off:0 ~len:(Array.length counts) ~cap
      ~k:(min cap (n idx.ps))
  end

(* The distinct points in the tree's leaf order, one block per leaf
   that holds a representative: [(distinct, starts)], block [b] being
   [distinct.(starts.(b) .. starts.(b + 1) - 1)].  A leaf is a cell of
   the tree's median splits with at most 64 rows, so a block's bounding
   box is small. *)
let blocks idx =
  let rows, leaf_starts = Kdtree.leaves idx.tree in
  let distinct = Array.make (Array.length rows) 0 and m = ref 0 and starts = ref [ 0 ] in
  for l = 0 to Array.length leaf_starts - 2 do
    for s = leaf_starts.(l) to leaf_starts.(l + 1) - 1 do
      let i = rows.(s) in
      if idx.reps.(i) = i then begin
        distinct.(!m) <- i;
        incr m
      end
    done;
    if !m > List.hd !starts then starts := !m :: !starts
  done;
  (Array.sub distinct 0 !m, Array.of_list (List.rev !starts))

(* First [j] with [x <= r2s.(j)], or [Array.length r2s]: the bucket
   bisection of [Kernel.pair_hist_blocks]. *)
let bucket r2s (x : float) =
  let lo = ref 0 and hi = ref (Array.length r2s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if x <= r2s.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* The distinct points in block order, their rows gathered, and the
   block pairs' lower bounds ([bounds.(p * nb + q)] for [p <= q]).  The
   bound of a block pair sums, in axis order, the squares of
   its boxes' per-axis gaps ([lo_q - hi_p] when the boxes are apart on
   that axis, else 0).  It is a lower bound on the squared distance the
   kernel computes for each of its point pairs, bit for bit: rounding is
   monotone, so [fl(b - a) >= fl(lo_q - hi_p)] on an apart axis, and
   squaring non-negatives and adding in the same order preserve [>=]
   (the argument behind [Kdtree]'s pruning).  So a point pair within
   [key.(j)] lies in a block pair whose bound is within it too. *)
let layout idx =
  let ps = idx.ps in
  let d = ps.dim in
  let distinct, starts = blocks idx in
  let m = Array.length distinct and nb = Array.length starts - 1 in
  let rows = Array.create_float (m * d) in
  Array.iteri (fun a i -> Array.blit ps.st ps.offs.(i) rows (a * d) d) distinct;
  let blo = Array.make (nb * d) infinity and bhi = Array.make (nb * d) neg_infinity in
  for b = 0 to nb - 1 do
    for a = starts.(b) to starts.(b + 1) - 1 do
      for k = 0 to d - 1 do
        let x = rows.((a * d) + k) in
        if x < blo.((b * d) + k) then blo.((b * d) + k) <- x;
        if x > bhi.((b * d) + k) then bhi.((b * d) + k) <- x
      done
    done
  done;
  let bounds = Array.create_float (nb * nb) in
  for p = 0 to nb - 1 do
    for q = p to nb - 1 do
      let acc = ref 0. in
      for k = 0 to d - 1 do
        let lp = blo.((p * d) + k) and hp = bhi.((p * d) + k) in
        let lq = blo.((q * d) + k) and hq = bhi.((q * d) + k) in
        let g = if lq > hp then lq -. hp else if lp > hq then lp -. hq else 0. in
        acc := !acc +. (g *. g)
      done;
      bounds.((p * nb) + q) <- !acc
    done
  done;
  (distinct, starts, rows, bounds)

(* A sweep over [key] (ascending, non-negative, NaN-free) with nothing
   paired yet: the block pairs counting-sorted by the bucket of their
   bound, those beyond the last radius dropped. *)
let new_sweep idx key =
  let count = n idx.ps and nr = Array.length key in
  let distinct, starts, rows, bounds = layout idx in
  let m = Array.length distinct and nb = Array.length starts - 1 in
  let mult = Array.make count 0 and apos = Array.make count 0 in
  Array.iter (fun r -> mult.(r) <- mult.(r) + 1) idx.reps;
  Array.iteri (fun a i -> apos.(i) <- a) distinct;
  Array.iteri (fun i r -> apos.(i) <- apos.(r)) idx.reps;
  let r2s = Array.map Vec.ball_r2 key in
  let upto = Array.make (nr + 2) 0 in
  for p = 0 to nb - 1 do
    for q = p to nb - 1 do
      let j = bucket r2s bounds.((p * nb) + q) in
      if j < nr then upto.(j + 2) <- upto.(j + 2) + 1
    done
  done;
  for j = 2 to nr + 1 do
    upto.(j) <- upto.(j) + upto.(j - 1)
  done;
  (* Now [upto.(j + 1)] is the first slot of bucket [j]; placing the
     pairs moves it to the bucket's end. *)
  let pairs = Array.make (2 * upto.(nr + 1)) 0 in
  for p = 0 to nb - 1 do
    for q = p to nb - 1 do
      let j = bucket r2s bounds.((p * nb) + q) in
      if j < nr then begin
        let at = upto.(j + 1) in
        pairs.(2 * at) <- p;
        pairs.((2 * at) + 1) <- q;
        upto.(j + 1) <- at + 1
      end
    done
  done;
  {
    key;
    r2s;
    apos;
    rows;
    w = Array.map (fun i -> mult.(i)) distinct;
    starts;
    pairs;
    upto = Array.sub upto 0 (nr + 1);
    hist = Array.make (m * nr) 0;
    counts = Array.make (nr * count) 0;
    exact = Atomic.make 0;
  }

(* Makes count columns [exact .. j] final: one kernel call over the
   block pairs of buckets [exact .. j], then each row's running sum over
   its representative's histogram row (a duplicate's counts are its
   representative's).  Every count is the integer sum of the per-pair
   ball tests a tree query makes, so it equals [counts_within]
   exactly. *)
let advance idx sw j =
  let count = n idx.ps and nr = Array.length sw.key and e = Atomic.get sw.exact in
  Kernel.pair_hist_blocks ~rows:sw.rows ~dim:idx.ps.dim ~w:sw.w ~starts:sw.starts
    ~pairs:sw.pairs ~lo:sw.upto.(e) ~hi:sw.upto.(j + 1) ~r2s:sw.r2s ~hist:sw.hist;
  let counts = sw.counts and hist = sw.hist and apos = sw.apos in
  for c = e to j do
    let col = c * count in
    for i = 0 to count - 1 do
      let below = if c = 0 then 0 else counts.(col - count + i) in
      counts.(col + i) <- below + hist.((apos.(i) * nr) + c)
    done
  done;
  Atomic.set sw.exact (j + 1)

(* Per-point counts for every radius of [radii] (ascending, non-negative),
   radius-major: [counts.(j * n + i)] is the number of points within
   [radii.(j)] of point [i] — a fresh sweep advanced to the last
   radius. *)
let fill_counts idx ~radii =
  let nr = Array.length radii in
  if nr = 0 then [||]
  else begin
    let sw = new_sweep idx radii in
    advance idx sw (nr - 1);
    sw.counts
  end

(* The memoized sweep for [key] (replacing the entry on a miss, under
   [mu]), and a function making its column [j] final.  A column below
   [exact] is already final, so only a column at or above it takes [mu].
   Radii compare by float equality, under which every [<=] count agrees,
   so a resumed sweep computes exactly the columns a fresh one would. *)
let memo_sweep idx key =
  let m = idx.memo in
  let sw =
    match Atomic.get m.sweep with
    | Some sw when sw.key = key -> sw
    | _ ->
        Mutex.protect m.mu (fun () ->
            match Atomic.get m.sweep with
            | Some sw when sw.key = key -> sw
            | _ ->
                let sw = new_sweep idx key in
                Atomic.set m.sweep (Some sw);
                sw)
  in
  let reach j =
    if j >= Atomic.get sw.exact then
      Mutex.protect m.mu (fun () -> if j >= Atomic.get sw.exact then advance idx sw j)
  in
  (sw, reach)

(* Index of the first non-negative radius of an ascending [radii]. *)
let first_non_negative radii =
  let j = ref 0 in
  while !j < Array.length radii && radii.(!j) < 0. do
    incr j
  done;
  !j

let memo_exact idx ~radii =
  let first = first_non_negative radii in
  let key = Array.sub radii first (Array.length radii - first) in
  match Atomic.get idx.memo.sweep with
  | Some sw when Array.length key > 0 && sw.key = key -> Atomic.get sw.exact
  | _ -> 0

(* Batched L: one score per candidate radius, equal to mapping [score_l]
   over [radii] but pairing each point pair at most once for all radii.
   L(r) averages counts capped at [cap], so it never exceeds
   [float (min cap n)] and is non-decreasing in r: once a radius scores
   that maximum, so does every larger one, and the sweep stops there —
   the columns beyond it are never computed.  Below that radius the
   counts are exact integers and the capped top-k average sums integers
   below 2^53, so every output is bit-identical to the per-radius path.
   The sweep does not depend on [cap]: when the grid fits one block it
   is memoized on the index, and a later call (a larger cap, say) resumes
   it where it stopped. *)
let score_l_many idx ~cap ~radii =
  check_cap "score_l_many" cap;
  let nr = Array.length radii in
  let count = n idx.ps in
  let out = Array.make nr 0. in
  (* A NaN compares false both ways, so it is rejected explicitly. *)
  let ascending =
    let ok = ref true in
    for j = 0 to nr - 1 do
      if Float.is_nan radii.(j) || (j > 0 && radii.(j) < radii.(j - 1)) then ok := false
    done;
    !ok
  in
  if not ascending then
    (* Out-of-order or NaN radii: no batching contract; score one by one. *)
    Array.iteri (fun j r -> out.(j) <- score_l idx ~cap ~radius:r) radii
  else begin
    (* Negative radii score 0 (same guard as [score_l]); [out] starts at 0. *)
    let first = first_non_negative radii in
    let k = min cap count in
    let top = float_of_int k in
    (* Radii per sweep: bounds its count matrix at ~4 M counts (~32 MB)
       regardless of |radii|·n. *)
    let block = max 1 (4_000_000 / count) in
    let j0 = ref first and saturated = ref false in
    while (not !saturated) && !j0 < nr do
      let bnr = min block (nr - !j0) in
      let key = Array.sub radii !j0 bnr in
      (* A grid that fits one block is memoized; larger grids run a
         fresh sweep per block. *)
      let sw, reach =
        if bnr = nr - first then memo_sweep idx key
        else
          let sw = new_sweep idx key in
          (sw, fun j -> if j >= Atomic.get sw.exact then advance idx sw j)
      in
      let j = ref 0 in
      while (not !saturated) && !j < bnr do
        reach !j;
        let v = Kernel.top_avg_capped ~counts:sw.counts ~off:(!j * count) ~len:count ~cap ~k in
        out.(!j0 + !j) <- v;
        saturated := v = top;
        incr j
      done;
      j0 := !j0 + !j
    done;
    Array.fill out !j0 (nr - !j0) top
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

(* Pruned but exact: a representative is evaluated only if its ball of
   radius [Float.pred best] already holds k points, that is, only if its
   k-th distance is strictly below the running best.  The count and the
   k-th distance share one predicate, so a count below k means the
   distance is at least the best and the strict [<] below would not have
   fired; a tie, which cannot replace the best, is never evaluated.  The
   first probe, at radius infinity, always holds; once the best is 0
   nothing can beat it.  A duplicate has its representative's distance,
   so it could not win either: the result — the first row attaining the
   smallest k-th distance — is the unpruned scan's over every row. *)
let min_kth_neighbor_distance idx ~k =
  let count = n idx.ps in
  if k <= 0 || k > count then invalid_arg "Pointset.min_kth_neighbor_distance: bad k";
  let best = ref infinity and best_i = ref 0 in
  for i = 0 to count - 1 do
    if idx.reps.(i) = i && !best > 0. then begin
      let probe = if !best = infinity then infinity else Float.pred !best in
      if holds_at_least idx ~radius:probe ~k i then begin
        let r = kth_neighbor_distance idx ~k i in
        if r < !best then begin
          best := r;
          best_i := i
        end
      end
    end
  done;
  (!best_i, !best)

module For_testing = struct
  let map_points f t = create (Array.map f (points t))
  let filter pred t = filter_rows (fun st off -> pred (Vec.of_row st ~off ~dim:t.dim)) t

  let ball_points t ~center ~radius =
    let r2 = Vec.ball_r2 radius in
    points (filter_rows (fun st off -> Vec.dist_sq_to_row st ~off ~dim:t.dim center <= r2) t)

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
    check_cap "score_l_direct" cap;
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

  let is_representative idx i = idx.reps.(i) = i

  let block_pair_bounds idx =
    let distinct, starts, _, bounds = layout idx in
    let nb = Array.length starts - 1 in
    ( Array.init nb (fun b -> Array.sub distinct starts.(b) (starts.(b + 1) - starts.(b))),
      Array.concat
        (List.init nb (fun p -> Array.init (nb - p) (fun k -> (p, p + k, bounds.((p * nb) + p + k))))) )

  (* Every call that memoizes a sweep advances it to at least one column. *)
  let memo_holds idx ~radii = memo_exact idx ~radii > 0

  let holds_at_least = holds_at_least
  let memo_exact = memo_exact
  let points = points
end
