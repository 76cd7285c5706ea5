type t = { partitions : Interval.partition array }
type key = int array

let make rng ~dim ~len =
  if dim <= 0 then invalid_arg "Boxing.make: dim must be positive";
  { partitions = Array.init dim (fun _ -> Interval.make rng ~len) }

let dim t = Array.length t.partitions
let key_of t v =
  if Vec.dim v <> dim t then invalid_arg "Boxing.key_of: dimension mismatch";
  Array.mapi (fun i x -> Interval.index_of t.partitions.(i) x) v

let bounds t key =
  if Array.length key <> dim t then invalid_arg "Boxing.bounds: bad key";
  Array.mapi (fun i j -> Interval.bounds t.partitions.(i) j) key

let center t key = Array.map (fun (lo, hi) -> 0.5 *. (lo +. hi)) (bounds t key)

let key_of_row t st ~off =
  Array.init (dim t) (fun i -> Interval.index_of t.partitions.(i) st.(off + i))

let row_in_box t st ~off key =
  let d = dim t in
  if Array.length key <> d then invalid_arg "Boxing.row_in_box: bad key";
  let i = ref 0 in
  while !i < d && Interval.index_of t.partitions.(!i) st.(off + !i) = key.(!i) do
    incr i
  done;
  !i = d

let occupancy t points = Prim.Stability_hist.count_by ~key:(key_of t) points

let max_occupancy t points =
  List.fold_left (fun acc (_, c) -> max acc c) 0 (occupancy t points)

(* Flat variant: histogram the rows of a pointset without boxing any
   point, with the cells and their order of [Stability_hist.count_by]
   over the boxed path's keys.  Every row's cell goes into one flat
   [int array]; an open-addressing table groups the rows, and only each
   distinct cell becomes a key array.  [count_by]'s unrandomized
   [Hashtbl] has [power_2_above 16 n] buckets for [n] rows and never
   resizes (it holds at most [n] keys), so it lists a cell in bucket
   [Hashtbl.hash key land (buckets - 1)], buckets descending, and within
   a bucket in first-seen order: a stable counting sort on the bucket
   emits that order. *)
let occupancy_ps t ps =
  let d = dim t in
  if Pointset.dim ps <> d then invalid_arg "Boxing.occupancy_ps: dimension mismatch";
  let st = Pointset.storage ps and offs = Pointset.row_offsets ps in
  let count = Pointset.n ps in
  let cells = Array.make (count * d) 0 in
  for i = 0 to count - 1 do
    let off = offs.(i) in
    for a = 0 to d - 1 do
      cells.((i * d) + a) <- Interval.index_of t.partitions.(a) st.(off + a)
    done
  done;
  let same_cell i r =
    let a = ref 0 in
    while !a < d && cells.((i * d) + !a) = cells.((r * d) + !a) do
      incr a
    done;
    !a = d
  in
  let power_2_above n =
    let p = ref 16 in
    while !p < n do
      p := 2 * !p
    done;
    !p
  in
  let buckets = power_2_above count in
  (* [table] (at most three quarters full, and at least [buckets] long)
     holds each distinct cell's first row + 1 (0 = empty); [hits.(r)]
     counts the rows in the cell whose first row is [r], so the rows with
     a hit are the distinct cells in first-seen order. *)
  let table = Array.make (power_2_above (max 32 ((4 * count / 3) + 1))) 0 in
  let mask = Array.length table - 1 in
  let hits = Array.make count 0 and m = ref 0 in
  for i = 0 to count - 1 do
    let h = ref 0 in
    for a = 0 to d - 1 do
      h := (!h * 31) + cells.((i * d) + a)
    done;
    let s = ref (Hashtbl.hash !h land mask) in
    while table.(!s) <> 0 && not (same_cell i (table.(!s) - 1)) do
      s := (!s + 1) land mask
    done;
    if table.(!s) = 0 then begin
      table.(!s) <- i + 1;
      incr m
    end;
    let r = table.(!s) - 1 in
    hits.(r) <- hits.(r) + 1
  done;
  let firsts = Array.make !m 0 and c = ref 0 in
  Array.iteri
    (fun r k ->
      if k > 0 then begin
        firsts.(!c) <- r;
        incr c
      end)
    hits;
  let keys = Array.map (fun r -> Array.sub cells (r * d) d) firsts in
  let bucket = Array.map (fun key -> Hashtbl.hash key land (buckets - 1)) keys in
  (* The table's first [buckets] slots, reused: [start.(b)] is the first
     list position of bucket [b], buckets descending. *)
  let start = table in
  Array.fill start 0 buckets 0;
  Array.iter (fun b -> start.(b) <- start.(b) + 1) bucket;
  let pos = ref 0 in
  for b = buckets - 1 downto 0 do
    let len = start.(b) in
    start.(b) <- !pos;
    pos := !pos + len
  done;
  let order = Array.make !m 0 in
  Array.iteri
    (fun c b ->
      order.(start.(b)) <- c;
      start.(b) <- start.(b) + 1)
    bucket;
  Array.fold_right (fun c acc -> (keys.(c), hits.(firsts.(c))) :: acc) order []

module For_testing = struct
  let of_partitions partitions =
    if Array.length partitions = 0 then invalid_arg "Boxing.of_partitions: empty";
    { partitions }

  let side t i = Interval.len t.partitions.(i)

  let l2_diameter t =
    sqrt
      (Array.fold_left
         (fun acc p ->
           let s = Interval.len p in
           acc +. (s *. s))
         0. t.partitions)

  let bounds = bounds
  let key_of = key_of
  let key_of_row = key_of_row
end
