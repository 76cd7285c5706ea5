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

(* Histogram the rows of a pointset without boxing any point.  Every
   row's cell goes into one flat [int array]; an open-addressing table
   groups the rows, and only each distinct cell becomes a key array. *)
let occupancy t ps =
  let d = dim t in
  if Pointset.dim ps <> d then invalid_arg "Boxing.occupancy: dimension mismatch";
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
  (* [table] (a power of two, at most three quarters full) holds each
     distinct cell's first row + 1 (0 = empty); [hits.(r)] counts the rows
     in the cell whose first row is [r], so the rows with a hit are the
     distinct cells in first-seen order. *)
  let size = ref 32 in
  while !size < (4 * count / 3) + 1 do
    size := 2 * !size
  done;
  let table = Array.make !size 0 in
  let mask = !size - 1 in
  let hits = Array.make count 0 in
  for i = 0 to count - 1 do
    let h = ref 0 in
    for a = 0 to d - 1 do
      h := (!h * 31) + cells.((i * d) + a)
    done;
    let s = ref (Hashtbl.hash !h land mask) in
    while table.(!s) <> 0 && not (same_cell i (table.(!s) - 1)) do
      s := (!s + 1) land mask
    done;
    if table.(!s) = 0 then table.(!s) <- i + 1;
    let r = table.(!s) - 1 in
    hits.(r) <- hits.(r) + 1
  done;
  let acc = ref [] in
  for r = count - 1 downto 0 do
    if hits.(r) > 0 then acc := (Array.sub cells (r * d) d, hits.(r)) :: !acc
  done;
  !acc

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
