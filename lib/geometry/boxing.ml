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
   point.  The keys are the boxed path's keys, counted by the same
   [Stability_hist.count_by] over the same number of elements, so the
   cell list, in [count_by]'s hash-bucket order, is identical. *)
let occupancy_ps t ps =
  if Pointset.dim ps <> dim t then invalid_arg "Boxing.occupancy_ps: dimension mismatch";
  let st = Pointset.storage ps and offs = Pointset.row_offsets ps in
  Prim.Stability_hist.count_by
    ~key:(fun i -> key_of_row t st ~off:offs.(i))
    (Array.init (Pointset.n ps) Fun.id)

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
