(* Randomly shifted interval partitions and the box partitions of R^k. *)

open Testutil

let test_partition_membership () =
  let p = Geometry.Interval.For_testing.fixed ~shift:0.3 ~len:2.0 in
  let check x =
    let j = Geometry.Interval.index_of p x in
    let lo, hi = Geometry.Interval.bounds p j in
    (* Tolerance: floor((x − shift)/len) can round either way when x sits
       exactly on an interval boundary. *)
    check_true (Printf.sprintf "%.3f in its interval" x) (lo -. 1e-9 <= x && x < hi +. 1e-9);
    check_float ~tol:1e-12 "interval length" 2.0 (hi -. lo)
  in
  List.iter check [ -7.2; -0.1; 0.; 0.3; 1.0; 2.3; 100.4 ]

let qcheck_partition_membership =
  qcheck "x lies in interval of its index"
    QCheck2.Gen.(pair (float_range (-1000.) 1000.) (float_range 0.01 50.))
    (fun (x, len) ->
      let p = Geometry.Interval.For_testing.fixed ~shift:(len /. 3.) ~len in
      let j = Geometry.Interval.index_of p x in
      let lo, hi = Geometry.Interval.bounds p j in
      lo -. 1e-9 <= x && x < hi +. 1e-9)

let test_random_shift_in_range () =
  let r = rng () in
  for _ = 1 to 100 do
    let p = Geometry.Interval.make r ~len:5.0 in
    check_in_range "shift in [0, len)" ~lo:0. ~hi:5.0 (Geometry.Interval.For_testing.shift p)
  done

let test_extend () =
  let p = Geometry.Interval.For_testing.fixed ~shift:0. ~len:1.0 in
  let lo, hi = Geometry.Interval.extend p 3 ~by:0.5 in
  check_float "extended lo" 2.5 lo;
  check_float "extended hi" 4.5 hi

let test_plain_intervals () =
  let i = Geometry.Interval.For_testing.of_center ~center:0.5 ~radius:0.2 in
  check_true "contains center" (Geometry.Interval.For_testing.contains i 0.5);
  check_true "contains boundary" (Geometry.Interval.For_testing.contains i 0.7);
  check_true "excludes outside" (not (Geometry.Interval.For_testing.contains i 0.71));
  check_float ~tol:1e-12 "length" 0.4 (Geometry.Interval.For_testing.length i);
  check_float ~tol:1e-12 "center" 0.5 (Geometry.Interval.For_testing.center i);
  (match
     Geometry.Interval.intersect
       { Geometry.Interval.lo = 0.; hi = 1. }
       { Geometry.Interval.lo = 0.5; hi = 2. }
   with
  | Some x ->
      check_float "intersect lo" 0.5 x.Geometry.Interval.lo;
      check_float "intersect hi" 1.0 x.Geometry.Interval.hi
  | None -> Alcotest.fail "expected intersection");
  check_true "disjoint intersect"
    (Geometry.Interval.intersect
       { Geometry.Interval.lo = 0.; hi = 1. }
       { Geometry.Interval.lo = 2.; hi = 3. }
    = None)

let test_boxing_key_consistency () =
  let r = rng () in
  let b = Geometry.Boxing.make r ~dim:3 ~len:0.25 in
  for _ = 1 to 200 do
    let v = Prim.Rng.gaussian_vector r ~dim:3 ~sigma:2.0 in
    let key = Geometry.Boxing.For_testing.key_of b v in
    let bounds = Geometry.Boxing.For_testing.bounds b key in
    Array.iteri
      (fun i (lo, hi) ->
        check_true "coordinate within box" (lo <= v.(i) && v.(i) < hi))
      bounds
  done

let test_boxing_center_and_diameter () =
  let b =
    Geometry.Boxing.For_testing.of_partitions
      [| Geometry.Interval.For_testing.fixed ~shift:0. ~len:1.0; Geometry.Interval.For_testing.fixed ~shift:0. ~len:2.0 |]
  in
  let c = Geometry.Boxing.center b [| 0; 0 |] in
  check_float "center x" 0.5 c.(0);
  check_float "center y" 1.0 c.(1);
  check_float ~tol:1e-12 "l2 diameter" (sqrt 5.) (Geometry.Boxing.For_testing.l2_diameter b);
  check_float "side 1" 2.0 (Geometry.Boxing.For_testing.side b 1)

let test_occupancy () =
  let r = rng () in
  let b = Geometry.Boxing.make r ~dim:2 ~len:0.3 in
  let points = Array.init 500 (fun _ -> [| Prim.Rng.float r 1.0; Prim.Rng.float r 1.0 |]) in
  let occ = Geometry.Boxing.occupancy b (Geometry.Pointset.create points) in
  check_int "occupancy totals n" 500 (List.fold_left (fun acc (_, c) -> acc + c) 0 occ);
  let in_box key =
    Array.fold_left
      (fun acc p -> if Geometry.Boxing.For_testing.key_of b p = key then acc + 1 else acc)
      0 points
  in
  check_int "max matches the heaviest box"
    (List.fold_left (fun a (key, _) -> max a (in_box key)) 0 occ)
    (List.fold_left (fun a (_, c) -> max a c) 0 occ)

let test_capture_probability () =
  (* A diameter-s set lands in one randomly shifted length-l interval with
     probability 1 - s/l; check the 1-D case empirically. *)
  let r = rng () in
  let len = 1.0 and spread = 0.25 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let p = Geometry.Interval.make r ~len in
    let x = Prim.Rng.float r 10.0 in
    if Geometry.Interval.index_of p x = Geometry.Interval.index_of p (x +. spread) then incr hits
  done;
  check_float ~tol:0.02 "capture probability 1 - s/l" 0.75 (float_of_int !hits /. float_of_int n)


(* [row_in_box] decides [key_of_row … = key] axis by axis: coordinates on
   the partition edges, below 0 and above 1, keys equal to the row's own,
   off on one axis, or shifted on every axis. *)
let qcheck_row_in_box_matches_key =
  qcheck "row_in_box = (key_of_row = key), edges and out-of-cube rows included" ~count:300
    QCheck2.Gen.(
      int_range 1 3 >>= fun d ->
      quad
        (array_size (return d) (pair (float_range 0. 0.5) (oneofl [ 0.1; 0.25; 1. /. 3.; 0.5 ])))
        (array_size (return d)
           (oneof
              [
                map (fun j -> `Edge j) (int_range (-4) 6);
                map (fun x -> `At x) (float_range (-1.) 2.);
                map (fun x -> `At x) (oneofl [ 0.; -0.; 1.; -1e-300; Float.succ 1. ]);
              ]))
        (int_range 0 2) (pair (int_range 0 (d - 1)) (int_range (-3) 3)))
    (fun (parts, coords, mode, (axis, delta)) ->
      let partitions = Array.map (fun (shift, len) -> Geometry.Interval.For_testing.fixed ~shift ~len) parts in
      let b = Geometry.Boxing.For_testing.of_partitions partitions in
      let row =
        Array.mapi
          (fun i c ->
            match c with
            | `Edge j -> Geometry.Interval.For_testing.shift partitions.(i) +. (float_of_int j *. Geometry.Interval.len partitions.(i))
            | `At x -> x)
          coords
      in
      let st = Array.append [| 7. |] row in
      let own = Geometry.Boxing.For_testing.key_of_row b st ~off:1 in
      let key =
        match mode with
        | 0 -> Array.copy own
        | 1 -> Array.mapi (fun i j -> if i = axis then j + delta else j) own
        | _ -> Array.map (fun j -> j + delta - axis) own
      in
      Geometry.Boxing.row_in_box b st ~off:1 key = (own = key))

(* [occupancy] must list exactly the cells, counts and order of
   [Stability_hist.count_by] over the rows' keys (the order decides which
   Laplace draw each cell gets): d in {1, 2, 3, 5}, n across several table
   sizes, all rows identical or (tiny boxes) all in distinct cells, cells
   on both sides of 0, and a view whose rows are out of storage order.
   CI runs this suite under OCAMLRUNPARAM=R too. *)
let qcheck_occupancy_matches_count_by =
  qcheck "occupancy = Stability_hist.count_by, cells and order" ~count:300
    QCheck2.Gen.(
      oneofl [ 1; 2; 3; 5 ] >>= fun d ->
      int_range 1 600 >>= fun n ->
      quad
        (array_size (return d)
           (pair (float_range 0. 1.) (oneofl [ 1e-9; 0.001; 0.05; 0.3; 5. ])))
        (array_size (return (n * d)) (float_range (-2.) 2.))
        bool bool)
    (fun (parts, coords, identical, shuffled) ->
      let d = Array.length parts in
      let n = Array.length coords / d in
      let partitions =
        Array.map (fun (u, len) -> Geometry.Interval.For_testing.fixed ~shift:(u *. len) ~len) parts
      in
      let b = Geometry.Boxing.For_testing.of_partitions partitions in
      let st = if identical then Array.init (n * d) (fun i -> coords.(i mod d)) else coords in
      (* 7919 is a prime above n, so this is a permutation of the rows. *)
      let perm = Array.init n (fun i -> (i * 7919) mod n * d) in
      let ps =
        if shuffled then Geometry.Pointset.view ~storage:st ~offs:perm ~dim:d
        else Geometry.Pointset.of_storage ~dim:d st
      in
      let offs = Geometry.Pointset.row_offsets ps in
      let reference =
        Prim.Stability_hist.count_by
          ~key:(fun i -> Geometry.Boxing.For_testing.key_of_row b st ~off:offs.(i))
          (Array.init n Fun.id)
      in
      Geometry.Boxing.occupancy b ps = reference)

let suite =
  [
    case "partition membership" test_partition_membership;
    qcheck_partition_membership;
    case "random shift range" test_random_shift_in_range;
    case "extend" test_extend;
    case "plain intervals" test_plain_intervals;
    case "boxing key consistency" test_boxing_key_consistency;
    case "boxing center and diameter" test_boxing_center_and_diameter;
    case "occupancy" test_occupancy;
    case "capture probability" test_capture_probability;
    qcheck_row_in_box_matches_key;
    qcheck_occupancy_matches_count_by;
  ]
