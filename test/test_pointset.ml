(* Point sets: capped counts B̄_r, the score L(r, S), its monotonicity and
   its sensitivity-2 property (Lemma 4.5), and the distance index. *)

open Testutil

let points_gen =
  QCheck2.Gen.(
    array_size (int_range 2 40)
      (array_size (return 2) (float_range 0. 1.)))

let test_create_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Pointset.create: empty") (fun () ->
      ignore (Geometry.Pointset.create [||]));
  Alcotest.check_raises "mixed dims" (Invalid_argument "Pointset.create: mixed dimensions")
    (fun () -> ignore (Geometry.Pointset.create [| [| 1. |]; [| 1.; 2. |] |]))

let test_ball_count () =
  let ps = Geometry.Pointset.create [| [| 0.; 0. |]; [| 1.; 0. |]; [| 0.3; 0. |] |] in
  check_int "radius 0.5" 2 (Geometry.Pointset.ball_count ps ~center:[| 0.; 0. |] ~radius:0.5);
  check_int "radius 1" 3 (Geometry.Pointset.ball_count ps ~center:[| 0.; 0. |] ~radius:1.0);
  check_int "boundary inclusive" 2
    (Geometry.Pointset.ball_count ps ~center:[| 0.; 0. |] ~radius:0.3);
  check_int "capped" 1 (Geometry.Pointset.capped_ball_count ps ~cap:1 ~center:[| 0.; 0. |] ~radius:1.0);
  check_int "ball_points agrees" 2
    (Array.length (Geometry.Pointset.For_testing.ball_points ps ~center:[| 0.; 0. |] ~radius:0.5))

let test_top_average () =
  check_float "top 2 of [1;5;3]" 4.0 (Geometry.Pointset.For_testing.top_average [| 1.; 5.; 3. |] ~k:2);
  check_float "top all" 3.0 (Geometry.Pointset.For_testing.top_average [| 1.; 5.; 3. |] ~k:3);
  Alcotest.check_raises "bad k" (Invalid_argument "Pointset.top_average: bad k") (fun () ->
      ignore (Geometry.Pointset.For_testing.top_average [| 1. |] ~k:2))

let qcheck_index_matches_direct =
  qcheck "indexed L = direct L" ~count:60 points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let idx = Geometry.Pointset.build_index ps in
      let t = max 1 (Array.length pts / 3) in
      List.for_all
        (fun r ->
          Float.abs
            (Geometry.Pointset.score_l idx ~cap:t ~radius:r
            -. Geometry.Pointset.For_testing.score_l_direct ps ~cap:t ~radius:r)
          < 1e-9)
        [ 0.; 0.05; 0.2; 0.7; 2.0 ])

let qcheck_l_monotone =
  qcheck "L non-decreasing in r" ~count:60 points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let idx = Geometry.Pointset.build_index ps in
      let t = max 1 (Array.length pts / 2) in
      let radii = [ 0.; 0.01; 0.1; 0.3; 0.9; 1.5 ] in
      let scores = List.map (fun r -> Geometry.Pointset.score_l idx ~cap:t ~radius:r) radii in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono scores)

(* Lemma 4.5: |L(r, S) − L(r, S')| ≤ 2 for S, S' differing in one point. *)
let qcheck_l_sensitivity_two =
  qcheck "L sensitivity <= 2 (Lemma 4.5)" ~count:80
    QCheck2.Gen.(
      triple points_gen (array_size (return 2) (float_range 0. 1.)) (float_range 0. 1.))
    (fun (pts, replacement, r) ->
      let n = Array.length pts in
      let t = max 1 (n / 3) in
      let ps = Geometry.Pointset.create pts in
      let pts' = Array.copy pts in
      pts'.(n - 1) <- replacement;
      let ps' = Geometry.Pointset.create pts' in
      let l = Geometry.Pointset.For_testing.score_l_direct ps ~cap:t ~radius:r in
      let l' = Geometry.Pointset.For_testing.score_l_direct ps' ~cap:t ~radius:r in
      Float.abs (l -. l') <= 2. +. 1e-9)

let qcheck_l_bounds =
  qcheck "0 <= L <= t and L(diam) = min n t" ~count:60 points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let n = Array.length pts in
      let t = max 1 (n / 2) in
      let l r = Geometry.Pointset.For_testing.score_l_direct ps ~cap:t ~radius:r in
      l 0. >= 0.
      && l 0. <= float_of_int t +. 1e-9
      && Float.abs (l 10. -. float_of_int (min n t)) < 1e-9)

let test_counts_within () =
  let pts = [| [| 0. |]; [| 0.1 |]; [| 0.2 |]; [| 0.9 |] |] in
  let idx = Geometry.Pointset.build_index (Geometry.Pointset.create pts) in
  let counts = Geometry.Pointset.counts_within idx ~radius:0.15 in
  Alcotest.(check (array int)) "counts" [| 2; 3; 2; 1 |] counts;
  let zero = Geometry.Pointset.counts_within idx ~radius:(-1.) in
  Alcotest.(check (array int)) "negative radius" [| 0; 0; 0; 0 |] zero;
  (* [holds_at_least] is the per-point [counts_within .. >= k]. *)
  List.iter
    (fun radius ->
      Array.iteri
        (fun i c ->
          for k = 1 to Array.length pts do
            check_true
              (Printf.sprintf "holds_at_least r=%g i=%d k=%d" radius i k)
              (Geometry.Pointset.For_testing.holds_at_least idx ~radius ~k i = (c >= k))
          done)
        (Geometry.Pointset.counts_within idx ~radius))
    [ -1.; 0.; 0.1; 0.15; 0.2; 1. ]

let ref_rows ps = sorted_dist_rows (Geometry.Pointset.For_testing.points ps)

(* Entries of the sorted [row] that are [<= r], by binary search. *)
let count_le row r =
  let lo = ref 0 and hi = ref (Array.length row) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) <= r then lo := mid + 1 else hi := mid
  done;
  !lo

(* The dense rows count [sqrt acc <= r]; the k-d tree compares [acc]
   against [Vec.ball_r2 r], which must count the same ball.  With the
   naive [acc <= r *. r] the two split on these planted sets at the
   linear grid's r = 1.0, for seeds 3 and 4 (DESIGN.md §6), so every
   radius of both candidate grids is checked: the geometric grid through
   [counts_within], the linear one (1025 radii) through the pair pass
   that fills the sweep's count matrix ([fill_counts]), and r = 1.0
   through both. *)
let test_tree_counts_match_dense_rows () =
  List.iter
    (fun seed ->
      let _, grid, w = small_workload ~seed ~n:1500 ~axis:256 ~radius:0.05 () in
      let ps = Geometry.Pointset.create w.Workload.Synth.points in
      let n = Geometry.Pointset.n ps in
      let rows = ref_rows ps in
      let idx = Geometry.Pointset.build_index ps in
      let check_counts radius =
        Alcotest.(check (array int))
          (Printf.sprintf "seed %d, r = %h" seed radius)
          (Array.map (fun row -> count_le row radius) rows)
          (Geometry.Pointset.counts_within idx ~radius)
      in
      for j = 0 to Geometry.Grid.geometric_candidates grid - 1 do
        check_counts (Geometry.Grid.geometric_radius_of_index grid j)
      done;
      check_counts 1.0;
      let radii = Array.init (Geometry.Grid.radius_candidates grid) (Geometry.Grid.radius_of_index grid) in
      let counts = Geometry.Pointset.fill_counts idx ~radii in
      for i = 0 to n - 1 do
        (* Two-pointer merge of the sorted row against the ascending radii. *)
        let p = ref 0 in
        Array.iteri
          (fun j r ->
            while !p < n && rows.(i).(!p) <= r do
              incr p
            done;
            let c = counts.((j * n) + i) in
            if c <> !p then
              Alcotest.failf "seed %d, point %d, linear r = %h: fill %d, dense %d" seed i r c !p)
          radii
      done)
    [ 1; 2; 3; 4 ]

let test_kth_neighbor () =
  let pts = [| [| 0. |]; [| 0.3 |]; [| 1.0 |] |] in
  let idx = Geometry.Pointset.build_index (Geometry.Pointset.create pts) in
  check_float "1st neighbor is self" 0.0 (Geometry.Pointset.kth_neighbor_distance idx ~k:1 0);
  check_float "2nd neighbor" 0.3 (Geometry.Pointset.kth_neighbor_distance idx ~k:2 0);
  check_float "3rd neighbor" 1.0 (Geometry.Pointset.kth_neighbor_distance idx ~k:3 0);
  Alcotest.check_raises "bad k" (Invalid_argument "Pointset.kth_neighbor_distance: bad k")
    (fun () -> ignore (Geometry.Pointset.kth_neighbor_distance idx ~k:4 0))

let test_subset_filter_map () =
  let ps = Geometry.Pointset.create [| [| 0. |]; [| 1. |]; [| 2. |] |] in
  let sub = Geometry.Pointset.subset ps ~indices:[| 2; 0 |] in
  check_int "subset size" 2 (Geometry.Pointset.n sub);
  check_float "subset order" 2. (Geometry.Pointset.point sub 0).(0);
  let filtered = Geometry.Pointset.For_testing.filter (fun p -> p.(0) > 0.5) ps in
  check_int "filter" 2 (Geometry.Pointset.n filtered);
  check_float "filter keeps order" 1. (Geometry.Pointset.point filtered 0).(0);
  let mapped = Geometry.Pointset.For_testing.map_points (Geometry.Vec.scale 2.) ps in
  check_float "map" 4. (Geometry.Pointset.point mapped 2).(0)

(* Identical points share one count-matrix column
   ([Pointset.For_testing.is_representative]).  Every grouped answer must equal bit for
   bit a per-row reference that never groups: fresh sorted distance rows
   per point. *)
module P = Geometry.Pointset

let bits = Int64.bits_of_float

(* The first row whose coordinates are bit-identical, by pairwise scan. *)
let ref_reps ps =
  let same i j = Array.for_all2 (fun a b -> bits a = bits b) (P.point ps i) (P.point ps j) in
  Array.init (P.n ps) (fun i ->
      let j = ref 0 in
      while not (same !j i) do
        incr j
      done;
      !j)

(* The unpruned, ungrouped 2-approximation scan: first index wins ties. *)
let ref_two_approx kth n ~t =
  let best = ref infinity and best_i = ref 0 in
  for i = 0 to n - 1 do
    let r = kth ~k:t i in
    if r < !best then begin
      best := r;
      best_i := i
    end
  done;
  (!best_i, !best)

let check_grouping ps =
  let n = P.n ps in
  let fail fmt = Alcotest.failf fmt in
  let rows = ref_rows ps in
  (* Ascending radii holding row 0's exact distances (ball boundaries) and
     a few beyond, at most 24. *)
  let radii =
    let cand = Array.of_list (List.sort_uniq Float.compare (0.25 :: 4. :: Array.to_list rows.(0))) in
    let step = max 1 (Array.length cand / 24) in
    Array.of_list (List.filteri (fun j _ -> j mod step = 0) (Array.to_list cand))
  in
  let nr = Array.length radii in
  let idx = P.build_index ps in
  (* The k-th neighbour distance is the sorted row's (k-1)-th entry. *)
  let kth ~k i = rows.(i).(k - 1) in
  let ks = if n <= 40 then List.init n succ else List.sort_uniq compare [ 1; 2; (n + 1) / 2; n ] in
  Array.iteri
    (fun i r -> if P.For_testing.is_representative idx i <> (r = i) then fail "is_representative %d" i)
    (ref_reps ps);
  let ref_counts = Array.make (nr * n) 0 in
  Array.iteri
    (fun j r ->
      for i = 0 to n - 1 do
        ref_counts.((j * n) + i) <- count_le rows.(i) r
      done)
    radii;
  Array.iteri
    (fun j radius ->
      if P.counts_within idx ~radius <> Array.sub ref_counts (j * n) n then
        fail "counts_within differs at r=%h" radius)
    radii;
  List.iter
    (fun cap ->
      let expect =
        Array.init nr (fun j ->
            bits (Kernel.top_avg_capped ~counts:ref_counts ~off:(j * n) ~len:n ~cap ~k:(min cap n)))
      in
      let sweep i = Array.map bits (P.score_l_many i ~cap ~radii) in
      (* Cold, then filling the memo, then a memo hit. *)
      if sweep (P.cold_copy idx) <> expect || sweep idx <> expect || sweep idx <> expect then
        fail "score_l_many differs at cap %d" cap)
    [ 1; max 1 (n / 3); n ];
  for i = 0 to n - 1 do
    List.iter
      (fun k ->
        if bits (P.kth_neighbor_distance idx ~k i) <> bits (kth ~k i) then
          fail "kth_neighbor_distance k=%d i=%d" k i;
        Array.iteri
          (fun j radius ->
            if P.For_testing.holds_at_least idx ~radius ~k i <> (ref_counts.((j * n) + i) >= k) then
              fail "holds_at_least r=%h k=%d i=%d" radius k i)
          radii)
      ks
  done;
  List.iter
    (fun t ->
      let ball = Geometry.Seb.two_approx_indexed idx ~t in
      let best_i, best = ref_two_approx kth n ~t in
      if bits ball.radius <> bits best
         || Array.map bits ball.center <> Array.map bits (P.point ps best_i)
      then fail "two_approx_indexed differs at t=%d" t)
    (List.sort_uniq compare [ 1; (n + 1) / 2; n ])

(* Coarse grids (3–8 cells per axis, d in 1..3, up to 300 points): most
   rows repeat. *)
let coarse_gen =
  QCheck2.Gen.(
    let* axis = int_range 3 8 and* d = int_range 1 3 and* n = int_range 1 300 in
    let+ cells = array_size (return (n * d)) (int_range 0 (axis - 1)) in
    (d, Array.map (fun c -> float_of_int c /. float_of_int (axis - 1)) cells))

let qcheck_grouping_bit_exact =
  qcheck "identical points share rows and columns: bit-exact" ~count:25
    coarse_gen (fun (dim, st) ->
      check_grouping (P.of_storage ~dim st);
      true)

let test_grouping_edge_cases () =
  (* All points identical: one distinct row. *)
  let same = P.of_storage ~dim:2 (Array.init 80 (fun j -> if j mod 2 = 0 then 0.25 else 0.5)) in
  check_grouping same;
  let same_idx = P.build_index same in
  check_true "all identical: one representative"
    (List.for_all (fun i -> P.For_testing.is_representative same_idx i = (i = 0)) (List.init 40 Fun.id));
  (* No duplicates. *)
  let spread = P.of_storage ~dim:2 (Prim.Rng.gaussian_vector (rng ()) ~dim:120 ~sigma:1.0) in
  check_grouping spread;
  check_true "no duplicates: every row its own representative"
    (let idx = P.build_index spread in
     List.for_all (P.For_testing.is_representative idx) (List.init 60 Fun.id));
  (* 0.0 and -0.0 are distinct keys with equal answers. *)
  let signed =
    P.create [| [| 0.; 0. |]; [| -0.; 0. |]; [| 0.; -0. |]; [| 1.; 0. |]; [| 0.; 0. |]; [| -0.; 0. |] |]
  in
  check_grouping signed;
  let idx = P.build_index signed in
  Alcotest.(check (list bool))
    "signed zeros kept apart" [ true; true; true; true; false; false ]
    (List.init 6 (P.For_testing.is_representative idx));
  let radii = [| 0.; 0.5; 1.; 2. |] in
  Array.iter
    (fun radius ->
      let c = P.counts_within idx ~radius in
      check_true "signed zeros: equal counts" (c.(0) = c.(1) && c.(0) = c.(2)))
    radii;
  for k = 1 to 6 do
    check_true "signed zeros: equal k-th distances"
      (bits (P.kth_neighbor_distance idx ~k 0) = bits (P.kth_neighbor_distance idx ~k 1))
  done

(* The resumable sweep behind [score_l_many].  On one index, a random
   sequence of caps scores the geometric grid, so the memo is cold,
   partly advanced (a sweep stops at its first saturated radius) or
   fully advanced when a call starts.  Every call must equal the capped
   top-k average over [fill_counts] at every radius, bit for bit, and
   leave exactly the columns up to the later of its own first saturated
   radius and the previous state final.  Planted, uniform, all-duplicate
   and d = 8 sets, on both kernel tiers. *)
type sweep_set = Planted | Uniform | All_duplicate | Planted_d8

let fail fmt = QCheck2.Test.fail_reportf fmt

let qcheck_sweep_resumes_bit_exact =
  qcheck "sweep: random caps in random order = fill_counts, bit for bit" ~count:24
    QCheck2.Gen.(
      quad
        (oneofl [ Planted; Uniform; All_duplicate; Planted_d8 ])
        (int_range 60 400) (int_range 1 1000)
        (pair bool (list_size (int_range 1 6) (float_range 0. 1.1))))
    (fun (set, n, seed, (native, fracs)) ->
      let before = Kernel.native_active () in
      Fun.protect ~finally:(fun () -> Kernel.set_native before) @@ fun () ->
      Kernel.set_native native;
      let d = if set = Planted_d8 then 8 else 2 in
      let grid = Geometry.Grid.create ~axis_size:64 ~dim:d in
      let r = rng ~seed () in
      let pts =
        match set with
        | Planted | Planted_d8 ->
            (Workload.Synth.planted_ball r ~grid ~n ~cluster_fraction:0.5 ~cluster_radius:0.1)
              .Workload.Synth.points
        | Uniform -> Workload.Synth.For_testing.uniform r ~grid ~n
        | All_duplicate -> Array.make n [| 0.25; 0.75 |]
      in
      let idx = P.build_index (P.create pts) in
      let radii =
        Array.init (Geometry.Grid.geometric_candidates grid) (Geometry.Grid.geometric_radius_of_index grid)
      in
      let nr = Array.length radii in
      let counts = P.fill_counts idx ~radii in
      let exact = ref 0 in
      List.iter
        (fun frac ->
          let cap = max 1 (int_of_float (frac *. float_of_int n)) in
          let k = min cap n in
          let expect =
            Array.init nr (fun j -> Kernel.top_avg_capped ~counts ~off:(j * n) ~len:n ~cap ~k)
          in
          let got = P.score_l_many idx ~cap ~radii in
          Array.iteri
            (fun j e ->
              if bits e <> bits got.(j) then fail "cap %d, radius %d: %h, fill_counts says %h" cap j got.(j) e)
            expect;
          let first_top =
            let j = ref 0 in
            while !j < nr - 1 && expect.(!j) <> float_of_int k do
              incr j
            done;
            !j
          in
          exact := max !exact (first_top + 1);
          if P.For_testing.memo_exact idx ~radii <> !exact then
            fail "cap %d: %d final columns, expected %d" cap (P.For_testing.memo_exact idx ~radii) !exact)
        fracs;
      true)

(* Points on a lattice of step [s] sit exactly on the shells of radius
   [s·sqrt k], the ties of the ball predicate; a block pair's bound must
   still be at most every squared distance the kernel computes in it,
   the blocks must hold each distinct point once, and the sweep's counts
   at the shell radii must equal the tree's. *)
let qcheck_block_bounds_exact =
  qcheck "sweep: block-pair bounds below every pair's squared distance" ~count:40
    QCheck2.Gen.(
      triple (int_range 1 3) (oneofl [ 0.1; 1. /. 3.; 0.05; 1.; sqrt 2. ])
        (int_range 1 300 >>= fun n -> array_size (return (3 * n)) (int_range 0 6)))
    (fun (d, step, cells) ->
      let n = Array.length cells / 3 in
      let st = Array.init (n * d) (fun j -> step *. float_of_int cells.(j)) in
      let ps = P.of_storage ~dim:d st in
      let idx = P.build_index ps in
      let blocks, pairs = P.For_testing.block_pair_bounds idx in
      let seen = Array.make n 0 in
      Array.iter (Array.iter (fun i -> seen.(i) <- seen.(i) + 1)) blocks;
      Array.iteri
        (fun i c -> if c <> if P.For_testing.is_representative idx i then 1 else 0 then fail "row %d in %d blocks" i c)
        seen;
      Array.iter
        (fun (p, q, bound) ->
          Array.iter
            (fun a ->
              Array.iter
                (fun b ->
                  let d2 = Geometry.Vec.dist_sq (P.point ps a) (P.point ps b) in
                  if not (bound <= d2) then fail "blocks %d, %d: bound %h above %h" p q bound d2)
                blocks.(q))
            blocks.(p))
        pairs;
      let radii = Array.init 13 (fun k -> step *. sqrt (float_of_int (2 * k))) in
      let expect = Array.concat (Array.to_list (Array.map (fun radius -> P.counts_within idx ~radius) radii)) in
      if P.fill_counts idx ~radii <> expect then fail "fill_counts differs on the shells";
      true)


(* The pruned [r_opt] scan on small integer lattices, where most k-th
   neighbour distances tie exactly: warm (after a sweep at cap k, whose
   final columns bracket the scan) and cold, it must return the unpruned
   scan's row and radius bit for bit, on both kernel tiers. *)
let qcheck_min_kth_ties_exact =
  qcheck "r_opt scan on tied lattices = the unpruned scan, warm and cold" ~count:40
    QCheck2.Gen.(
      quad (int_range 1 3) bool (int_range 1 1000)
        (int_range 2 150 >>= fun n -> array_size (return (3 * n)) (int_range 0 4)))
    (fun (d, native, kseed, cells) ->
      let before = Kernel.native_active () in
      Fun.protect ~finally:(fun () -> Kernel.set_native before) @@ fun () ->
      Kernel.set_native native;
      let n = Array.length cells / 3 in
      let st = Array.init (n * d) (fun j -> float_of_int cells.(j)) in
      let idx = P.build_index (P.of_storage ~dim:d st) in
      let k = 1 + (kseed mod n) in
      let unpruned =
        let best = ref infinity and best_i = ref 0 in
        for i = 0 to n - 1 do
          let r = P.kth_neighbor_distance idx ~k i in
          if r < !best then begin
            best := r;
            best_i := i
          end
        done;
        (!best_i, !best)
      in
      let same what (i, r) =
        if i <> fst unpruned || bits r <> bits (snd unpruned) then
          fail "%s, k = %d: (%d, %h), unpruned (%d, %h)" what k i r (fst unpruned) (snd unpruned)
      in
      same "cold" (P.min_kth_neighbor_distance (P.cold_copy idx) ~k);
      let radii = Array.init 14 (fun j -> sqrt (float_of_int j)) in
      ignore (P.score_l_many idx ~cap:k ~radii);
      same "warm" (P.min_kth_neighbor_distance idx ~k);
      true)

let suite =
  [
    case "create validation" test_create_validation;
    case "ball counts" test_ball_count;
    case "top average" test_top_average;
    qcheck_index_matches_direct;
    qcheck_l_monotone;
    qcheck_l_sensitivity_two;
    qcheck_l_bounds;
    case "counts_within" test_counts_within;
    case "dense and tree counts agree on the geometric and linear grids" test_tree_counts_match_dense_rows;
    case "kth neighbor distance" test_kth_neighbor;
    case "subset / filter / map" test_subset_filter_map;
    qcheck_grouping_bit_exact;
    case "grouping edge cases: all identical, none, signed zeros" test_grouping_edge_cases;
    qcheck_sweep_resumes_bit_exact;
    qcheck_block_bounds_exact;
    qcheck_min_kth_ties_exact;
  ]
