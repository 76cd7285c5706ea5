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
    (Array.length (Geometry.Pointset.ball_points ps ~center:[| 0.; 0. |] ~radius:0.5))

let test_top_average () =
  check_float "top 2 of [1;5;3]" 4.0 (Geometry.Pointset.top_average [| 1.; 5.; 3. |] ~k:2);
  check_float "top all" 3.0 (Geometry.Pointset.top_average [| 1.; 5.; 3. |] ~k:3);
  Alcotest.check_raises "bad k" (Invalid_argument "Pointset.top_average: bad k") (fun () ->
      ignore (Geometry.Pointset.top_average [| 1. |] ~k:2))

let qcheck_index_matches_direct =
  qcheck "indexed L = direct L" ~count:60 points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let idx = Geometry.Pointset.build_index ps in
      let t = max 1 (Array.length pts / 3) in
      List.for_all
        (fun r ->
          Float.abs
            (Geometry.Pointset.score_l idx ~cap:t ~radius:r
            -. Geometry.Pointset.score_l_direct ps ~cap:t ~radius:r)
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
      let l = Geometry.Pointset.score_l_direct ps ~cap:t ~radius:r in
      let l' = Geometry.Pointset.score_l_direct ps' ~cap:t ~radius:r in
      Float.abs (l -. l') <= 2. +. 1e-9)

let qcheck_l_bounds =
  qcheck "0 <= L <= t and L(diam) = min n t" ~count:60 points_gen (fun pts ->
      let ps = Geometry.Pointset.create pts in
      let n = Array.length pts in
      let t = max 1 (n / 2) in
      let l r = Geometry.Pointset.score_l_direct ps ~cap:t ~radius:r in
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
              (Geometry.Pointset.holds_at_least idx ~radius ~k i = (c >= k))
          done)
        (Geometry.Pointset.counts_within idx ~radius))
    [ -1.; 0.; 0.1; 0.15; 0.2; 1. ]

let ref_rows ps = sorted_dist_rows (Geometry.Pointset.points ps)

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
   [counts_within], the linear one (1025 radii) through one multi-radius
   traversal per point, and r = 1.0 through both. *)
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
      let nr = Array.length radii in
      let tree = Geometry.Pointset.index_tree idx in
      let out = Array.make nr 0 in
      for i = 0 to n - 1 do
        Geometry.Kdtree.count_within_row_many tree (Geometry.Pointset.storage ps)
          ~off:(Geometry.Pointset.row_offset ps i) ~radii ~out ~stride:1 ~col:0;
        (* Two-pointer merge of the sorted row against the ascending radii. *)
        let p = ref 0 in
        Array.iteri
          (fun j r ->
            while !p < n && rows.(i).(!p) <= r do
              incr p
            done;
            if out.(j) <> !p then
              Alcotest.failf "seed %d, point %d, linear r = %h: tree %d, dense %d" seed i r out.(j) !p)
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
  let filtered = Geometry.Pointset.filter (fun p -> p.(0) > 0.5) ps in
  check_int "filter" 2 (Geometry.Pointset.n filtered);
  check_float "filter keeps order" 1. (Geometry.Pointset.point filtered 0).(0);
  let mapped = Geometry.Pointset.map_points (Geometry.Vec.scale 2.) ps in
  check_float "map" 4. (Geometry.Pointset.point mapped 2).(0)

(* Identical points share one count-matrix column
   ([Pointset.is_representative]).  Every grouped answer must equal bit for
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
    (fun i r -> if P.is_representative idx i <> (r = i) then fail "is_representative %d" i)
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
            if P.holds_at_least idx ~radius ~k i <> (ref_counts.((j * n) + i) >= k) then
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
    (List.for_all (fun i -> P.is_representative same_idx i = (i = 0)) (List.init 40 Fun.id));
  (* No duplicates. *)
  let spread = P.of_storage ~dim:2 (Prim.Rng.gaussian_vector (rng ()) ~dim:120 ~sigma:1.0) in
  check_grouping spread;
  check_true "no duplicates: every row its own representative"
    (let idx = P.build_index spread in
     List.for_all (P.is_representative idx) (List.init 60 Fun.id));
  (* 0.0 and -0.0 are distinct keys with equal answers. *)
  let signed =
    P.create [| [| 0.; 0. |]; [| -0.; 0. |]; [| 0.; -0. |]; [| 1.; 0. |]; [| 0.; 0. |]; [| -0.; 0. |] |]
  in
  check_grouping signed;
  let idx = P.build_index signed in
  Alcotest.(check (list bool))
    "signed zeros kept apart" [ true; true; true; true; false; false ]
    (List.init 6 (P.is_representative idx));
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
  ]
