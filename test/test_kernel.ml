(* Differential suite for lib/kernel: every C stub must agree bit-for-bit
   with its pure-OCaml reference (Kernel.Ref) — the ULP bound is zero by
   contract (DESIGN.md §11), which is what lets the runtime switch backends
   without breaking Result_cache exact replay.  Also pins the batched
   GoodRadius sweep against per-radius scoring. *)

open Testutil

let check_bits msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h (not bit-identical)" msg expected actual

let check_float_array msg expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length %d vs %d" msg (Array.length expected) (Array.length actual);
  Array.iteri (fun i e -> check_bits (Printf.sprintf "%s[%d]" msg i) e actual.(i)) expected

let check_int_array msg expected actual =
  Alcotest.(check (array int)) msg expected actual

(* Run [f] with the C kernels forced on; restore the ambient selection
   after.  Under PRIVCLUSTER_NO_NATIVE the dispatch table already points at
   Ref, so forcing native on exercises the C side regardless of tier. *)
let with_native f =
  let before = Kernel.native_active () in
  Kernel.set_native true;
  Fun.protect ~finally:(fun () -> Kernel.set_native before) f

(* Clouds with deliberate duplicates: coordinates drawn from a small
   discrete set collide often, exercising tie-breaking (argmin/argmax keep
   the first) and duplicate-distance sorting. *)
let cloud_gen =
  QCheck2.Gen.(
    int_range 1 5 >>= fun d ->
    int_range 1 48 >>= fun n ->
    let coord =
      oneof [ float_range (-8.) 8.; (int_range 0 3 >|= fun i -> float_of_int i) ]
    in
    array_size (return n) (array_size (return d) coord) >|= fun pts -> (d, pts))

let flat_of pts d =
  let n = Array.length pts in
  let st = Array.make (n * d) 0. in
  Array.iteri (fun i p -> Array.blit p 0 st (i * d) d) pts;
  (st, Array.init n (fun i -> i * d))

let test_count_within_diff =
  qcheck "count_within: C = Ref (incl. duplicates)"
    QCheck2.Gen.(pair cloud_gen (float_range 0. 10.))
    (fun ((d, pts), radius) ->
      with_native @@ fun () ->
      let st, offs = flat_of pts d in
      let n = Array.length pts in
      let q = pts.(0) in
      let r2 = radius *. radius in
      Kernel.count_within ~st ~offs ~lo:0 ~hi:(n - 1) ~q ~qoff:0 ~dim:d ~r2
      = Kernel.Ref.count_within ~st ~offs ~lo:0 ~hi:(n - 1) ~q ~qoff:0 ~dim:d ~r2)

let test_dists_sort_kth_diff =
  qcheck "dists/sort/kth: C = Ref bitwise" cloud_gen (fun (d, pts) ->
      with_native @@ fun () ->
      let st, offs = flat_of pts d in
      let n = Array.length pts in
      let out_c = Array.make n 0. and out_r = Array.make n 0. in
      Kernel.dists_to_rows ~st ~offs ~n ~q:pts.(n - 1) ~qoff:0 ~dim:d ~out:out_c;
      Kernel.Ref.dists_to_rows ~st ~offs ~n ~q:pts.(n - 1) ~qoff:0 ~dim:d ~out:out_r;
      check_float_array "dists" out_r out_c;
      let k = 1 + (Array.length pts / 2) in
      let kth_c = Kernel.kth_smallest (Array.copy out_c) ~len:n ~k in
      let kth_r = Kernel.Ref.kth_smallest (Array.copy out_r) ~len:n ~k in
      check_bits "kth_smallest" kth_r kth_c;
      Array.sort Float.compare out_r;
      check_bits "kth_smallest = sorted read" out_r.(k - 1) kth_c;
      true)

(* The tree index under the native kernels and under Kernel.Ref: every
   count and every k-th neighbour distance must carry the same bits, on
   a planted set the size of the daemon's serving workloads. *)
let test_tree_index_native_vs_ref () =
  let _, grid, w = small_workload ~seed:5 ~n:3000 ~axis:256 () in
  let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Workload.Synth.points) in
  let n = Array.length w.Workload.Synth.points in
  let under native f =
    let before = Kernel.native_active () in
    Kernel.set_native native;
    Fun.protect ~finally:(fun () -> Kernel.set_native before) f
  in
  for j = 0 to Geometry.Grid.geometric_candidates grid - 1 do
    let radius = Geometry.Grid.geometric_radius_of_index grid j in
    let counts native = under native (fun () -> Geometry.Pointset.counts_within idx ~radius) in
    check_int_array (Printf.sprintf "counts at r = %h" radius) (counts false) (counts true)
  done;
  (* Every fifth point: the reference k-th distance sorts a copy of the
     whole row. *)
  for i5 = 0 to (n - 1) / 5 do
    let i = 5 * i5 in
    List.iter
      (fun k ->
        let kth native = under native (fun () -> Geometry.Pointset.kth_neighbor_distance idx ~k i) in
        check_bits (Printf.sprintf "point %d, k = %d" i k) (kth false) (kth true))
      [ 1; 2; n / 3; n ]
  done

(* The C block-pair pass's bucket table and forward scan against the
   reference bisection, at the table's edges: thresholds equal to pair
   squared distances (so a pair's [d2] equals an [r2s] entry), their
   [Float.pred]/[Float.succ] neighbours, runs of repeated thresholds and
   a 0 threshold.  [Wide] adds a ladder over the whole double range, so
   the table's 4096-key bound forces its coarsest buckets; [Narrow] keeps
   only one pair's [d2] and its nearest floats, so the table is a few
   ulps wide and nearly every other key falls back to bisection.  The
   rows are cut into random runs (the blocks), every block pair runs
   once, in reverse order and split over two calls, and both tiers must
   also equal a direct histogram of every unordered pair. *)
type thresholds = Pairs | Wide | Narrow

let test_pair_hist_blocks_diff =
  qcheck "pair_hist_blocks: C = Ref at the table edges"
    QCheck2.Gen.(
      quad cloud_gen (int_range 1 3) (oneofl [ Pairs; Wide; Narrow ])
        (pair (array_size (return 48) (int_range 1 4)) (array_size (return 48) (int_range 1 9))))
    (fun ((d, pts), dup, mode, (ws, runs)) ->
      with_native @@ fun () ->
      let rows, _ = flat_of pts d in
      let m = Array.length pts in
      let w = Array.sub ws 0 m in
      let d2 =
        Array.concat
          (List.init m (fun a ->
               Array.init (m - a) (fun k -> Geometry.Vec.dist_sq pts.(a) pts.(a + k))))
      in
      let near x = [| Float.pred x; x; Float.succ x |] in
      let r2s =
        match mode with
        | Narrow -> Array.concat (List.map near (Array.to_list (near d2.(Array.length d2 / 2))))
        | Pairs | Wide ->
            Array.concat
              ([ [| 0. |]; Array.concat (List.map near (Array.to_list d2)) ]
              @ List.init dup (fun _ -> Array.sub d2 0 (Array.length d2 / 2))
              @
              if mode = Wide then
                [ Array.init 5000 (fun k -> Float.ldexp 1. ((k * 2097 / 5000) - 1074)); [| infinity |] ]
              else [])
      in
      Array.sort Float.compare r2s;
      let nr = Array.length r2s in
      let starts =
        let rec cut acc at k = if at >= m then List.rev (m :: acc) else cut (at :: acc) (at + runs.(k)) (k + 1) in
        Array.of_list (cut [] 0 0)
      in
      let nb = Array.length starts - 1 in
      let pairs =
        Array.concat
          (List.rev (List.init nb (fun p -> Array.concat (List.init (nb - p) (fun k -> [| p; p + k |])))))
      in
      let npairs = Array.length pairs / 2 in
      let run pair_hist_blocks =
        let hist = Array.make (m * nr) 0 in
        pair_hist_blocks ~rows ~dim:d ~w ~starts ~pairs ~lo:0 ~hi:(npairs / 2) ~r2s ~hist;
        pair_hist_blocks ~rows ~dim:d ~w ~starts ~pairs ~lo:(npairs / 2) ~hi:npairs ~r2s ~hist;
        hist
      in
      let direct = Array.make (m * nr) 0 in
      for a = 0 to m - 1 do
        for b = a to m - 1 do
          let d2 = Geometry.Vec.dist_sq pts.(a) pts.(b) in
          let j = ref 0 in
          while !j < nr && not (d2 <= r2s.(!j)) do
            incr j
          done;
          if !j < nr then begin
            direct.((a * nr) + !j) <- direct.((a * nr) + !j) + w.(b);
            if b <> a then direct.((b * nr) + !j) <- direct.((b * nr) + !j) + w.(a)
          end
        done
      done;
      let reference = run Kernel.Ref.pair_hist_blocks in
      check_int_array "reference = direct pair histogram" direct reference;
      check_int_array "weighted pair histogram" reference (run Kernel.pair_hist_blocks);
      true)

let test_top_avg_capped_diff =
  qcheck "top_avg_capped: C = Ref = sort-based top_average"
    QCheck2.Gen.(
      array_size (int_range 1 80) (int_range 0 50) >>= fun counts ->
      int_range 0 60 >>= fun cap ->
      int_range 1 (Array.length counts) >|= fun k -> (counts, cap, k))
    (fun (counts, cap, k) ->
      with_native @@ fun () ->
      let len = Array.length counts in
      let c = Kernel.top_avg_capped ~counts ~off:0 ~len ~cap ~k in
      let r = Kernel.Ref.top_avg_capped ~counts ~off:0 ~len ~cap ~k in
      check_bits "top_avg C vs Ref" r c;
      (* The histogram result must also equal the historical sort-based
         average of the k largest capped counts. *)
      let capped = Array.map (fun x -> float_of_int (min cap x)) counts in
      check_bits "top_avg vs top_average" (Geometry.Pointset.For_testing.top_average capped ~k) c;
      true)

let test_jl_sum_rows_diff =
  qcheck "jl_project/sum_rows: C = Ref bitwise" cloud_gen (fun (d, pts) ->
      with_native @@ fun () ->
      let st, offs = flat_of pts d in
      let n = Array.length pts in
      let out_dim = 3 in
      let mat = Array.init (out_dim * d) (fun i -> sin (float_of_int (i + 1))) in
      let p_c = Array.make (n * out_dim) 0. and p_r = Array.make (n * out_dim) 0. in
      Kernel.jl_project ~mat ~st ~offs ~n ~in_dim:d ~out_dim ~scale:0.577 ~out:p_c;
      Kernel.Ref.jl_project ~mat ~st ~offs ~n ~in_dim:d ~out_dim ~scale:0.577 ~out:p_r;
      check_float_array "jl_project" p_r p_c;
      let acc_c = Array.make d 0. and acc_r = Array.make d 0. in
      Kernel.sum_rows ~st ~sel:offs ~m:n ~dim:d ~acc:acc_c;
      Kernel.Ref.sum_rows ~st ~sel:offs ~m:n ~dim:d ~acc:acc_r;
      check_float_array "sum_rows" acc_r acc_c;
      true)

let test_argmin_argmax_mindist_diff =
  qcheck "argmin/argmax/min_dist2: C = Ref (first-of-equals)" cloud_gen
    (fun (d, pts) ->
      with_native @@ fun () ->
      let st, offs = flat_of pts d in
      let n = Array.length pts in
      let k = min 4 n in
      let centers = Array.sub st 0 (k * d) in
      for i = 0 to n - 1 do
        let c = Kernel.argmin_center ~st ~off:(i * d) ~centers ~k ~dim:d in
        let r = Kernel.Ref.argmin_center ~st ~off:(i * d) ~centers ~k ~dim:d in
        check_int (Printf.sprintf "argmin_center[%d]" i) r c
      done;
      let c = Kernel.argmax_dist ~st ~offs ~n ~q:pts.(0) ~qoff:0 ~dim:d in
      let r = Kernel.Ref.argmax_dist ~st ~offs ~n ~q:pts.(0) ~qoff:0 ~dim:d in
      check_int "argmax_dist" r c;
      let d2_c = Array.make n infinity and d2_r = Array.make n infinity in
      Kernel.min_dist2_update ~st ~n ~dim:d ~centers ~coff:0 ~dist2:d2_c;
      Kernel.Ref.min_dist2_update ~st ~n ~dim:d ~centers ~coff:0 ~dist2:d2_r;
      check_float_array "min_dist2_update" d2_r d2_c;
      true)

let test_edge_cases () =
  with_native @@ fun () ->
  let st = [| 0.25; 0.75 |] and offs = [| 0 |] in
  (* Empty range: lo > hi counts nothing. *)
  check_int "empty count"
    0
    (Kernel.count_within ~st ~offs ~lo:0 ~hi:(-1) ~q:st ~qoff:0 ~dim:2 ~r2:10.);
  (* Singleton: the point is inside its own radius-0 ball. *)
  check_int "singleton count"
    1
    (Kernel.count_within ~st ~offs ~lo:0 ~hi:0 ~q:st ~qoff:0 ~dim:2 ~r2:0.);
  check_bits "kth of singleton" 0.5 (Kernel.kth_smallest [| 0.5 |] ~len:1 ~k:1);
  (* All-duplicate cloud: every pair at distance 0. *)
  let dup = Array.make 8 [| 1.5; -2.5 |] in
  let dst, doffs = flat_of dup 2 in
  check_int "duplicates all inside"
    8
    (Kernel.count_within ~st:dst ~offs:doffs ~lo:0 ~hi:7 ~q:dst ~qoff:0 ~dim:2 ~r2:0.);
  let row = Array.make 8 0. in
  Kernel.dists_to_rows ~st:dst ~offs:doffs ~n:8 ~q:dst ~qoff:0 ~dim:2 ~out:row;
  check_float_array "duplicate distances" (Array.make 8 0.) row;
  check_bits "top_avg of empty-cap" 0.
    (Kernel.top_avg_capped ~counts:[| 5; 5 |] ~off:0 ~len:2 ~cap:0 ~k:2)

(* Coordinates from a three-value set: most rows are duplicates, so the
   pair pass's multiplicities and copied columns carry most of the
   counts. *)
let duplicate_cloud_gen =
  QCheck2.Gen.(
    int_range 1 3 >>= fun d ->
    int_range 1 60 >>= fun n ->
    let coord = frequency [ (6, int_range 0 2 >|= fun i -> 0.5 *. float_of_int i); (1, float_range 0. 1.) ] in
    array_size (return n) (array_size (return d) coord) >|= fun pts -> (d, pts))

let test_fill_counts_matches_counts_within =
  qcheck ~count:100 "count matrix = per-radius counts_within (duplicates)"
    QCheck2.Gen.(
      pair duplicate_cloud_gen
        (array_size (int_range 1 24) (oneof [ float_range 0. 2.; oneofl [ 0.; 0.5; 1.; sqrt 0.5 ] ])))
    (fun ((_d, pts), radii) ->
      with_native @@ fun () ->
      Array.sort Float.compare radii;
      let idx = Geometry.Pointset.build_index (Geometry.Pointset.create pts) in
      check_int_array "count matrix"
        (Array.concat
           (Array.to_list (Array.map (fun radius -> Geometry.Pointset.counts_within idx ~radius) radii)))
        (Geometry.Pointset.fill_counts idx ~radii);
      true)

(* Radii include -0., both infinities and NaNs: the NaNs land anywhere
   in the otherwise sorted array, which sends it down the per-radius
   path. *)
let test_score_l_many_matches_score_l =
  qcheck ~count:60 "score_l_many = per-radius score_l, bit for bit"
    QCheck2.Gen.(
      pair cloud_gen
        (triple (int_range 1 10)
           (array_size (int_range 1 16)
              (frequency
                 [ (8, float_range 0. 5.); (1, oneofl [ -0.; infinity; neg_infinity ]) ]))
           (list_size (int_range 0 2) (int_range 0 16))))
    (fun ((_d, pts), (cap, radii, nans)) ->
      with_native @@ fun () ->
      Array.sort Float.compare radii;
      let radii =
        List.fold_left
          (fun r at ->
            let at = min at (Array.length r) in
            Array.concat [ Array.sub r 0 at; [| Float.nan |]; Array.sub r at (Array.length r - at) ])
          radii nans
      in
      let ps = Geometry.Pointset.create pts in
      let idx = Geometry.Pointset.build_index ps in
      let batched = Geometry.Pointset.score_l_many idx ~cap ~radii in
      Array.iteri
        (fun j r ->
          check_bits
            (Printf.sprintf "L(%g) cap=%d" r cap)
            (Geometry.Pointset.score_l idx ~cap ~radius:r)
            batched.(j))
        radii;
      true)

(* The count-matrix memo on an index must be invisible: interleaving caps
   and alternating two grids (each switch replaces the one memo entry),
   with a negative-radius prefix the memo key skips, every sweep must
   still equal fresh per-radius scoring bit for bit. *)
let test_score_l_many_memo_matches_score_l =
  let sorted_radii =
    QCheck2.Gen.(array_size (int_range 1 12) (float_range (-2.) 5.) >|= fun a ->
                 Array.sort Float.compare a;
                 a)
  in
  qcheck ~count:60 "score_l_many memo = fresh per-radius score_l"
    QCheck2.Gen.(
      pair cloud_gen (triple sorted_radii sorted_radii (list_size (int_range 1 4) (int_range 1 10))))
    (fun ((_d, pts), (ra, rb, caps)) ->
      with_native @@ fun () ->
      let ps = Geometry.Pointset.create pts in
      let key radii = List.filter (fun r -> r >= 0.) (Array.to_list radii) in
      let idx = Geometry.Pointset.build_index ps in
      List.iter
        (fun cap ->
          List.iter
            (fun radii ->
              let batched = Geometry.Pointset.score_l_many idx ~cap ~radii in
              Array.iteri
                (fun j r ->
                  check_bits
                    (Printf.sprintf "L(%g) cap=%d" r cap)
                    (Geometry.Pointset.score_l idx ~cap ~radius:r)
                    batched.(j))
                radii;
              if Geometry.Pointset.For_testing.memo_holds idx ~radii <> (key radii <> []) then
                Alcotest.fail "memo entry does not match the last sweep")
            [ ra; rb; ra ])
        caps;
      (* The last sweep with a non-negative radius owns the entry. *)
      let rb_owns = key rb <> [] && (key ra = [] || key ra = key rb) in
      if Geometry.Pointset.For_testing.memo_holds idx ~radii:rb <> rb_owns then
        Alcotest.fail "a replaced memo entry still answers";
      true)

(* The memo's bound: a sweep is memoized only when its non-negative radii
   fit one count block (n · |radii| <= 4·10⁶, see [Pointset.score_l_many]).
   At exactly the bound the sweep is memoized; one radius above it, the
   blocked path runs, leaves the memo entry alone, and still matches
   per-radius scoring (checked on a stride through the grid, across the
   block boundary and at both ends). *)
let test_score_l_many_above_memo_bound =
  qcheck ~count:3 "score_l_many above the memo bound: unmemoized, still exact"
    (* Shrinking a thousand-point cloud only burns time; failures report
       the full instance. *)
    QCheck2.Gen.(
      no_shrink
        ( int_range 1 3 >>= fun d ->
          int_range 900 1100 >>= fun n ->
          let coord = oneof [ float_range 0. 4.; (int_range 0 3 >|= fun i -> float_of_int i) ] in
          array_size (return n) (array_size (return d) coord) >|= fun pts -> (d, pts) ))
    (fun (d, pts) ->
      with_native @@ fun () ->
      let ps = Geometry.Pointset.create pts in
      let n = Array.length pts in
      let block = 4_000_000 / n in
      let span = 4. *. sqrt (float_of_int d) in
      (* Two negative radii, then [block] or [block + 1] non-negative ones. *)
      let grid nnr =
        Array.append [| -1.; -0.5 |]
          (Array.init nnr (fun j -> span *. float_of_int j /. float_of_int nnr))
      in
      let at_bound = grid block and above = grid (block + 1) in
      let cap = n / 3 in
      let idx = Geometry.Pointset.build_index ps in
      ignore (Geometry.Pointset.score_l_many idx ~cap ~radii:at_bound);
      check_true "at the bound: memoized"
        (Geometry.Pointset.For_testing.memo_holds idx ~radii:at_bound);
      let batched = Geometry.Pointset.score_l_many idx ~cap ~radii:above in
      check_true "above the bound: not memoized"
        (not (Geometry.Pointset.For_testing.memo_holds idx ~radii:above));
      check_true "above the bound: earlier entry kept"
        (Geometry.Pointset.For_testing.memo_holds idx ~radii:at_bound);
      let len = Array.length above in
      let probes =
        List.sort_uniq compare
          (List.init ((len + 52) / 53) (fun k -> k * 53)
          @ [ 0; 1; 2; block; block + 1; block + 2; len - 1 ])
      in
      List.iter
        (fun j ->
          check_bits
            (Printf.sprintf "L(%g) above the bound" above.(j))
            (Geometry.Pointset.score_l idx ~cap ~radius:above.(j))
            batched.(j))
        probes;
      true)

let test_native_off_matches_native_on () =
  (* End-to-end: the full pipeline must be bit-identical with the C kernels
     on and off — same centers, radii, and stage diagnostics. *)
  let _, grid, w = small_workload ~n:300 ~fraction:0.6 ~radius:0.05 () in
  let run () =
    let r = rng ~seed:23 () in
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:4.0
      ~delta:1e-6 ~beta:0.1 ~t:150 w.Workload.Synth.points
  in
  let before = Kernel.native_active () in
  Fun.protect ~finally:(fun () -> Kernel.set_native before) @@ fun () ->
  Kernel.set_native true;
  let on = run () in
  Kernel.set_native false;
  let off = run () in
  match (on, off) with
  | Ok a, Ok b ->
      check_float_array "center" a.Privcluster.One_cluster.center
        b.Privcluster.One_cluster.center;
      check_bits "radius" a.Privcluster.One_cluster.radius
        b.Privcluster.One_cluster.radius;
      check_int "score evals"
        a.Privcluster.One_cluster.radius_stage.Privcluster.Good_radius.score_evals
        b.Privcluster.One_cluster.radius_stage.Privcluster.Good_radius.score_evals
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "native on/off disagree on success"

(* The C stubs trust their indices (a negative cap wrote before the
   stub's table; k out of range read past the buffer), so the wrappers
   check them: each bad argument raises the same [Invalid_argument] on
   both tiers, and the Pointset score functions refuse a cap below 1
   (k = min cap n = 0 divided by zero). *)
let test_index_arguments_checked () =
  let before = Kernel.native_active () in
  Fun.protect ~finally:(fun () -> Kernel.set_native before) @@ fun () ->
  let kth_msg = "Kernel.kth_smallest: need 1 <= k <= len <= Array.length" in
  let top_msg =
    "Kernel.top_avg_capped: need 0 <= off, off + len <= Array.length, 1 <= k <= len, cap >= 0"
  in
  let counts = [| 3; 1; 4; 1; 5 |] in
  let ps = Geometry.Pointset.create [| [| 0.; 0. |]; [| 1.; 0. |]; [| 0.5; 0.5 |] |] in
  let idx = Geometry.Pointset.build_index ps in
  List.iter
    (fun native ->
      Kernel.set_native native;
      let tier = if native then "native" else "reference" in
      let raises what msg f =
        Alcotest.check_raises (Printf.sprintf "%s (%s)" what tier) (Invalid_argument msg) (fun () ->
            ignore (f ()))
      in
      let a = [| 0.5; 0.25; 0.75 |] in
      raises "kth k = 0" kth_msg (fun () -> Kernel.kth_smallest (Array.copy a) ~len:3 ~k:0);
      raises "kth k = len + 1" kth_msg (fun () -> Kernel.kth_smallest (Array.copy a) ~len:3 ~k:4);
      raises "kth len > length" kth_msg (fun () -> Kernel.kth_smallest (Array.copy a) ~len:4 ~k:1);
      raises "top off < 0" top_msg (fun () ->
          Kernel.top_avg_capped ~counts ~off:(-1) ~len:3 ~cap:2 ~k:1);
      raises "top off + len > length" top_msg (fun () ->
          Kernel.top_avg_capped ~counts ~off:3 ~len:3 ~cap:2 ~k:1);
      raises "top k = 0" top_msg (fun () -> Kernel.top_avg_capped ~counts ~off:0 ~len:3 ~cap:2 ~k:0);
      raises "top k > len" top_msg (fun () -> Kernel.top_avg_capped ~counts ~off:0 ~len:3 ~cap:2 ~k:4);
      raises "top cap < 0" top_msg (fun () -> Kernel.top_avg_capped ~counts ~off:0 ~len:3 ~cap:(-1) ~k:1);
      check_bits (Printf.sprintf "in range (%s)" tier) 4.5
        (Kernel.top_avg_capped ~counts ~off:1 ~len:4 ~cap:9 ~k:2);
      check_bits (Printf.sprintf "kth in range (%s)" tier) 0.75
        (Kernel.kth_smallest (Array.copy a) ~len:3 ~k:3);
      List.iter
        (fun cap ->
          let msg fn = Printf.sprintf "Pointset.%s: cap must be >= 1" fn in
          raises (Printf.sprintf "score_l cap %d" cap) (msg "score_l") (fun () ->
              Geometry.Pointset.score_l idx ~cap ~radius:1.);
          raises (Printf.sprintf "score_l_many cap %d" cap) (msg "score_l_many") (fun () ->
              Geometry.Pointset.score_l_many idx ~cap ~radii:[| 0.; 1. |]);
          raises (Printf.sprintf "score_l_direct cap %d" cap) (msg "score_l_direct") (fun () ->
              Geometry.Pointset.For_testing.score_l_direct ps ~cap ~radius:1.))
        [ -1; 0 ])
    [ true; false ]

let test_selection_reporting () =
  check_true "stubs compiled in" Kernel.compiled;
  let before = Kernel.native_active () in
  Fun.protect ~finally:(fun () -> Kernel.set_native before) @@ fun () ->
  Kernel.set_native false;
  check_true "disable wins" (not (Kernel.native_active ()));
  Kernel.set_native true;
  check_true "re-enable wins" (Kernel.native_active ())

let suite =
  [
    test_count_within_diff;
    test_dists_sort_kth_diff;
    case "tree index: native = reference (n = 3000)" test_tree_index_native_vs_ref;
    test_pair_hist_blocks_diff;
    test_top_avg_capped_diff;
    test_jl_sum_rows_diff;
    test_argmin_argmax_mindist_diff;
    case "kernel edge cases (empty/singleton/duplicates)" test_edge_cases;
    test_fill_counts_matches_counts_within;
    test_score_l_many_matches_score_l;
    test_score_l_many_memo_matches_score_l;
    test_score_l_many_above_memo_bound;
    case "pipeline bit-identical with kernels on/off" test_native_off_matches_native_on;
    case "runtime selection switches" test_selection_reporting;
    case "index arguments checked on both tiers" test_index_arguments_checked;
  ]
