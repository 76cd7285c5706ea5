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
      Kernel.sort_floats out_c;
      Kernel.Ref.sort_floats out_r;
      check_float_array "sorted" out_r out_c;
      true)

(* Distance rows built to reach every branch of the native row sort: the
   lengths straddle its cutoffs (insertion sort, short-row quicksort,
   buckets, beyond the dense threshold), and the shapes hit its
   duplicate-heavy buckets, its single oversized bucket (all equal, one
   far outlier) and its quicksort fallbacks (+0.-only rows, subnormal-only
   rows, a +inf entry). *)
let distance_row_gen =
  QCheck2.Gen.(
    no_shrink
      ( oneofl [ 0; 1; 2; 15; 16; 64; 65; 4097 ] >>= fun len ->
        let row elt = array_size (return len) elt in
        let set_one a x pos = if len > 0 then a.(pos mod len) <- x; a in
        oneof
          [
            (* Grid-snapped: many exact duplicates. *)
            ( float_range 1e-3 1. >>= fun h ->
              row (int_range 0 12 >|= fun k -> h *. float_of_int k) );
            (* All equal, zero included. *)
            (oneof [ return 0.; float_range 1e-3 5. ] >|= fun c -> Array.make len c);
            (* Mostly +0. *)
            row (frequency [ (3, return 0.); (1, float_range 0. 2.) ]);
            (* One far outlier: every other entry lands in the first bucket. *)
            ( pair (row (float_range 0. 1.)) nat >|= fun (a, pos) -> set_one a 1e300 pos );
            (* Subnormal only: [len / max] overflows. *)
            row (int_range 1 1000 >|= fun k -> Int64.float_of_bits (Int64.of_int k));
            (* A trailing +inf. *)
            (row (float_range 0. 3.) >|= fun a -> set_one a infinity (len - 1));
            (* Plain spread-out distances. *)
            row (float_range 0. 1.5);
          ] ))

let test_sort_floats_rows_diff =
  qcheck ~count:300 "sort_floats: C = Ref bitwise (adversarial distance rows)"
    distance_row_gen (fun row ->
      with_native @@ fun () ->
      let c = Array.copy row and r = Array.copy row in
      Kernel.sort_floats c;
      Kernel.Ref.sort_floats r;
      check_float_array "sorted row" r c;
      true)

(* The dense index is n sorted rows: under the native kernels and under
   Kernel.Ref every k-th neighbour distance must carry the same bits, on
   a planted set the size of the daemon's dense workloads. *)
let test_dense_index_rows_native_vs_ref () =
  let _, _, w = small_workload ~seed:5 ~n:3000 ~axis:256 () in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  let build native =
    let before = Kernel.native_active () in
    Kernel.set_native native;
    Fun.protect ~finally:(fun () -> Kernel.set_native before) @@ fun () ->
    Geometry.Pointset.build_index ps
  in
  let c = build true and r = build false in
  let n = Geometry.Pointset.n ps in
  for i = 0 to n - 1 do
    for k = 1 to n do
      let kth idx = Geometry.Pointset.kth_neighbor_distance idx ~k i in
      if Int64.bits_of_float (kth c) <> Int64.bits_of_float (kth r) then
        Alcotest.failf "row %d, entry %d: native %h, reference %h" i k (kth c) (kth r)
    done
  done

let test_counts_le_sorted_diff =
  qcheck "counts_le_sorted: C = Ref"
    QCheck2.Gen.(
      pair
        (array_size (int_range 0 60) (float_range 0. 20.))
        (array_size (int_range 1 40) (float_range (-1.) 21.)))
    (fun (row, radii) ->
      with_native @@ fun () ->
      Array.sort Float.compare row;
      Array.sort Float.compare radii;
      let nr = Array.length radii in
      let out_c = Array.make nr 0 and out_r = Array.make nr 0 in
      Kernel.counts_le_sorted ~row ~len:(Array.length row) ~radii ~nr ~out:out_c
        ~stride:1 ~col:0;
      Kernel.Ref.counts_le_sorted ~row ~len:(Array.length row) ~radii ~nr ~out:out_r
        ~stride:1 ~col:0;
      check_int_array "counts" out_r out_c;
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
      check_bits "top_avg vs top_average" (Geometry.Pointset.top_average capped ~k) c;
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
  Kernel.sort_floats [||];
  check_bits "kth of singleton" 0.5 (Kernel.kth_smallest [| 0.5 |] ~len:1 ~k:1);
  (* All-duplicate cloud: every pair at distance 0. *)
  let dup = Array.make 8 [| 1.5; -2.5 |] in
  let dst, doffs = flat_of dup 2 in
  check_int "duplicates all inside"
    8
    (Kernel.count_within ~st:dst ~offs:doffs ~lo:0 ~hi:7 ~q:dst ~qoff:0 ~dim:2 ~r2:0.);
  let row = Array.make 8 0. in
  Kernel.dists_to_rows ~st:dst ~offs:doffs ~n:8 ~q:dst ~qoff:0 ~dim:2 ~out:row;
  Kernel.sort_floats row;
  check_float_array "duplicate distances" (Array.make 8 0.) row;
  check_bits "top_avg of empty-cap" 0.
    (Kernel.top_avg_capped ~counts:[| 5; 5 |] ~off:0 ~len:2 ~cap:0 ~k:2);
  (* counts_le_sorted over an empty row. *)
  let out = [| 99 |] in
  Kernel.counts_le_sorted ~row:[||] ~len:0 ~radii:[| 1. |] ~nr:1 ~out ~stride:1 ~col:0;
  check_int "empty row count" 0 out.(0)

let test_count_within_row_many_matches_per_radius =
  qcheck ~count:100 "kdtree multi-radius = per-radius counts"
    QCheck2.Gen.(pair cloud_gen (array_size (int_range 1 24) (float_range 0. 6.)))
    (fun ((d, pts), radii) ->
      with_native @@ fun () ->
      Array.sort Float.compare radii;
      let st, offs = flat_of pts d in
      let tree = Geometry.Kdtree.build_flat ~storage:st ~offs ~dim:d () in
      let nr = Array.length radii in
      let out = Array.make nr (-1) in
      Geometry.Kdtree.count_within_row_many tree st ~off:0 ~radii ~out ~stride:1 ~col:0;
      let expected =
        Array.map (fun r -> Geometry.Kdtree.count_within_row tree st ~off:0 ~radius:r) radii
      in
      check_int_array "multi-radius counts" expected out;
      true)

let test_score_l_many_matches_score_l =
  qcheck ~count:60 "score_l_many = per-radius score_l (both backends)"
    QCheck2.Gen.(
      pair cloud_gen (pair (int_range 1 10) (array_size (int_range 1 16) (float_range 0. 5.))))
    (fun ((_d, pts), (cap, radii)) ->
      with_native @@ fun () ->
      Array.sort Float.compare radii;
      let ps = Geometry.Pointset.create pts in
      List.iter
        (fun idx ->
          let batched = Geometry.Pointset.score_l_many idx ~cap ~radii in
          Array.iteri
            (fun j r ->
              check_bits
                (Printf.sprintf "L(%g) cap=%d" r cap)
                (Geometry.Pointset.score_l idx ~cap ~radius:r)
                batched.(j))
            radii)
        [ Geometry.Pointset.build_index ps; Geometry.Pointset.build_tree_index ps ];
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
  qcheck ~count:60 "score_l_many memo = fresh per-radius score_l (both backends)"
    QCheck2.Gen.(
      pair cloud_gen (triple sorted_radii sorted_radii (list_size (int_range 1 4) (int_range 1 10))))
    (fun ((_d, pts), (ra, rb, caps)) ->
      with_native @@ fun () ->
      let ps = Geometry.Pointset.create pts in
      let key radii = List.filter (fun r -> r >= 0.) (Array.to_list radii) in
      List.iter
        (fun idx ->
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
                  if Geometry.Pointset.memo_holds idx ~radii <> (key radii <> []) then
                    Alcotest.fail "memo entry does not match the last sweep")
                [ ra; rb; ra ])
            caps;
          (* The last sweep with a non-negative radius owns the entry. *)
          let rb_owns = key rb <> [] && (key ra = [] || key ra = key rb) in
          if Geometry.Pointset.memo_holds idx ~radii:rb <> rb_owns then
            Alcotest.fail "a replaced memo entry still answers")
        [ Geometry.Pointset.build_index ps; Geometry.Pointset.build_tree_index ps ];
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
      List.iter
        (fun idx ->
          ignore (Geometry.Pointset.score_l_many idx ~cap ~radii:at_bound);
          check_true "at the bound: memoized"
            (Geometry.Pointset.memo_holds idx ~radii:at_bound);
          let batched = Geometry.Pointset.score_l_many idx ~cap ~radii:above in
          check_true "above the bound: not memoized"
            (not (Geometry.Pointset.memo_holds idx ~radii:above));
          check_true "above the bound: earlier entry kept"
            (Geometry.Pointset.memo_holds idx ~radii:at_bound);
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
            probes)
        [ Geometry.Pointset.build_index ps; Geometry.Pointset.build_tree_index ps ];
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
    test_sort_floats_rows_diff;
    case "dense index rows: native = reference (n = 3000)" test_dense_index_rows_native_vs_ref;
    test_counts_le_sorted_diff;
    test_top_avg_capped_diff;
    test_jl_sum_rows_diff;
    test_argmin_argmax_mindist_diff;
    case "kernel edge cases (empty/singleton/duplicates)" test_edge_cases;
    test_count_within_row_many_matches_per_radius;
    test_score_l_many_matches_score_l;
    test_score_l_many_memo_matches_score_l;
    test_score_l_many_above_memo_bound;
    case "pipeline bit-identical with kernels on/off" test_native_off_matches_native_on;
    case "runtime selection switches" test_selection_reporting;
  ]
