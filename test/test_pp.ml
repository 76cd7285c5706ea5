(* Pretty-printers: every result record must render without raising and
   mention its key fields (these strings end up in logs and CLI output). *)

open Testutil

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_good_radius_pp () =
  let r, grid, w = small_workload ~n:300 () in
  let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Workload.Synth.points) in
  let result =
    Privcluster.Good_radius.run r Privcluster.Profile.practical ~grid ~eps:2.0 ~delta:1e-6
      ~beta:0.1 ~t:150 idx
  in
  let s = Format.asprintf "%a" Privcluster.Good_radius.pp_result result in
  check_true "mentions radius" (contains s "radius=");
  check_true "mentions gamma" (contains s "gamma=")

let test_one_cluster_pp () =
  let r, grid, w = small_workload ~seed:91 ~n:600 ~fraction:0.6 () in
  match
    Privcluster.One_cluster.run r Privcluster.Profile.practical ~grid ~eps:4.0 ~delta:1e-6
      ~beta:0.1 ~t:300 w.Workload.Synth.points
  with
  | Error _ -> Alcotest.fail "unexpected failure"
  | Ok result ->
      let s = Format.asprintf "%a" Privcluster.One_cluster.For_testing.pp_result result in
      check_true "mentions center" (contains s "center=");
      check_true "mentions a stage" (contains s "radius_stage=" || contains s "zero-path");
      (match result.Privcluster.One_cluster.center_stage with
      | Some c ->
          let cs = Format.asprintf "%a" Privcluster.Good_center.pp_success c in
          check_true "center stage renders" (contains cs "m_hat=")
      | None -> ())

let test_failure_pp () =
  List.iter
    (fun f ->
      let s = Format.asprintf "%a" Privcluster.Good_center.pp_failure f in
      check_true "non-empty" (String.length s > 5))
    [
      Privcluster.Good_center.No_heavy_box;
      Privcluster.Good_center.Box_selection_failed;
      Privcluster.Good_center.Averaging_bottom;
    ];
  let s =
    Format.asprintf "%a" Privcluster.One_cluster.pp_failure
      (Privcluster.One_cluster.Center_failure Privcluster.Good_center.No_heavy_box)
  in
  check_true "wrapped failure" (contains s "center stage")

let test_vec_pp () =
  let s = Format.asprintf "%a" Geometry.Vec.pp [| 1.5; -2. |] in
  check_true "vector renders" (contains s "1.5" && contains s "-2")

let test_profile_pp_roundtrip_fields () =
  let s = Format.asprintf "%a" Privcluster.Profile.pp Privcluster.Profile.paper in
  check_true "linear grid named" (contains s "linear");
  check_true "paper rounds named" (contains s "paper")

let suite =
  [
    case "good radius pp" test_good_radius_pp;
    case "one cluster pp" test_one_cluster_pp;
    case "failure pp" test_failure_pp;
    case "vec pp" test_vec_pp;
    case "profile pp fields" test_profile_pp_roundtrip_fields;
  ]
