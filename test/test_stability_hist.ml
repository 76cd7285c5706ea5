(* Stability-based histogram (Theorem 2.5). *)

open Testutil

let test_count_by () =
  let data = [| "a"; "b"; "a"; "c"; "a"; "b" |] in
  let cells = Prim.Stability_hist.count_by ~key:(fun x -> x) data in
  let find k = List.assoc k cells in
  check_int "a count" 3 (find "a");
  check_int "b count" 2 (find "b");
  check_int "c count" 1 (find "c");
  check_int "only non-empty cells" 3 (List.length cells)

let qcheck_count_by_total =
  qcheck "count_by totals to n" QCheck2.Gen.(array_size (int_bound 200) (int_bound 10))
    (fun data ->
      let cells = Prim.Stability_hist.count_by ~key:(fun x -> x mod 3) data in
      List.fold_left (fun acc (_, c) -> acc + c) 0 cells = Array.length data)

let test_select_heavy () =
  let r = rng () in
  let data = Array.init 500 (fun i -> if i < 400 then 7 else i) in
  match Prim.Stability_hist.select_by r ~eps:1.0 ~delta:1e-6 ~key:(fun x -> x) data with
  | Some cell ->
      check_int "heavy key found" 7 cell.Prim.Stability_hist.key;
      check_int "true count carried" 400 cell.Prim.Stability_hist.count
  | None -> Alcotest.fail "heavy cell not released"

let test_select_spread_returns_none () =
  let r = rng () in
  (* Every key unique: max count 1, far below the release threshold. *)
  let data = Array.init 500 (fun i -> i) in
  let released = ref 0 in
  for _ = 1 to 50 do
    match Prim.Stability_hist.select_by r ~eps:1.0 ~delta:1e-6 ~key:(fun x -> x) data with
    | Some _ -> incr released
    | None -> ()
  done;
  check_true "spread data essentially never released" (!released <= 1)

let test_release_threshold_formula () =
  check_float ~tol:1e-9 "threshold" (1. +. (2. *. log (2. /. 1e-6)))
    (Prim.Stability_hist.release_threshold ~eps:1.0 ~delta:1e-6)

let test_utility_theorem_25 () =
  (* With T above the requirement, the returned cell must hold at least
     T − utility_loss elements at rate >= 1 − beta. *)
  let r = rng () in
  let eps = 1.0 and delta = 1e-6 and beta = 0.1 and n = 400 in
  let req = Prim.Stability_hist.utility_requirement ~eps ~delta ~n ~beta in
  let loss = Prim.Stability_hist.utility_loss ~eps ~n ~beta in
  let heavy = int_of_float req + 10 in
  let data = Array.init n (fun i -> if i < heavy then 0 else i) in
  let failures = ref 0 in
  for _ = 1 to 200 do
    match Prim.Stability_hist.select_by r ~eps ~delta ~key:(fun x -> x) data with
    | Some cell when float_of_int cell.Prim.Stability_hist.count >= float_of_int heavy -. loss -> ()
    | _ -> incr failures
  done;
  check_true "theorem 2.5 rate" (float_of_int !failures /. 200. <= beta)

let test_polymorphic_keys () =
  let r = rng () in
  (* int-array keys (the box keys of GoodCenter) hash structurally. *)
  let data = Array.init 300 (fun i -> if i < 200 then [| 1; 2 |] else [| i; i |]) in
  match Prim.Stability_hist.select_by r ~eps:1.0 ~delta:1e-6 ~key:(fun x -> x) data with
  | Some cell -> check_true "array key matched" (cell.Prim.Stability_hist.key = [| 1; 2 |])
  | None -> Alcotest.fail "heavy array key not found"

(* GoodCenter's box histogram lists its cells in [count_by]'s first-seen
   order, and [select] draws one Laplace noise per cell in list order, so
   the order below is part of every GoodCenter answer.  It depends on the
   rows' order only, never on a hash table: CI runs this suite under
   OCAMLRUNPARAM=R too. *)
let test_box_cell_order_golden () =
  let part = Geometry.Interval.For_testing.fixed ~shift:0.05 ~len:0.2 in
  let boxing = Geometry.Boxing.For_testing.of_partitions [| part; part |] in
  let ps =
    Geometry.Pointset.create
      (Array.init 24 (fun i ->
           let f = float_of_int i in
           [| Float.rem (f *. 0.37) 1.0; Float.rem (f *. 0.61) 1.0 |]))
  in
  let cells = Geometry.Boxing.occupancy boxing ps in
  let show l =
    String.concat "; "
      (List.map
         (fun (k, c) ->
           Printf.sprintf "([|%s|], %d)" (String.concat "; " (Array.to_list (Array.map string_of_int k))) c)
         l)
  in
  let expected =
    [
      ([| -1; -1 |], 1); ([| 1; 2 |], 2); ([| 3; 0 |], 2); ([| 0; 3 |], 3); ([| 2; 1 |], 2);
      ([| 4; -1 |], 1); ([| 4; 4 |], 1); ([| 1; 1 |], 2); ([| 3; 4 |], 2); ([| 0; 2 |], 1);
      ([| 2; 0 |], 1); ([| 4; 3 |], 1); ([| -1; 2 |], 1); ([| 1; 0 |], 1); ([| 3; 3 |], 1);
      ([| 0; 1 |], 1); ([| 2; -1 |], 1);
    ]
  in
  Alcotest.(check string) "cells in first-seen order" (show expected) (show cells)

(* [count_by] against an association-list scan that keeps each key where
   it was first seen: small key ranges (few cells, long runs) and wide ones
   (almost every element its own cell), int-array keys as GoodCenter uses. *)
let qcheck_count_by_first_seen =
  qcheck "count_by lists cells in first-seen order" ~count:300
    QCheck2.Gen.(
      int_range 1 40 >>= fun m -> array_size (int_bound 300) (pair (int_bound m) (int_range (-3) 3)))
    (fun data ->
      let key (a, b) = [| a; b |] in
      let reference =
        List.rev
          (Array.fold_left
             (fun acc x ->
               let k = key x in
               if List.mem_assoc k acc then
                 List.map (fun (k', c) -> if k' = k then (k', c + 1) else (k', c)) acc
               else (k, 1) :: acc)
             [] data)
      in
      Prim.Stability_hist.count_by ~key data = reference)

let suite =
  [
    case "count_by" test_count_by;
    case "box cell order golden" test_box_cell_order_golden;
    qcheck_count_by_total;
    case "select heavy" test_select_heavy;
    case "select on spread data" test_select_spread_returns_none;
    case "release threshold formula" test_release_threshold_formula;
    case "theorem 2.5 utility" test_utility_theorem_25;
    case "polymorphic (array) keys" test_polymorphic_keys;
    qcheck_count_by_first_seen;
  ]
