(* AboveThreshold (Theorem 4.8). *)

open Testutil

let test_fires_on_clear_signal () =
  let r = rng () in
  let sv = Prim.Sparse_vector.create r ~eps:1.0 ~threshold:100. in
  (* Stream of well-below queries then one well-above. *)
  let fired_early = ref false in
  for _ = 1 to 20 do
    if (not (Prim.Sparse_vector.For_testing.halted sv)) && Prim.Sparse_vector.query sv 10. = Prim.Sparse_vector.Above
    then fired_early := true
  done;
  check_true "no premature fire on values 90 below threshold" (not !fired_early);
  check_true "fires on value 100 above threshold"
    (Prim.Sparse_vector.query sv 200. = Prim.Sparse_vector.Above);
  check_true "halted" (Prim.Sparse_vector.For_testing.halted sv);
  check_int "queries counted" 21 (Prim.Sparse_vector.For_testing.queries_asked sv)

let test_rejects_after_halt () =
  let r = rng () in
  let sv = Prim.Sparse_vector.create r ~eps:1.0 ~threshold:0. in
  ignore (Prim.Sparse_vector.query sv 1000.);
  Alcotest.check_raises "halted mechanism rejects"
    (Invalid_argument "Sparse_vector.query: mechanism already halted") (fun () ->
      ignore (Prim.Sparse_vector.query sv 1.))

let test_accuracy_theorem () =
  (* Run many independent mechanisms; every answer must respect the
     Theorem 4.8 slack at rate >= 1 - beta. *)
  let r = rng () in
  let eps = 0.5 and k = 20 and beta = 0.1 in
  let slack = Prim.Sparse_vector.accuracy_bound ~eps ~k ~beta in
  let threshold = 50. in
  let bad = ref 0 and total = ref 0 in
  for _ = 1 to 300 do
    let sv = Prim.Sparse_vector.create r ~eps ~threshold in
    let rec loop i =
      if i <= k && not (Prim.Sparse_vector.For_testing.halted sv) then begin
        (* Alternate low and borderline queries. *)
        let v = if i mod 2 = 0 then 20. else 40. in
        incr total;
        (match Prim.Sparse_vector.query sv v with
        | Prim.Sparse_vector.Above -> if v < threshold -. slack then incr bad
        | Prim.Sparse_vector.Below -> if v > threshold +. slack then incr bad);
        loop (i + 1)
      end
    in
    loop 1
  done;
  check_true
    (Printf.sprintf "accuracy violations %d/%d below beta rate" !bad !total)
    (float_of_int !bad /. float_of_int !total < beta)

let test_accuracy_bound_formula () =
  check_float ~tol:1e-9 "formula" (8. /. 0.5 *. log (2. *. 20. /. 0.1))
    (Prim.Sparse_vector.accuracy_bound ~eps:0.5 ~k:20 ~beta:0.1)

let test_threshold_noise_once () =
  (* Two mechanisms with the same rng stream differ only via their own
     draws; sanity: a mechanism with a huge threshold never fires. *)
  let r = rng () in
  let sv = Prim.Sparse_vector.create r ~eps:1.0 ~threshold:1e9 in
  for _ = 1 to 100 do
    if not (Prim.Sparse_vector.For_testing.halted sv) then
      check_true "never fires below astronomic threshold"
        (Prim.Sparse_vector.query sv 1000. = Prim.Sparse_vector.Below)
  done

let test_multi_firing () =
  let r = rng () in
  let sv = Prim.Sparse_vector.create_multi r ~eps:6.0 ~threshold:50. ~firings:3 in
  check_int "three firings available" 3 (Prim.Sparse_vector.For_testing.firings_left sv);
  let aboves = ref 0 in
  (* Alternate far-below and far-above queries; must collect exactly three
     Aboves then halt. *)
  (try
     for i = 1 to 100 do
       let v = if i mod 2 = 0 then 500. else -400. in
       if Prim.Sparse_vector.query sv v = Prim.Sparse_vector.Above then incr aboves
     done
   with Invalid_argument _ -> ());
  check_int "exactly three aboves" 3 !aboves;
  check_true "halted after the budget" (Prim.Sparse_vector.For_testing.halted sv);
  Alcotest.check_raises "rejects afterwards"
    (Invalid_argument "Sparse_vector.query: mechanism already halted") (fun () ->
      ignore (Prim.Sparse_vector.query sv 0.))

let test_multi_firing_validation () =
  let r = rng () in
  Alcotest.check_raises "firings >= 1"
    (Invalid_argument "Sparse_vector.create_multi: firings must be >= 1") (fun () ->
      ignore (Prim.Sparse_vector.create_multi r ~eps:1.0 ~threshold:0. ~firings:0))

let test_numeric_sparse () =
  let r = rng () in
  let sv = Prim.Sparse_vector.create_numeric r ~eps:4.0 ~threshold:100. in
  check_true "below yields None" (Prim.Sparse_vector.query_numeric sv 10. = None);
  (match Prim.Sparse_vector.query_numeric sv 500. with
  | Some v -> check_true (Printf.sprintf "released value near truth (%.1f)" v) (Float.abs (v -. 500.) < 50.)
  | None -> Alcotest.fail "clear signal must fire");
  check_true "halted after release" (Prim.Sparse_vector.For_testing.halted sv)

let test_numeric_mode_required () =
  let r = rng () in
  let sv = Prim.Sparse_vector.create r ~eps:1.0 ~threshold:0. in
  Alcotest.check_raises "plain mechanism rejects numeric query"
    (Invalid_argument "Sparse_vector.query_numeric: mechanism not built by create_numeric")
    (fun () -> ignore (Prim.Sparse_vector.query_numeric sv 1.))

let suite =
  [
    case "fires on clear signal" test_fires_on_clear_signal;
    case "numeric sparse" test_numeric_sparse;
    case "numeric mode required" test_numeric_mode_required;
    case "multi-firing budget" test_multi_firing;
    case "multi-firing validation" test_multi_firing_validation;
    case "rejects after halt" test_rejects_after_halt;
    case "accuracy theorem rate" test_accuracy_theorem;
    case "accuracy bound formula" test_accuracy_bound_formula;
    case "astronomic threshold never fires" test_threshold_noise_once;
  ]
