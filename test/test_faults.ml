(* The engine's failure model: fault-schedule parsing and determinism, pool
   retries, accountant reservations, and the headline
   robustness claims — a crash-before-output fault schedule changes neither
   the batch outputs nor the accountant's final spend, and a degraded job
   charges exactly what was reserved for it at admission. *)

open Testutil

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let p ~eps ~delta = { Prim.Dp.eps; delta }

(* --- Faults: schedules --------------------------------------------------- *)

let test_parse_roundtrip () =
  let t =
    match Engine.Faults.parse "crash@2, stall@5=0.25, crash@7x3" with
    | Ok t -> t
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let lookup index attempt = Engine.Faults.For_testing.lookup t ~index ~attempt in
  check_true "crash@2 on first attempt" (lookup 2 0 = Some Engine.Faults.Crash);
  check_true "crash@2 not on retry" (lookup 2 1 = None);
  check_true "stall parsed with duration" (lookup 5 0 = Some (Engine.Faults.Stall 0.25));
  check_true "crash@7x3 covers attempts 0-2"
    (lookup 7 0 = Some Engine.Faults.Crash
    && lookup 7 2 = Some Engine.Faults.Crash
    && lookup 7 3 = None);
  check_true "unlisted index fault-free" (lookup 0 0 = None);
  (* to_string must parse back to the same schedule. *)
  (match Engine.Faults.parse (Engine.Faults.to_string t) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok t' ->
      List.iter
        (fun (i, a) ->
          check_true
            (Printf.sprintf "roundtrip lookup (%d, %d)" i a)
            (Engine.Faults.For_testing.lookup t ~index:i ~attempt:a
            = Engine.Faults.For_testing.lookup t' ~index:i ~attempt:a))
        [ (2, 0); (2, 1); (5, 0); (7, 0); (7, 2); (7, 3); (0, 0) ]);
  check_true "empty parses to none"
    (match Engine.Faults.parse "" with Ok t -> Engine.Faults.is_none t | Error _ -> false);
  check_true "'none' parses to none"
    (match Engine.Faults.parse "none" with Ok t -> Engine.Faults.is_none t | Error _ -> false)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Engine.Faults.parse s with
      | Ok _ -> Alcotest.failf "accepted bad schedule %S" s
      | Error e -> check_true (Printf.sprintf "error for %S non-empty" s) (String.length e > 0))
    [
      "bogus@1";
      "stall@2";  (* missing duration *)
      "crash@-1";
      "crash@2x0";
      "crash";
      "seed=1";  (* missing rate *)
      "seed=1,rate=2";
      "kill@3";  (* worker kills are not a fault kind *)
      "seed=1,rate=0.5,kinds=crash";  (* seeded schedules inject crashes only *)
      "seed=1,rate=0.5,attempts=0";
    ]

let test_seeded_deterministic () =
  let mk () = Engine.Faults.For_testing.seeded ~seed:42 ~rate:0.4 () in
  let a = mk () and b = mk () in
  for i = 0 to 80 do
    check_true
      (Printf.sprintf "seeded lookup %d stable" i)
      (Engine.Faults.For_testing.lookup a ~index:i ~attempt:0 = Engine.Faults.For_testing.lookup b ~index:i ~attempt:0)
  done;
  let fired = ref 0 in
  for i = 0 to 80 do
    if Engine.Faults.For_testing.lookup a ~index:i ~attempt:0 <> None then incr fired
  done;
  check_true "rate=0.4 fires sometimes, not always" (!fired > 0 && !fired < 81);
  check_true "rate=0 is none" (Engine.Faults.is_none (Engine.Faults.For_testing.seeded ~seed:1 ~rate:0. ()));
  let all = Engine.Faults.For_testing.seeded ~seed:1 ~rate:1. () in
  for i = 0 to 20 do
    check_true "rate=1 fires everywhere" (Engine.Faults.For_testing.lookup all ~index:i ~attempt:0 <> None)
  done;
  (* Seeded roundtrip through the grammar. *)
  match Engine.Faults.parse (Engine.Faults.to_string a) with
  | Error e -> Alcotest.failf "seeded roundtrip failed: %s" e
  | Ok a' ->
      for i = 0 to 80 do
        check_true "seeded roundtrip lookups agree"
          (Engine.Faults.For_testing.lookup a ~index:i ~attempt:0 = Engine.Faults.For_testing.lookup a' ~index:i ~attempt:0)
      done

let test_env_roundtrip () =
  let saved = Sys.getenv_opt Engine.Faults.For_testing.env_var in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Engine.Faults.For_testing.env_var (Option.value ~default:"" saved))
    (fun () ->
      Unix.putenv Engine.Faults.For_testing.env_var "crash@1";
      let t = Engine.Faults.of_env () in
      check_true "env schedule parsed"
        (Engine.Faults.For_testing.lookup t ~index:1 ~attempt:0 = Some Engine.Faults.Crash);
      Unix.putenv Engine.Faults.For_testing.env_var "bogus";
      (match Engine.Faults.of_env () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "malformed env schedule must not run silently fault-free");
      Unix.putenv Engine.Faults.For_testing.env_var "";
      check_true "empty env is none" (Engine.Faults.is_none (Engine.Faults.of_env ())))

(* --- Pool: retries -------------------------------------------------------- *)

(* Each pool test runs at 1, 2 and 4 domains, so a retry lands on the
   caller's own loop and on a helper's. *)
let pool_domains = [ 1; 2; 4 ]

let test_pool_retry_recovers () =
  List.iter
    (fun domains ->
      let tasks = Array.init 5 (fun i -> Engine.Pool.task i) in
      let retries_seen = Atomic.make 0 in
      let outcomes =
        Engine.Pool.run ~retries:2 ~domains
          ~on_retry:(fun ~index:_ ~attempt:_ -> Atomic.incr retries_seen)
          ~f:(fun ~index:_ ~attempt i -> if i = 3 && attempt < 2 then failwith "flaky" else i * 10)
          tasks
      in
      Array.iteri
        (fun i o ->
          match o with
          | Engine.Pool.Done v -> check_int (Printf.sprintf "slot %d at %d domains" i domains) (i * 10) v
          | _ -> Alcotest.failf "slot %d did not recover at %d domains" i domains)
        outcomes;
      check_int (Printf.sprintf "two retry events at %d domains" domains) 2
        (Atomic.get retries_seen))
    pool_domains

let test_pool_retry_exhaustion () =
  List.iter
    (fun domains ->
      let tasks = Array.init 3 (fun i -> Engine.Pool.task i) in
      let outcomes =
        Engine.Pool.run ~retries:2 ~domains
          ~f:(fun ~index:_ ~attempt:_ i -> if i = 1 then failwith "always" else i)
          tasks
      in
      (match outcomes.(1) with
      | Engine.Pool.Failed msg -> check_true "last exception reported" (contains_sub msg "always")
      | _ -> Alcotest.failf "exhausted retries must fail at %d domains" domains);
      check_true "neighbours unaffected"
        (outcomes.(0) = Engine.Pool.Done 0 && outcomes.(2) = Engine.Pool.Done 2))
    pool_domains

(* --- Accountant: reservations -------------------------------------------- *)

let test_reservation_protocol () =
  let acc = Engine.Accountant.create ~budget:(p ~eps:1.0 ~delta:1e-6) () in
  check_true "base charge" (Result.is_ok (Engine.Accountant.charge acc (p ~eps:0.4 ~delta:1e-7)));
  let resv =
    match Engine.Accountant.reserve acc ~label:"fb" (p ~eps:0.5 ~delta:1e-7) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "reservation refused with headroom available"
  in
  (* The reservation blocks headroom but is not spent. *)
  check_true "reservation blocks admission" (not (Engine.Accountant.For_testing.would_accept acc (p ~eps:0.2 ~delta:0.)));
  check_true "over-reserved charge refused"
    (Result.is_error (Engine.Accountant.charge acc (p ~eps:0.2 ~delta:0.)));
  check_float ~tol:1e-12 "spent excludes reservation" 0.4 (Engine.Accountant.spent acc).Prim.Dp.eps;
  check_int "one outstanding reservation" 1 (List.length (Engine.Accountant.For_testing.reserved acc));
  (* Release frees the headroom. *)
  Engine.Accountant.release acc resv;
  check_int "released" 0 (List.length (Engine.Accountant.For_testing.reserved acc));
  check_true "headroom back" (Result.is_ok (Engine.Accountant.charge acc (p ~eps:0.5 ~delta:1e-7)));
  (* Commit turns a reservation into a real charge. *)
  let resv2 =
    match Engine.Accountant.reserve acc ~label:"fb2" (p ~eps:0.1 ~delta:0.) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "second reservation refused"
  in
  Engine.Accountant.commit acc resv2;
  check_float ~tol:1e-12 "committed reservation is spent" 1.0 (Engine.Accountant.spent acc).Prim.Dp.eps;
  check_true "committed label in entries"
    (List.mem_assoc "fb2" (Engine.Accountant.entries acc));
  (* A negative or NaN cost would lower the ledger: a bug in the caller. *)
  (match Engine.Accountant.charge acc (p ~eps:(-2.) ~delta:0.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative charge accepted");
  (match Engine.Accountant.reserve acc (p ~eps:0.1 ~delta:Float.nan) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN reservation accepted");
  (* Double settlement is a bug in the caller. *)
  match Engine.Accountant.commit acc resv2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double settle accepted"

(* --- Service: retries, replay, degradation ------------------------------- *)

let oc ?(id = "a") ?(t_fraction = 0.45) ?(eps = 2.0) ?deadline ?(fallback = false) () =
  {
    Engine.Job.id;
    kind = Engine.Job.One_cluster { t_fraction };
    eps;
    delta = 1e-6;
    beta = 0.1;
    deadline_s = deadline;
    fallback;
  }

let qt ?(id = "q") ?(eps = 0.3) () =
  {
    Engine.Job.id;
    kind = Engine.Job.Quantile { axis = 0; q = 0.5 };
    eps;
    delta = 0.;
    beta = 0.1;
    deadline_s = None;
    fallback = false;
  }

let canonical results =
  List.map
    (fun (r : Engine.Job.result) ->
      (r.Engine.Job.spec.Engine.Job.id, Engine.Job.status_name r.Engine.Job.status, Engine.Job.detail r))
    results

let mk_service ?(domains = 2) ?(retries = 2) ?(faults = Engine.Faults.none) ?(seed = 11) () =
  Engine.Service.create ~domains ~seed ~retries ~faults ()

(* The acceptance diff: a crash schedule on a mixed batch, at 1 and at 4
   domains, must reproduce the fault-free outputs bit-for-bit and leave the
   accountant at the identical final spend. *)
let test_faulted_batch_bit_identical () =
  let _, grid, w = small_workload ~n:1500 ~axis:256 ~radius:0.05 () in
  let specs = [ oc ~id:"a" (); qt ~id:"q" (); oc ~id:"b" ~t_fraction:0.4 () ] in
  let run ~domains ~retries ~faults =
    let service = mk_service ~domains ~retries ~faults () in
    let ds =
      Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
        w.Workload.Synth.points
    in
    let results = Engine.Service.run_batch service ~dataset:ds specs in
    (service, ds, results)
  in
  let _, ds0, reference = run ~domains:1 ~retries:0 ~faults:Engine.Faults.none in
  check_true "reference batch all ok"
    (List.for_all
       (fun (r : Engine.Job.result) -> Engine.Job.status_name r.Engine.Job.status = "ok")
       reference);
  let spent0 = Engine.Accountant.spent (Engine.Registry.accountant ds0) in
  let faults =
    match Engine.Faults.parse "crash@0,crash@2" with Ok f -> f | Error e -> Alcotest.fail e
  in
  List.iter
    (fun domains ->
      let service, ds, results = run ~domains ~retries:3 ~faults in
      Alcotest.(check (list (triple string string string)))
        (Printf.sprintf "faulted run identical at %d domains" domains)
        (canonical reference) (canonical results);
      let spent = Engine.Accountant.spent (Engine.Registry.accountant ds) in
      check_float ~tol:0. "spend eps identical under faults" spent0.Prim.Dp.eps spent.Prim.Dp.eps;
      check_float ~tol:0. "spend delta identical under faults" spent0.Prim.Dp.delta
        spent.Prim.Dp.delta;
      check_true "retry counted"
        (Engine.Telemetry.counter (Engine.Service.telemetry service) "retries" >= 1);
      (* Replayed attempts are visible in the results. *)
      check_true "job 0 took two attempts"
        ((List.nth results 0).Engine.Job.attempts = 2))
    [ 1; 4 ]

let test_degraded_charges_exact_reservation () =
  let _, grid, w = small_workload ~n:1500 ~axis:256 ~radius:0.05 () in
  let service = mk_service ~domains:2 () in
  let ds =
    Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:20. ~delta:1e-4)
      w.Workload.Synth.points
  in
  let specs =
    [
      oc ~id:"ok_fb" ~fallback:true ();  (* completes: reservation released *)
      oc ~id:"late_fb" ~eps:1.0 ~deadline:0. ~fallback:true ();  (* degrades *)
    ]
  in
  let results = Engine.Service.run_batch service ~dataset:ds specs in
  let statuses =
    List.map (fun (r : Engine.Job.result) -> Engine.Job.status_name r.Engine.Job.status) results
  in
  Alcotest.(check (list string)) "ok then degraded" [ "ok"; "degraded" ] statuses;
  (match (List.nth results 1).Engine.Job.status with
  | Engine.Job.Degraded { output = Engine.Job.Radius { radius; t; _ }; reason } ->
      check_true "fallback radius positive" (radius > 0.);
      check_int "fallback target" 675 t;
      check_true "reason names the deadline" (contains_sub reason "deadline")
  | _ -> Alcotest.fail "expected a Radius-output degradation");
  let acc = Engine.Registry.accountant ds in
  (* Main charges 2.0 + 1.0; committed fallback exactly the reserved half of
     late_fb's (1.0, 1e-6); ok_fb's reservation fully released. *)
  check_float ~tol:1e-12 "spend = charges + committed reservation" 3.5
    (Engine.Accountant.spent acc).Prim.Dp.eps;
  check_float ~tol:1e-18 "delta likewise" 2.5e-6 (Engine.Accountant.spent acc).Prim.Dp.delta;
  check_int "no outstanding reservations" 0 (List.length (Engine.Accountant.For_testing.reserved acc));
  check_true "committed fallback labelled"
    (List.mem_assoc "late_fb:fallback" (Engine.Accountant.entries acc));
  check_true "released fallback not spent"
    (not (List.mem_assoc "ok_fb:fallback" (Engine.Accountant.entries acc)));
  check_int "degraded counter" 1 (Engine.Telemetry.counter (Engine.Service.telemetry service) "degraded");
  check_int "degraded in status counts" 1
    (Engine.Telemetry.For_testing.count (Engine.Service.telemetry service) ~status:"degraded" ())

let test_no_headroom_disables_fallback () =
  let _, grid, w = small_workload () in
  let service = mk_service ~domains:1 () in
  let ds =
    Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:1.0 ~delta:1e-5)
      w.Workload.Synth.points
  in
  (* 0.9 admitted; its 0.45 fallback reservation does not fit — the job must
     still run (here: time out), without degrading. *)
  let results =
    Engine.Service.run_batch service ~dataset:ds
      [ oc ~id:"tight" ~eps:0.9 ~deadline:0. ~fallback:true () ]
  in
  (match (List.nth results 0).Engine.Job.status with
  | Engine.Job.Timed_out _ -> ()
  | s -> Alcotest.failf "expected plain timeout, got %s" (Engine.Job.status_name s));
  let acc = Engine.Registry.accountant ds in
  check_float ~tol:1e-12 "only the main charge spent" 0.9 (Engine.Accountant.spent acc).Prim.Dp.eps;
  check_int "no outstanding reservations" 0 (List.length (Engine.Accountant.For_testing.reserved acc))

let test_attempt_limit_keeps_charge () =
  let _, grid, w = small_workload () in
  let faults =
    match Engine.Faults.parse "crash@0x5" with Ok f -> f | Error e -> Alcotest.fail e
  in
  let service = mk_service ~domains:1 ~retries:1 ~faults () in
  let ds =
    Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:1.0 ~delta:1e-5)
      w.Workload.Synth.points
  in
  let results = Engine.Service.run_batch service ~dataset:ds [ qt ~id:"doomed" () ] in
  (match (List.nth results 0).Engine.Job.status with
  | Engine.Job.Solver_failed msg -> check_true "injected crash named" (contains_sub msg "injected crash")
  | s -> Alcotest.failf "expected failed, got %s" (Engine.Job.status_name s));
  check_int "attempt limit consumed" 2 (List.nth results 0).Engine.Job.attempts;
  (* The admission charge is never refunded — noise may have been drawn. *)
  check_float ~tol:1e-12 "failed job keeps its charge" 0.3
    (Engine.Accountant.spent (Engine.Registry.accountant ds)).Prim.Dp.eps

(* Spend invariance under arbitrary schedules, and full result invariance
   under survivable ones: admission precedes execution, failed jobs keep
   their charge, retries replay their stream — so no seeded crash
   schedule (attempts=1 ≤ retries) can move either the outputs or the final
   ledger. *)
let test_qcheck_spend_invariant =
  let _, grid, w = small_workload () in
  let specs = List.init 4 (fun i -> qt ~id:(Printf.sprintf "q%d" i) ~eps:0.3 ()) in
  let run ~faults =
    let service = mk_service ~domains:2 ~retries:2 ~faults () in
    let ds =
      Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:1.0 ~delta:1e-5)
        w.Workload.Synth.points
    in
    let results = Engine.Service.run_batch service ~dataset:ds specs in
    (canonical results, Engine.Accountant.spent (Engine.Registry.accountant ds))
  in
  let reference = lazy (run ~faults:Engine.Faults.none) in
  qcheck ~count:15 "accountant spend and outputs independent of fault schedule"
    QCheck2.Gen.(pair (int_range 0 999) (int_range 0 100))
    (fun (seed, rate100) ->
      let ref_canon, ref_spent = Lazy.force reference in
      let faults = Engine.Faults.For_testing.seeded ~seed ~rate:(float_of_int rate100 /. 100.) () in
      let canon, spent = run ~faults in
      canon = ref_canon
      && spent.Prim.Dp.eps = ref_spent.Prim.Dp.eps
      && spent.Prim.Dp.delta = ref_spent.Prim.Dp.delta)

(* Reservation-protocol model check: under an arbitrary interleaving of
   reserve / commit / release / charge operations, the accountant must
   never double-charge (its spend matches a simple replay model that adds
   each price exactly once, on commit or charge), and once every
   outstanding reservation is settled the reserved list is empty again.
   The budget is set far above anything the interleaving can spend, so
   every operation is accepted and the model stays exact. *)
let test_qcheck_reservation_interleavings =
  qcheck ~count:200 "reserve/commit/release interleavings settle cleanly"
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 5))
    (fun ops ->
      let acc = Engine.Accountant.create ~budget:(p ~eps:1e6 ~delta:0.5) () in
      let live = ref [] in
      let model_eps = ref 0. and model_delta = ref 0. in
      let spend (pr : Prim.Dp.params) =
        model_eps := !model_eps +. pr.Prim.Dp.eps;
        model_delta := !model_delta +. pr.Prim.Dp.delta
      in
      let price i =
        p
          ~eps:(0.01 *. float_of_int (1 + (i mod 7)))
          ~delta:(1e-9 *. float_of_int (i mod 3))
      in
      List.iteri
        (fun i op ->
          match op with
          | 0 | 1 -> (
              (* Reserve (twice as likely as the other ops, to keep a pool
                 of outstanding reservations alive). *)
              match
                Engine.Accountant.reserve acc ~label:(Printf.sprintf "r%d" i) (price i)
              with
              | Ok r -> live := (r, price i) :: !live
              | Error _ -> ())
          | 2 -> (
              (* Commit the newest outstanding reservation. *)
              match !live with
              | (r, pr) :: tl ->
                  Engine.Accountant.commit acc r;
                  live := tl;
                  spend pr
              | [] -> ())
          | 3 -> (
              (* Release the newest outstanding reservation. *)
              match !live with
              | (r, _) :: tl ->
                  Engine.Accountant.release acc r;
                  live := tl
              | [] -> ())
          | 4 -> (
              (* Commit the oldest outstanding reservation. *)
              match List.rev !live with
              | (r, pr) :: _ ->
                  Engine.Accountant.commit acc r;
                  live := List.filter (fun (x, _) -> x != r) !live;
                  spend pr
              | [] -> ())
          | _ -> (
              match
                Engine.Accountant.charge acc ~label:(Printf.sprintf "c%d" i) (price i)
              with
              | Ok () -> spend (price i)
              | Error _ -> ()))
        ops;
      (* Settle every outstanding reservation, then nothing may linger and
         the ledger must equal the replay model. *)
      List.iter (fun (r, _) -> Engine.Accountant.release acc r) !live;
      let spent = Engine.Accountant.spent acc in
      Engine.Accountant.For_testing.reserved acc = []
      && Float.abs (spent.Prim.Dp.eps -. !model_eps) < 1e-9
      && Float.abs (spent.Prim.Dp.delta -. !model_delta) < 1e-12)

let suite =
  [
    case "fault grammar parses and roundtrips" test_parse_roundtrip;
    case "fault grammar rejects malformed schedules" test_parse_errors;
    case "seeded schedules are pure in (seed, index)" test_seeded_deterministic;
    case "PRIVCLUSTER_FAULTS env roundtrip" test_env_roundtrip;
    case "pool retries a raising task in place" test_pool_retry_recovers;
    case "pool reports the last exception after exhausting retries" test_pool_retry_exhaustion;
    case "accountant reserve/commit/release protocol" test_reservation_protocol;
    slow_case "faulted batch bit-identical to fault-free (spend too)" test_faulted_batch_bit_identical;
    slow_case "degraded job charges exactly its reservation" test_degraded_charges_exact_reservation;
    case "missing fallback headroom disables degradation only" test_no_headroom_disables_fallback;
    case "exhausted attempts keep the admission charge" test_attempt_limit_keeps_charge;
    test_qcheck_spend_invariant;
    test_qcheck_reservation_interleavings;
  ]
