(* Epoch-versioned datasets and budget-aware result caching: append/retire
   differential equivalence against fresh registration, structural sharing
   across epochs, charge-free cache hits, post-mutation recomputation, and
   the standing-query budget schedule. *)

open Testutil

let p ~eps ~delta = { Prim.Dp.eps; delta }

(* --- registry epochs ----------------------------------------------------- *)

let test_epoch_versioning () =
  let _, grid, w = small_workload () in
  let base = Array.sub w.Workload.Synth.points 0 200 in
  let extra = Array.sub w.Workload.Synth.points 200 50 in
  let reg = Engine.Registry.create () in
  let ds =
    Engine.Registry.register reg ~name:"d" ~grid ~budget:(p ~eps:10. ~delta:1e-4) base
  in
  check_int "fresh dataset is epoch 0" 0 (Engine.Registry.epoch ds);
  (* Hold epoch 0's view across the mutations: structural sharing means it
     must stay valid and answer exactly as before. *)
  let idx0 = Engine.Registry.index ds in
  let counts0 = Geometry.Pointset.counts_within idx0 ~radius:0.1 in
  let e1 = Engine.Registry.append ds extra in
  check_int "append publishes epoch 1" 1 e1;
  check_int "append grows n" 250 (Engine.Registry.n ds);
  let e2 = Engine.Registry.retire ds ~from_:0 ~count:30 in
  check_int "retire publishes epoch 2" 2 e2;
  check_int "retire shrinks n" 220 (Engine.Registry.n ds);
  check_int "accessor agrees" 2 (Engine.Registry.epoch ds);
  check_true "old epoch still answers unchanged"
    (Geometry.Pointset.counts_within idx0 ~radius:0.1 = counts0);
  check_int "old epoch view keeps its size" 200
    (Geometry.Pointset.n (Geometry.Pointset.index_pointset idx0));
  (* Invalid mutations change nothing. *)
  (try
     ignore (Engine.Registry.retire ds ~from_:0 ~count:220);
     Alcotest.fail "emptying retire must be refused"
   with Invalid_argument _ -> ());
  (try
     ignore (Engine.Registry.append ds [||]);
     Alcotest.fail "empty append must be refused"
   with Invalid_argument _ -> ());
  check_int "failed mutations publish no epoch" 2 (Engine.Registry.epoch ds)

let test_mutation_invalidates_bounds_cache () =
  let _, grid, w = small_workload () in
  let reg = Engine.Registry.create () in
  let ds =
    Engine.Registry.register reg ~name:"d" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
      (Array.sub w.Workload.Synth.points 0 300)
  in
  ignore (Engine.Registry.r_opt_bounds ds ~t:100);
  ignore (Engine.Registry.r_opt_bounds ds ~t:100);
  check_true "warm lookup hits" (Engine.Registry.bounds_cache_stats ds = (2, 1));
  ignore (Engine.Registry.append ds (Array.sub w.Workload.Synth.points 300 50));
  let b = Engine.Registry.r_opt_bounds ds ~t:100 in
  let lookups, hits = Engine.Registry.bounds_cache_stats ds in
  check_int "post-mutation lookup counted" 3 lookups;
  check_int "post-mutation lookup is a miss" 1 hits;
  (* And the recomputed sandwich is the new epoch's, not a stale replay. *)
  let lo, hi = Workload.Metrics.r_opt_bounds_indexed (Engine.Registry.index ds) ~t:100 in
  check_float ~tol:0. "fresh r_lo" lo (fst b);
  check_float ~tol:0. "fresh r_hi" hi (snd b)

(* --- differential: any append/retire sequence ≡ fresh registration ------- *)

(* Interpret a list of small ints as a mutation program over a model
   point array, applying each op to the registry dataset and the model in
   lockstep.  Appends draw from a fixed pool so both sides see the same
   rows. *)
let apply_ops ~grid ~base ~pool ops =
  let reg = Engine.Registry.create () in
  let ds = Engine.Registry.register reg ~name:"d" ~grid ~budget:(p ~eps:10. ~delta:1e-4) base in
  let model = ref (Array.copy base) in
  let pos = ref 0 in
  let applied = ref 0 in
  List.iter
    (fun c ->
      let c = abs c in
      let n = Array.length !model in
      if c land 1 = 0 then begin
        let k = 1 + (c / 2 mod 7) in
        let chunk =
          Array.init k (fun j -> pool.((!pos + j) mod Array.length pool))
        in
        pos := !pos + k;
        ignore (Engine.Registry.append ds chunk);
        model := Array.append !model chunk;
        incr applied
      end
      else begin
        let from_ = c / 2 mod n in
        let count = min (1 + (c / 2 mod 5)) (min (n - from_) (n - 1)) in
        if count >= 1 then begin
          ignore (Engine.Registry.retire ds ~from_ ~count);
          model :=
            Array.append (Array.sub !model 0 from_)
              (Array.sub !model (from_ + count) (n - from_ - count));
          incr applied
        end
      end)
    ops;
  (ds, !model, !applied)

let same_answers what a b =
  let n = Geometry.Pointset.n (Geometry.Pointset.index_pointset a) in
  check_int (what ^ ": same size") n
    (Geometry.Pointset.n (Geometry.Pointset.index_pointset b));
  check_true
    (what ^ ": counts_within bit-identical")
    (Geometry.Pointset.counts_within a ~radius:0.1
    = Geometry.Pointset.counts_within b ~radius:0.1);
  check_float ~tol:0. (what ^ ": score_l bit-identical")
    (Geometry.Pointset.score_l a ~cap:20 ~radius:0.08)
    (Geometry.Pointset.score_l b ~cap:20 ~radius:0.08);
  let k = min 5 (n - 1) in
  if k >= 1 then
    List.iter
      (fun i ->
        if i < n then
          check_float ~tol:0.
            (Printf.sprintf "%s: kth_neighbor_distance(%d) bit-identical" what i)
            (Geometry.Pointset.kth_neighbor_distance a ~k i)
            (Geometry.Pointset.kth_neighbor_distance b ~k i))
      [ 0; n / 2; n - 1 ]

let test_epoch_differential =
  let _, grid, w = small_workload () in
  let base = Array.sub w.Workload.Synth.points 0 40 in
  let pool = Array.sub w.Workload.Synth.points 40 200 in
  qcheck ~count:30 "any append/retire sequence ≡ fresh registration"
    QCheck2.Gen.(list_size (int_bound 10) (int_bound 4096))
    (fun ops ->
      (* Incremental insert/remove (plus occasional rebuilds) against a
         from-scratch build. *)
      let ds, model, applied = apply_ops ~grid ~base ~pool ops in
      Alcotest.(check int) "each applied op bumps the epoch" applied (Engine.Registry.epoch ds);
      let fresh = Engine.Registry.create () in
      let fd =
        Engine.Registry.register fresh ~name:"f" ~grid ~budget:(p ~eps:10. ~delta:1e-4) model
      in
      same_answers "tree" (Engine.Registry.index ds) (Engine.Registry.index fd);
      true)

(* --- service: cache hits are free, mutations invalidate ------------------ *)

let cache_jobs = "one_cluster t_fraction=0.5 eps=2.0 delta=1e-6 id=q1\nquantile q=0.5 axis=0 eps=0.1 id=med\n"

let parse_jobs s =
  match Engine.Job.parse s with Ok l -> l | Error e -> Alcotest.failf "parse: %s" e

let outputs_of results =
  List.map
    (fun (r : Engine.Job.result) ->
      match r.Engine.Job.status with
      | Engine.Job.Completed o -> Engine.Job.output_to_wire o
      | st -> Alcotest.failf "job %s not ok: %s" r.Engine.Job.spec.Engine.Job.id
                (Engine.Job.status_name st))
    results

let test_cache_hit_charges_nothing () =
  let _, grid, w = small_workload () in
  let svc = Engine.Service.create ~domains:2 () in
  let ds =
    Engine.Service.register svc ~name:"c" ~grid ~budget:(p ~eps:20. ~delta:1e-3)
      w.Workload.Synth.points
  in
  let specs = parse_jobs cache_jobs in
  let cold = Engine.Service.run_batch ~seed:5 svc ~dataset:ds specs in
  let acct = Engine.Registry.accountant ds in
  let spent_cold = Engine.Accountant.spent acct in
  check_float ~tol:1e-12 "cold run charged both jobs" 2.1 spent_cold.Prim.Dp.eps;
  let warm = Engine.Service.run_batch ~seed:5 svc ~dataset:ds specs in
  List.iter
    (fun (r : Engine.Job.result) ->
      check_int
        (r.Engine.Job.spec.Engine.Job.id ^ ": cache hit executes nothing")
        0 r.Engine.Job.attempts)
    warm;
  check_true "recorded answers returned bit-identically"
    (outputs_of cold = outputs_of warm);
  let spent_warm = Engine.Accountant.spent acct in
  check_float ~tol:0. "warm run charged nothing (eps)" spent_cold.Prim.Dp.eps
    spent_warm.Prim.Dp.eps;
  check_float ~tol:0. "warm run charged nothing (delta)" spent_cold.Prim.Dp.delta
    spent_warm.Prim.Dp.delta;
  check_true "per-dataset stats saw 2 misses then 2 hits"
    (Engine.Result_cache.stats (Engine.Service.result_cache svc) ~dataset:"c" = (2, 2));
  (* A different seed is different randomness: it must miss and pay. *)
  ignore (Engine.Service.run_batch ~seed:6 svc ~dataset:ds specs);
  let spent_reseeded = Engine.Accountant.spent acct in
  check_float ~tol:1e-12 "new seed recomputes and charges"
    (2. *. spent_cold.Prim.Dp.eps) spent_reseeded.Prim.Dp.eps

let test_mutation_forces_recompute () =
  let _, grid, w = small_workload () in
  let svc = Engine.Service.create ~domains:2 () in
  let ds =
    Engine.Service.register svc ~name:"m" ~grid ~budget:(p ~eps:20. ~delta:1e-3)
      w.Workload.Synth.points
  in
  let specs = parse_jobs cache_jobs in
  ignore (Engine.Service.run_batch ~seed:5 svc ~dataset:ds specs);
  let acct = Engine.Registry.accountant ds in
  let spent1 = Engine.Accountant.spent acct in
  (* A mutate line in the same batch: the queries after it are keyed on —
     and computed against — the new epoch, so they recompute and pay. *)
  let batch2 = parse_jobs ("mutate op=append n=60 seed=11\n" ^ cache_jobs) in
  let results = Engine.Service.run_batch ~seed:5 svc ~dataset:ds batch2 in
  (match results with
  | m :: rest ->
      (match m.Engine.Job.status with
      | Engine.Job.Completed (Engine.Job.Epoch_advanced { epoch; n }) ->
          check_int "mutate advanced to epoch 1" 1 epoch;
          check_int "mutate reports the new size" 460 n
      | st -> Alcotest.failf "mutate: %s" (Engine.Job.status_name st));
      List.iter
        (fun (r : Engine.Job.result) ->
          check_true
            (r.Engine.Job.spec.Engine.Job.id ^ ": recomputed on the new epoch")
            (r.Engine.Job.attempts >= 1))
        rest
  | [] -> Alcotest.fail "no results");
  let spent2 = Engine.Accountant.spent acct in
  check_float ~tol:1e-12 "post-mutation queries paid again"
    (2. *. spent1.Prim.Dp.eps) spent2.Prim.Dp.eps;
  check_int "epoch is free: only the 2.1 recharged" 1 (Engine.Registry.epoch ds)

(* --- standing queries: the declared schedule is the ledger schedule ------ *)

let test_standing_budget_schedule () =
  let _, grid, w = small_workload () in
  let svc = Engine.Service.create ~domains:2 () in
  let ds =
    Engine.Service.register svc ~name:"s" ~grid ~budget:(p ~eps:20. ~delta:1e-3)
      w.Workload.Synth.points
  in
  let acct = Engine.Registry.accountant ds in
  let journaled = ref [] in
  Engine.Service.subscribe_standing svc (fun ~dataset ~line ~seed ~stream ->
      journaled := (dataset, line, seed, stream) :: !journaled);
  let reg =
    Engine.Service.run_batch ~seed:5 svc ~dataset:ds
      (parse_jobs "standing t_fraction=0.5 periods=3 eps=1.5 delta=3e-7 id=sq\n")
  in
  (* Registration acknowledges, then answers tick 1 on the current epoch. *)
  (match List.map (fun (r : Engine.Job.result) -> r.Engine.Job.spec.Engine.Job.id) reg with
  | [ "sq"; "sq#1" ] -> ()
  | ids -> Alcotest.failf "registration results: %s" (String.concat "," ids));
  (match (List.hd reg).Engine.Job.status with
  | Engine.Job.Completed (Engine.Job.Standing_accepted { periods }) ->
      check_int "accepted with the declared periods" 3 periods
  | st -> Alcotest.failf "standing: %s" (Engine.Job.status_name st));
  let spent = Engine.Accountant.spent acct in
  check_float ~tol:1e-12 "tick 1 committed one slice" 0.5 spent.Prim.Dp.eps;
  check_int "two slices still reserved" 2 (List.length (Engine.Accountant.outstanding acct));
  check_true "registration journaled for the WAL"
    (match !journaled with
    | [ ("s", line, 5, 0) ] -> (
        match Engine.Job.parse line with
        | Ok [ { Engine.Job.kind = Engine.Job.Standing { periods = 3; _ }; id = "sq"; _ } ] ->
            true
        | _ -> false)
    | _ -> false);
  check_true "query listed"
    (Engine.Service.standing_queries svc = [ ("s", "sq", 1, 3) ]);
  (* Each epoch transition answers one more tick, committing its slice —
     until the schedule is exhausted, after which mutations tick nothing. *)
  let mutate k =
    Engine.Service.run_batch ~seed:(100 + k) svc ~dataset:ds
      (parse_jobs (Printf.sprintf "mutate op=append n=20 seed=%d\n" (50 + k)))
  in
  let r2 = mutate 2 in
  check_int "tick 2 rode along with the mutation" 2 (List.length r2);
  check_true "tick 2 carries its slice id"
    (List.exists
       (fun (r : Engine.Job.result) -> r.Engine.Job.spec.Engine.Job.id = "sq#2")
       r2);
  check_float ~tol:1e-12 "tick 2 committed the second slice" 1.0
    (Engine.Accountant.spent acct).Prim.Dp.eps;
  let _r3 = mutate 3 in
  check_float ~tol:1e-12 "tick 3 committed the last slice" 1.5
    (Engine.Accountant.spent acct).Prim.Dp.eps;
  check_int "no reservations left" 0 (List.length (Engine.Accountant.outstanding acct));
  check_true "all ticks answered"
    (Engine.Service.standing_queries svc = [ ("s", "sq", 3, 3) ]);
  let r4 = mutate 4 in
  check_int "exhausted schedule ticks nothing" 1 (List.length r4);
  check_float ~tol:0. "and charges nothing" 1.5 (Engine.Accountant.spent acct).Prim.Dp.eps

let suite =
  [
    case "epoch versioning and structural sharing" test_epoch_versioning;
    case "mutation invalidates the bounds cache" test_mutation_invalidates_bounds_cache;
    test_epoch_differential;
    slow_case "cache hit charges nothing" test_cache_hit_charges_nothing;
    slow_case "mutation forces recompute and recharge" test_mutation_forces_recompute;
    slow_case "standing budget schedule" test_standing_budget_schedule;
  ]
