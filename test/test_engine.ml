(* The concurrent query engine: accountant arithmetic and refusals against
   the Prim composition modules, registry caching, pool determinism across
   domain counts, and deadline handling. *)

open Testutil

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Rng.derive --------------------------------------------------------- *)

let test_derive_state_independent () =
  let a = Prim.Rng.create ~seed:7 () in
  let b = Prim.Rng.create ~seed:7 () in
  (* Consume from [b] only: derived streams must not care. *)
  for _ = 1 to 100 do
    ignore (Prim.Rng.float b 1.0)
  done;
  List.iter
    (fun s ->
      let xa = Prim.Rng.float (Prim.Rng.derive a ~stream:s) 1.0 in
      let xb = Prim.Rng.float (Prim.Rng.derive b ~stream:s) 1.0 in
      check_float (Printf.sprintf "stream %d independent of parent state" s) xa xb)
    [ 0; 1; 17; 4096 ];
  (* Distinct streams differ, same stream repeats. *)
  let x0 = Prim.Rng.float (Prim.Rng.derive a ~stream:0) 1.0 in
  let x0' = Prim.Rng.float (Prim.Rng.derive a ~stream:0) 1.0 in
  let x1 = Prim.Rng.float (Prim.Rng.derive a ~stream:1) 1.0 in
  check_float "same stream repeats" x0 x0';
  check_true "distinct streams differ" (x0 <> x1)

(* --- Accountant --------------------------------------------------------- *)

let p ~eps ~delta = { Prim.Dp.eps; delta }

let test_accountant_basic_arithmetic () =
  let acc = Engine.Accountant.create ~budget:(p ~eps:1.0 ~delta:1e-6) () in
  check_true "charge 1" (Result.is_ok (Engine.Accountant.charge acc (p ~eps:0.5 ~delta:1e-7)));
  check_true "charge 2" (Result.is_ok (Engine.Accountant.charge acc (p ~eps:0.25 ~delta:2e-7)));
  let expected =
    Prim.Composition.basic_list [ p ~eps:0.5 ~delta:1e-7; p ~eps:0.25 ~delta:2e-7 ]
  in
  let spent = Engine.Accountant.spent acc in
  check_float ~tol:1e-12 "spent eps = basic_list" expected.Prim.Dp.eps spent.Prim.Dp.eps;
  check_float ~tol:1e-18 "spent delta = basic_list" expected.Prim.Dp.delta spent.Prim.Dp.delta

let test_accountant_refusal_leaves_ledger_unchanged () =
  let acc = Engine.Accountant.create ~budget:(p ~eps:1.0 ~delta:1e-6) () in
  check_true "within budget" (Result.is_ok (Engine.Accountant.charge acc (p ~eps:0.9 ~delta:1e-7)));
  (match Engine.Accountant.charge acc (p ~eps:0.2 ~delta:1e-7) with
  | Ok () -> Alcotest.fail "over-budget charge accepted"
  | Error r ->
      check_float ~tol:1e-12 "refusal reports the composed total" 1.1
        r.Engine.Accountant.would_spend.Prim.Dp.eps);
  let spent = Engine.Accountant.spent acc in
  check_float ~tol:1e-12 "spent unchanged after refusal" 0.9 spent.Prim.Dp.eps;
  check_int "one refusal recorded" 1 (Engine.Accountant.refusals acc);
  check_int "one accepted entry" 1 (List.length (Engine.Accountant.entries acc));
  (* An exact fit must still be accepted (tolerance guards float dust). *)
  check_true "exact fill accepted"
    (Result.is_ok (Engine.Accountant.charge acc (p ~eps:0.1 ~delta:1e-7)))

(* The admission slack is relative to the budget: a δ budget far below
   1e-9 refuses a charge 100× over it (an absolute 1e-9 slack admitted ten
   such charges, spending 1000× the budget), while 3 × (1/3) still fills
   an ε budget of 1. *)
let test_accountant_relative_slack () =
  let acc = Engine.Accountant.create ~budget:(p ~eps:1.0 ~delta:1e-12) () in
  check_true "δ 100× over a tiny budget is refused"
    (Result.is_error (Engine.Accountant.charge acc (p ~eps:0.01 ~delta:1e-10)));
  let spent = Engine.Accountant.spent acc in
  check_float ~tol:0. "nothing spent (ε)" 0. spent.Prim.Dp.eps;
  check_float ~tol:0. "nothing spent (δ)" 0. spent.Prim.Dp.delta;
  for i = 1 to 3 do
    check_true (Printf.sprintf "third %d of ε admitted" i)
      (Result.is_ok (Engine.Accountant.charge acc (p ~eps:(1. /. 3.) ~delta:0.)))
  done;
  check_true "the filled budget refuses more"
    (Result.is_error (Engine.Accountant.charge acc (p ~eps:1e-6 ~delta:0.)))

let test_accountant_advanced_matches_composition () =
  let charge = p ~eps:0.01 ~delta:1e-8 in
  let slack = 1e-7 in
  let k = 100 in
  let adv = Prim.Composition.advanced charge ~k ~delta':slack in
  let basic = Prim.Composition.basic charge ~k in
  let budget = p ~eps:(Prim.Dp.eps basic +. 1.) ~delta:1e-4 in
  let acc = Engine.Accountant.create ~mode:(Engine.Accountant.Advanced { slack }) ~budget () in
  for i = 1 to k do
    check_true (Printf.sprintf "charge %d accepted" i)
      (Result.is_ok (Engine.Accountant.charge acc charge))
  done;
  let spent = Engine.Accountant.spent acc in
  let expected_eps = Float.min adv.Prim.Dp.eps basic.Prim.Dp.eps in
  check_float ~tol:1e-12 "advanced-mode spent eps" expected_eps spent.Prim.Dp.eps;
  (* At k=30, eps=0.1 the advanced bound is the better one — make sure the
     ledger actually switched to it rather than summing. *)
  check_true "advanced bound engaged" (spent.Prim.Dp.eps < Prim.Dp.eps basic -. 1e-9)

let test_accountant_zcdp_matches_ledger_arithmetic () =
  let slack = 1e-7 in
  let acc =
    Engine.Accountant.create ~mode:(Engine.Accountant.Zcdp { slack })
      ~budget:(p ~eps:4.0 ~delta:1e-4) ()
  in
  let charges = [ p ~eps:0.3 ~delta:1e-8; p ~eps:0.5 ~delta:0.; p ~eps:0.2 ~delta:2e-8 ] in
  List.iter (fun c -> check_true "zcdp charge" (Result.is_ok (Engine.Accountant.charge acc c))) charges;
  let rho =
    Prim.Zcdp.compose (List.map (fun c -> Prim.Zcdp.of_pure_dp ~eps:c.Prim.Dp.eps) charges)
  in
  let conv = Prim.Zcdp.to_dp rho ~delta:slack in
  let spent = Engine.Accountant.spent acc in
  check_float ~tol:1e-12 "zcdp spent eps" conv.Prim.Dp.eps spent.Prim.Dp.eps;
  check_float ~tol:1e-18 "zcdp spent delta = conversion slack + sum of deltas"
    (conv.Prim.Dp.delta +. 3e-8) spent.Prim.Dp.delta

(* --- Registry ----------------------------------------------------------- *)

let test_registry_caches_bounds () =
  let _, grid, w = small_workload () in
  let reg = Engine.Registry.create () in
  let ds =
    Engine.Registry.register reg ~name:"d1" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
      w.Workload.Synth.points
  in
  let b1 = Engine.Registry.r_opt_bounds ds ~t:100 in
  (* The sandwich must agree with a fresh computation. *)
  let idx = Engine.Registry.index ds in
  let lo, hi = Workload.Metrics.r_opt_bounds_indexed idx ~t:100 in
  check_float "r_lo" lo (fst b1);
  check_float "r_hi" hi (snd b1);
  (match Engine.Registry.register reg ~name:"d1" ~grid ~budget:(p ~eps:1. ~delta:1e-6) w.Workload.Synth.points with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate registration accepted")

(* The r_opt scan runs on the registry's k-d tree: at n = 4200, after
   GoodRadius-style sweeps of its index, the sandwich must equal the one
   from a freshly built tree over the same points, bit for bit. *)
let test_registry_bounds_on_tree () =
  let _, grid, w = small_workload ~n:4200 () in
  let reg = Engine.Registry.create () in
  let ds =
    Engine.Registry.register reg ~name:"big" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
      w.Workload.Synth.points
  in
  let fresh = Geometry.Pointset.build_index (Engine.Registry.pointset ds) in
  let idx = Engine.Registry.index ds in
  let radii =
    Array.init (Geometry.Grid.geometric_candidates grid) (Geometry.Grid.geometric_radius_of_index grid)
  in
  List.iter
    (fun t ->
      ignore (Geometry.Pointset.score_l_many idx ~cap:t ~radii);
      let lo, hi = Engine.Registry.r_opt_bounds ds ~t in
      let lo', hi' = Workload.Metrics.r_opt_bounds_indexed fresh ~t in
      check_float ~tol:0. (Printf.sprintf "r_lo t=%d" t) lo' lo;
      check_float ~tol:0. (Printf.sprintf "r_hi t=%d" t) hi' hi)
    [ 1260; 1680; 2100 ]

(* Every epoch gets a fresh index, so the count-matrix memo can never
   outlive the rows it was filled from: after an append and a retire,
   [score_l_many] on the registry's index must equal a fresh index over
   the new pointset.  The superseded epoch's index keeps answering for
   its own rows. *)
let test_registry_memo_per_epoch () =
  let _, grid, w = small_workload () in
  let radii =
    Array.init (Geometry.Grid.geometric_candidates grid) (Geometry.Grid.geometric_radius_of_index grid)
  in
  let sweep idx cap = Array.map Int64.bits_of_float (Geometry.Pointset.score_l_many idx ~cap ~radii) in
  let caps = [ 60; 150 ] in
  let reg = Engine.Registry.create () in
  let ds =
    Engine.Registry.register reg ~name:"d" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
      w.Workload.Synth.points
  in
  let check_epoch what =
    let idx = Engine.Registry.index ds in
    check_true (what ^ ": new epoch starts cold")
      (not (Geometry.Pointset.For_testing.memo_holds idx ~radii));
    let fresh_idx = Geometry.Pointset.build_index (Engine.Registry.pointset ds) in
    List.iter
      (fun cap ->
        check_true
          (Printf.sprintf "%s: cap %d equals a fresh index" what cap)
          (sweep idx cap = sweep fresh_idx cap))
      caps;
    check_true (what ^ ": memo filled")
      (Geometry.Pointset.For_testing.memo_holds idx ~radii)
  in
  let epoch0 = Engine.Registry.index ds in
  let before = sweep epoch0 60 in
  ignore (Engine.Registry.append ds (Array.sub w.Workload.Synth.points 0 30));
  check_epoch "after append";
  ignore (Engine.Registry.retire ds ~from_:10 ~count:20);
  check_epoch "after retire";
  check_true "old epoch unchanged" (sweep epoch0 60 = before)

(* Two domains racing to fill one index's memo: the second waits for the
   first's sweep, and both get the vector a cold index computes. *)
let test_memo_concurrent_first_calls () =
  let _, grid, w = small_workload () in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  let radii =
    Array.init (Geometry.Grid.geometric_candidates grid) (Geometry.Grid.geometric_radius_of_index grid)
  in
  let bits = Array.map Int64.bits_of_float in
  let idx = Geometry.Pointset.build_index ps in
  let expected = bits (Geometry.Pointset.score_l_many (Geometry.Pointset.cold_copy idx) ~cap:120 ~radii) in
  let ready = Atomic.make 0 in
  let racer cap () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    bits (Geometry.Pointset.score_l_many idx ~cap ~radii)
  in
  let d1 = Domain.spawn (racer 120) and d2 = Domain.spawn (racer 120) in
  let v1 = Domain.join d1 and v2 = Domain.join d2 in
  check_true "concurrent first calls agree" (v1 = v2);
  check_true "and equal a cold index" (v1 = expected);
  check_true "memo filled once for both" (Geometry.Pointset.For_testing.memo_holds idx ~radii)

(* A completed output carries what the mechanism released (centers and
   radii, a failure count) and the public parameters it ran at (t, the
   certified Δ), nothing read off the data without noise: no coverage
   count, no ratio against the true optimum. *)
let test_served_outputs_private () =
  let service = Engine.Service.create ~domains:1 ~seed:21 ~faults:Engine.Faults.none () in
  let _, grid, w = small_workload ~seed:4 ~n:20_000 ~axis:256 ~fraction:0.7 ~radius:0.05 () in
  let ds =
    Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:20. ~delta:1e-4)
      w.Workload.Synth.points
  in
  let spec id kind ~eps ~delta =
    { Engine.Job.id; kind; eps; delta; beta = 0.1; deadline_s = None; fallback = false }
  in
  let results =
    Engine.Service.run_batch service ~dataset:ds
      [
        spec "one" (Engine.Job.One_cluster { t_fraction = 0.5 }) ~eps:2. ~delta:1e-6;
        spec "ldp" (Engine.Job.Local_cluster { t_fraction = 0.5 }) ~eps:2. ~delta:0.;
        spec "meb" (Engine.Job.Meb { t_fraction = 0.6; coreset = 200 }) ~eps:1. ~delta:1e-7;
        spec "k" (Engine.Job.K_cluster { k = 2; t_fraction = 0.3 }) ~eps:2. ~delta:1e-6;
      ]
  in
  let keys what json expected =
    match json with
    | Obs.Json.Obj fields ->
        Alcotest.(check (list string)) what expected (List.sort compare (List.map fst fields))
    | _ -> Alcotest.failf "%s: not an object" what
  in
  let ball what b = keys (what ^ " ball") b [ "center"; "radius" ] in
  check_int "four results" 4 (List.length results);
  List.iter
    (fun (r : Engine.Job.result) ->
      let id = r.Engine.Job.spec.Engine.Job.id in
      let json = Engine.Job.result_to_json r in
      check_true (id ^ " ok") (Engine.Job.status_name r.Engine.Job.status = "ok");
      keys id json [ "attempts"; "delta"; "eps"; "id"; "kind"; "latency_ms"; "output"; "status" ];
      let output = Option.get (Obs.Json.member "output" json) in
      match r.Engine.Job.spec.Engine.Job.kind with
      | Engine.Job.K_cluster _ -> (
          keys id output [ "balls"; "failures" ];
          match Obs.Json.member "balls" output with
          | Some (Obs.Json.List bs) ->
              check_true (id ^ " released a ball") (bs <> []);
              List.iter (ball id) bs
          | _ -> Alcotest.failf "%s: no ball list" id)
      | _ ->
          keys id output [ "ball"; "delta_bound"; "t" ];
          ball id (Option.get (Obs.Json.member "ball" output)))
    results

(* Two domains ask the registry for r_opt sandwiches, first for the same
   t, then for different ones, while a third call advances the epoch's
   sweep, on a fresh dataset each round: the scans run outside the
   dataset's lock and may race on one t, and every answer must equal a
   cold single-domain scan bit for bit. *)
let test_registry_bounds_concurrent () =
  let _, grid, w = small_workload ~n:1500 () in
  let radii =
    Array.init (Geometry.Grid.geometric_candidates grid) (Geometry.Grid.geometric_radius_of_index grid)
  in
  let bits (lo, hi) = (Int64.bits_of_float lo, Int64.bits_of_float hi) in
  let ts = [ 300; 600; 750 ] in
  let reg = Engine.Registry.create () in
  for round = 1 to 3 do
    let ds =
      Engine.Registry.register reg ~name:(Printf.sprintf "race%d" round) ~grid
        ~budget:(p ~eps:10. ~delta:1e-4) w.Workload.Synth.points
    in
    let cold = Geometry.Pointset.build_index (Engine.Registry.pointset ds) in
    let expected t = bits (Workload.Metrics.r_opt_bounds_indexed cold ~t) in
    let ready = Atomic.make 0 in
    let start () =
      Atomic.incr ready;
      while Atomic.get ready < 3 do
        Domain.cpu_relax ()
      done
    in
    let asker order () =
      start ();
      List.map (fun t -> (t, bits (Engine.Registry.r_opt_bounds ds ~t))) order
    in
    let d1 = Domain.spawn (asker ts) and d2 = Domain.spawn (asker [ 300; 750; 600 ]) in
    start ();
    List.iter (fun t -> ignore (Geometry.Pointset.score_l_many (Engine.Registry.index ds) ~cap:t ~radii)) ts;
    List.iter
      (fun (t, b) ->
        check_true (Printf.sprintf "round %d, t=%d: equals a cold scan" round t) (b = expected t))
      (Domain.join d1 @ Domain.join d2)
  done

(* --- Job parsing -------------------------------------------------------- *)

let test_job_parsing () =
  let contents =
    "# a comment\n\
     one_cluster t_fraction=0.45 eps=0.5 delta=1e-7\n\
     \n\
     quantile q=0.25 eps=0.2 id=q25   # trailing comment\n\
     k_cluster k=3 t_fraction=0.2 eps=1 delta=1e-7 deadline=30\n"
  in
  match Engine.Job.parse contents with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok specs ->
      check_int "three jobs" 3 (List.length specs);
      let j1 = List.nth specs 0 and j2 = List.nth specs 1 and j3 = List.nth specs 2 in
      check_true "auto id" (j1.Engine.Job.id = "j1");
      check_true "explicit id" (j2.Engine.Job.id = "q25");
      check_true "quantile delta defaults to 0" (j2.Engine.Job.delta = 0.);
      check_true "deadline parsed" (j3.Engine.Job.deadline_s = Some 30.);
      (match j3.Engine.Job.kind with
      | Engine.Job.K_cluster { k = 3; _ } -> ()
      | _ -> Alcotest.fail "k_cluster kind");
      (* A standing line journaled with the earlier decimal (%g) rendering
         still parses. *)
      match
        Engine.Job.parse
          "standing t_fraction=0.333333 periods=3 eps=0.123457 delta=3e-07 beta=0.1 id=sq"
      with
      | Ok [ { Engine.Job.kind = Engine.Job.Standing { periods = 3; _ }; eps; _ } ] ->
          check_float ~tol:0. "decimal eps" 0.123457 eps
      | _ -> Alcotest.fail "decimal standing line must parse"

(* Every kind with arbitrary finite, in-range parameters: [spec_to_line]
   must hand [parse] back the same spec, bit for bit. *)
let spec_gen =
  let open QCheck2.Gen in
  let finite = map (fun x -> if Float.is_finite x then x else 0.5) float in
  let unit = float_range 0. 1. and pos = int_range 1 1_000_000 in
  let fraction = map (fun x -> if x > 0. then x else 1.) unit in
  let* kind =
    oneof
      [
        map (fun t_fraction -> Engine.Job.One_cluster { t_fraction }) fraction;
        map2 (fun k t_fraction -> Engine.Job.K_cluster { k; t_fraction }) pos fraction;
        map2 (fun axis q -> Engine.Job.Quantile { axis; q }) int unit;
        map4
          (fun n seed frac radius -> Engine.Job.Mutate (Engine.Job.Append_synth { n; seed; frac; radius }))
          pos int fraction (map Float.abs finite);
        map2 (fun from_ count -> Engine.Job.Mutate (Engine.Job.Retire_range { from_; count })) nat pos;
        map2 (fun t_fraction periods -> Engine.Job.Standing { t_fraction; periods }) fraction
          (int_range 1 1000);
        map (fun t_fraction -> Engine.Job.Local_cluster { t_fraction }) fraction;
        map2 (fun t_fraction coreset -> Engine.Job.Meb { t_fraction; coreset }) fraction pos;
      ]
  in
  let* eps =
    match kind with
    | Engine.Job.Mutate _ -> finite
    | _ -> map (fun x -> if x > 0. then x else 1.) (float_range 0. 100.)
  in
  let* delta = float_range 0. 0.999 in
  let* beta = finite in
  let* deadline_s = opt (float_range 0. 1e4) in
  let* fallback = match kind with Engine.Job.One_cluster _ -> bool | _ -> return false in
  let+ id = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  { Engine.Job.id; kind; eps; delta; beta; deadline_s; fallback }

let test_job_line_roundtrip =
  qcheck "every kind round-trips bit-exactly through spec_to_line" spec_gen (fun spec ->
      match Engine.Job.parse (Engine.Job.spec_to_line spec) with
      | Ok [ spec' ] -> spec' = spec && Engine.Job.signature spec' = Engine.Job.signature spec
      | _ -> false)

let test_job_parse_errors () =
  let bad =
    [
      "one_cluster";
      "mystery eps=1";
      "one_cluster eps=zero delta=1e-7";
      "quantile q=2 eps=1";
      "quantile t_fraction=0.9 eps=1";
      "one_cluster coreset=5 eps=1 delta=1e-7";
      "quantile axis=1.7 eps=1";
      "one_cluster eps=nan delta=1e-7";
      "one_cluster eps=1 delta=nan";
      "one_cluster eps=1 delta=1e-7 id=";
      "mutate op=append n=10 seed=1 frac=5";
      "mutate op=append n=10 seed=1 frac=0";
      "mutate op=append n=10 seed=1 radius=-1";
      "mutate op=append n=10 seed=1 radius=inf";
      "standing periods=1001 eps=1 delta=1e-7";
    ]
  in
  List.iter
    (fun line ->
      match Engine.Job.parse line with
      | Ok _ -> Alcotest.failf "accepted bad line %S" line
      | Error e -> check_true "error names line 1" (String.length e > 0 && String.sub e 0 6 = "line 1"))
    bad

(* [t_fraction] must be in (0, 1] for every kind that reads it: a value
   outside would be charged and then fail in the solver (t > n), and a NaN
   would silently run at t = 1. *)
let test_job_t_fraction_range () =
  let lines =
    [
      "one_cluster eps=1 delta=1e-7";
      "k_cluster k=2 eps=1 delta=1e-7";
      "standing periods=2 eps=1 delta=1e-7";
      "local_cluster eps=1";
      "meb_fptas eps=1 delta=1e-7";
    ]
  in
  List.iter
    (fun line ->
      List.iter
        (fun v ->
          let l = Printf.sprintf "%s t_fraction=%s" line v in
          match Engine.Job.parse l with
          | Ok _ -> Alcotest.failf "accepted %S" l
          | Error e ->
              check_true (Printf.sprintf "%S: typed error (%s)" l e)
                (e = "line 1: key t_fraction: must be in (0, 1]"))
        [ "0"; "-0"; "-0.1"; "1.5"; "2"; "nan"; "inf"; "-inf" ];
      List.iter
        (fun v ->
          let l = Printf.sprintf "%s t_fraction=%s" line v in
          match Engine.Job.parse l with
          | Ok [ spec ] ->
              check_true (Printf.sprintf "%S reads %s" l v)
                (Engine.Job.t_fraction spec.Engine.Job.kind = Some (float_of_string v))
          | Ok _ -> Alcotest.failf "%S: expected one job" l
          | Error e -> Alcotest.failf "rejected %S: %s" l e)
        [ "1.0"; "1"; "1e-3" ])
    lines

(* Golden bytes: a signature is a Result_cache key and is journaled in WAL
   [cached] records, and the two output encodings are the reply JSON and
   the journaled answer, so all three must keep their exact bytes.  A
   signature changes only with its answers' version ([version=3]: the
   box histogram lists its cells in first-seen order). *)
let golden_spec kind ~eps ~delta =
  {
    Engine.Job.id = "g";
    kind;
    eps;
    delta;
    beta = 0.1;
    deadline_s = Some 30.;
    fallback = false;
  }

let test_job_golden_bytes () =
  let third = 1. /. 3. and tenth = 0.1 +. 0.2 in
  let t_fraction = third in
  let signatures =
    [
      ( golden_spec (Engine.Job.One_cluster { t_fraction }) ~eps:tenth ~delta:1e-7,
        "one_cluster t_fraction=0x1.5555555555555p-2 eps=0x1.3333333333334p-2 \
         delta=0x1.ad7f29abcaf48p-24 beta=0x1.999999999999ap-4 version=3" );
      ( golden_spec (Engine.Job.K_cluster { k = 3; t_fraction = 0.2 }) ~eps:1. ~delta:1e-7,
        "k_cluster k=3 t_fraction=0x1.999999999999ap-3 eps=0x1p+0 delta=0x1.ad7f29abcaf48p-24 \
         beta=0x1.999999999999ap-4 version=3" );
      ( golden_spec (Engine.Job.Quantile { axis = 1; q = 0.25 }) ~eps:0.1234567 ~delta:0.,
        "quantile axis=1 q=0x1p-2 eps=0x1.f9adbb8f8da72p-4 delta=0x0p+0 beta=0x1.999999999999ap-4 version=3" );
      ( golden_spec
          (Engine.Job.Mutate
             (Engine.Job.Append_synth { n = 500; seed = 11; frac = 0.5; radius = 0.05 }))
          ~eps:0. ~delta:0.,
        "mutate op=append n=500 seed=11 frac=0x1p-1 radius=0x1.999999999999ap-5 eps=0x0p+0 \
         delta=0x0p+0 beta=0x1.999999999999ap-4 version=3" );
      ( golden_spec (Engine.Job.Mutate (Engine.Job.Retire_range { from_ = 7; count = 100 }))
          ~eps:0. ~delta:0.,
        "mutate op=retire from=7 count=100 eps=0x0p+0 delta=0x0p+0 beta=0x1.999999999999ap-4 version=3" );
      ( golden_spec (Engine.Job.Standing { t_fraction = 0.45; periods = 4 }) ~eps:0.8 ~delta:4e-7,
        "standing t_fraction=0x1.ccccccccccccdp-2 periods=4 eps=0x1.999999999999ap-1 \
         delta=0x1.ad7f29abcaf48p-22 beta=0x1.999999999999ap-4 version=3" );
      ( golden_spec (Engine.Job.Local_cluster { t_fraction = 0.6 }) ~eps:2. ~delta:0.,
        "local_cluster t_fraction=0x1.3333333333333p-1 eps=0x1p+1 delta=0x0p+0 \
         beta=0x1.999999999999ap-4 version=3" );
      ( golden_spec (Engine.Job.Meb { t_fraction = 0.8; coreset = 200 }) ~eps:1. ~delta:1e-7,
        "meb_fptas t_fraction=0x1.999999999999ap-1 coreset=200 eps=0x1p+0 \
         delta=0x1.ad7f29abcaf48p-24 beta=0x1.999999999999ap-4 version=3" );
    ]
  in
  List.iter
    (fun (spec, expected) ->
      Alcotest.(check string) "signature" expected (Engine.Job.signature spec))
    signatures;
  let ball = { Engine.Job.center = [| tenth; -.third |]; radius = 0.0625 +. 1e-9 } in
  let ball_json = {|{"center":[0.3,-0.333333333333],"radius":0.062500001}|} in
  let ball_wire =
    {|{"center":["0x1.3333333333334p-2","-0x1.5555555555555p-2"],"radius":"0x1.00000044b82fap-4"}|}
  in
  let outputs =
    [
      ( Engine.Job.Cluster { ball; t = 40; delta_bound = third },
        {|{"ball":|} ^ ball_json ^ {|,"t":40,"delta_bound":0.333333333333}|},
        {|{"kind":"cluster","ball":|} ^ ball_wire ^ {|,"t":40,"delta_bound":"0x1.5555555555555p-2"}|} );
      ( Engine.Job.Clusters { balls = [ ball; ball ]; failures = 1 },
        {|{"balls":[|} ^ ball_json ^ "," ^ ball_json ^ {|],"failures":1}|},
        {|{"kind":"clusters","balls":[|} ^ ball_wire ^ "," ^ ball_wire ^ {|],"failures":1}|} );
      ( Engine.Job.Quantile_value { value = tenth; target_rank = 200.5 },
        {|{"value":0.3,"target_rank":200.5}|},
        {|{"kind":"quantile","value":"0x1.3333333333334p-2","target_rank":"0x1.91p+7"}|} );
      ( Engine.Job.Radius { radius = third; t = 9; delta_bound = 1e-7 },
        {|{"radius":0.333333333333,"t":9,"delta_bound":1e-07}|},
        {|{"kind":"radius","radius":"0x1.5555555555555p-2","t":9,"delta_bound":"0x1.ad7f29abcaf48p-24"}|}
      );
      ( Engine.Job.Epoch_advanced { epoch = 2; n = 500 },
        {|{"epoch":2,"n":500}|},
        {|{"kind":"epoch","epoch":2,"n":500}|} );
      ( Engine.Job.Standing_accepted { periods = 4 },
        {|{"periods":4}|},
        {|{"kind":"standing","periods":4}|} );
    ]
  in
  let spec, _ = List.hd signatures in
  List.iter
    (fun (o, json, wire) ->
      let reply =
        Engine.Job.result_to_json
          { Engine.Job.spec; status = Engine.Job.Completed o; latency_ms = 0.; attempts = 1 }
      in
      (match Obs.Json.member "output" reply with
      | Some j -> Alcotest.(check string) "output_json" json (Obs.Json.to_string ~indent:false j)
      | None -> Alcotest.fail "reply has no output");
      Alcotest.(check string) "output_to_wire" wire
        (Obs.Json.to_string ~indent:false (Engine.Job.output_to_wire o)))
    outputs

(* The journal form decodes back to the same output, bit for bit. *)
let test_output_wire_roundtrip () =
  let ball = { Engine.Job.center = [| 0.1 +. 0.2; -1. /. 3. |]; radius = 1e-300 } in
  List.iter
    (fun o ->
      let wire = Engine.Job.output_to_wire o in
      match Engine.Job.output_of_wire wire with
      | Ok o' ->
          check_true "decodes to the same output" (o' = o);
          check_true "re-encodes to the same bytes"
            (Obs.Json.to_string (Engine.Job.output_to_wire o') = Obs.Json.to_string wire)
      | Error e -> Alcotest.failf "output_of_wire: %s" e)
    [
      Engine.Job.Cluster { ball; t = 40; delta_bound = 1e-7 };
      Engine.Job.Clusters { balls = [ ball; ball ]; failures = 1 };
      Engine.Job.Clusters { balls = []; failures = 0 };
      Engine.Job.Quantile_value { value = 0.3; target_rank = 200.5 };
      Engine.Job.Radius { radius = 1. /. 3.; t = 9; delta_bound = 0. };
      Engine.Job.Epoch_advanced { epoch = 2; n = 500 };
      Engine.Job.Standing_accepted { periods = 4 };
    ];
  check_true "unknown kind rejected"
    (Result.is_error (Engine.Job.output_of_wire (Obs.Json.Obj [ ("kind", Obs.Json.String "?") ])))

(* --- Pool --------------------------------------------------------------- *)

let test_pool_outcomes_in_order () =
  let tasks = Array.init 17 (fun i -> Engine.Pool.task i) in
  let outcomes = Engine.Pool.run ~domains:4 ~f:(fun ~index:_ ~attempt:_ i -> i * i) tasks in
  Array.iteri
    (fun i o ->
      match o with
      | Engine.Pool.Done v -> check_int (Printf.sprintf "slot %d" i) (i * i) v
      | _ -> Alcotest.fail "unexpected non-Done outcome")
    outcomes

let test_pool_failure_isolation () =
  let tasks = Array.init 5 (fun i -> Engine.Pool.task i) in
  let outcomes =
    Engine.Pool.run ~domains:2
      ~f:(fun ~index:_ ~attempt:_ i -> if i = 2 then failwith "boom" else i)
      tasks
  in
  Array.iteri
    (fun i o ->
      match (i, o) with
      | 2, Engine.Pool.Failed msg -> check_true "failure message" (String.length msg > 0)
      | 2, _ -> Alcotest.fail "task 2 should fail"
      | _, Engine.Pool.Done v -> check_int "others fine" i v
      | _, _ -> Alcotest.fail "unexpected outcome")
    outcomes

let test_pool_deadline_timeout () =
  (* An already-expired deadline: the task must never start. *)
  let ran = Atomic.make false in
  let outcomes =
    Engine.Pool.run ~domains:1
      ~f:(fun ~index:_ ~attempt:_ () -> Atomic.set ran true)
      [| Engine.Pool.task ~deadline_s:0.0 () |]
  in
  (match outcomes.(0) with
  | Engine.Pool.Timed_out _ -> ()
  | _ -> Alcotest.fail "expired deadline should time out");
  check_true "expired job never ran" (not (Atomic.get ran));
  (* A job that overruns its deadline: reported as timeout, pool returns. *)
  let outcomes =
    Engine.Pool.run ~domains:1
      ~f:(fun ~index:_ ~attempt:_ () -> Unix.sleepf 0.15)
      [| Engine.Pool.task ~deadline_s:0.05 () |]
  in
  match outcomes.(0) with
  | Engine.Pool.Timed_out { elapsed_ms } -> check_true "elapsed past deadline" (elapsed_ms >= 50.)
  | _ -> Alcotest.fail "overrun should time out"

(* --- Service ------------------------------------------------------------ *)

let specs_for_batch =
  [
    {
      Engine.Job.id = "a";
      kind = Engine.Job.One_cluster { t_fraction = 0.45 };
      eps = 2.0;
      delta = 1e-6;
      beta = 0.1;
      deadline_s = None;
      fallback = false;
    };
    {
      Engine.Job.id = "q";
      kind = Engine.Job.Quantile { axis = 0; q = 0.5 };
      eps = 0.3;
      delta = 0.;
      beta = 0.1;
      deadline_s = None;
      fallback = false;
    };
    {
      Engine.Job.id = "b";
      kind = Engine.Job.One_cluster { t_fraction = 0.4 };
      eps = 2.0;
      delta = 1e-6;
      beta = 0.1;
      deadline_s = None;
      fallback = false;
    };
  ]

let run_batch ~domains ~seed =
  let service = Engine.Service.create ~domains ~seed ~faults:Engine.Faults.none () in
  (* Big enough that the 1-cluster solver succeeds at eps=2. *)
  let _, grid, w = small_workload ~n:1500 ~axis:256 ~radius:0.05 () in
  let ds =
    Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
      w.Workload.Synth.points
  in
  Engine.Service.run_batch service ~dataset:ds specs_for_batch

(* Everything except wall-clock latency must match. *)
let canonical results =
  List.map
    (fun (r : Engine.Job.result) ->
      (r.Engine.Job.spec.Engine.Job.id, Engine.Job.status_name r.Engine.Job.status, Engine.Job.detail r))
    results

let test_service_parallel_equals_sequential () =
  let r1 = run_batch ~domains:1 ~seed:11 in
  let r4 = run_batch ~domains:4 ~seed:11 in
  check_true "all completed"
    (List.for_all (fun (r : Engine.Job.result) -> Engine.Job.status_name r.Engine.Job.status = "ok") r1);
  Alcotest.(check (list (triple string string string)))
    "4 domains bit-identical to 1 domain" (canonical r1) (canonical r4);
  let r1' = run_batch ~domains:1 ~seed:12 in
  check_true "different seed, different draws" (canonical r1 <> canonical r1')

let test_service_refuses_over_budget_jobs () =
  let service = Engine.Service.create ~domains:1 ~seed:3 ~faults:Engine.Faults.none () in
  let _, grid, w = small_workload () in
  let ds =
    Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:1.5 ~delta:1e-5)
      w.Workload.Synth.points
  in
  let mk id eps =
    {
      Engine.Job.id;
      kind = Engine.Job.Quantile { axis = 0; q = 0.5 };
      eps;
      delta = 0.;
      beta = 0.1;
      deadline_s = None;
      fallback = false;
    }
  in
  (* 0.9 accepted, 0.9 refused (would hit 1.8 > 1.5), 0.5 accepted: admission
     is in submission order, not best-fit. *)
  let results = Engine.Service.run_batch service ~dataset:ds [ mk "a" 0.9; mk "b" 0.9; mk "c" 0.5 ] in
  let statuses =
    List.map (fun (r : Engine.Job.result) -> Engine.Job.status_name r.Engine.Job.status) results
  in
  Alcotest.(check (list string)) "refusal pattern" [ "ok"; "refused"; "ok" ] statuses;
  (match (List.nth results 1).Engine.Job.status with
  | Engine.Job.Refused msg ->
      check_true "refusal message names the budget" (contains_sub msg "budget")
  | _ -> Alcotest.fail "expected refusal");
  let spent = Engine.Accountant.spent (Engine.Registry.accountant ds) in
  check_float ~tol:1e-12 "refused job not charged" 1.4 spent.Prim.Dp.eps;
  check_int "telemetry saw all three"
    3
    (Engine.Telemetry.For_testing.count (Engine.Service.telemetry service) ~kind:"quantile" ())

let test_service_deadline_reports_timeout () =
  let service = Engine.Service.create ~domains:2 ~seed:3 ~faults:Engine.Faults.none () in
  let _, grid, w = small_workload () in
  let ds =
    Engine.Service.register service ~name:"w" ~grid ~budget:(p ~eps:10. ~delta:1e-4)
      w.Workload.Synth.points
  in
  let spec =
    {
      Engine.Job.id = "late";
      kind = Engine.Job.One_cluster { t_fraction = 0.45 };
      eps = 1.0;
      delta = 1e-7;
      beta = 0.1;
      deadline_s = Some 0.;  (* expired on arrival *)
      fallback = false;
    }
  in
  match Engine.Service.run_batch service ~dataset:ds [ spec ] with
  | [ r ] -> (
      match r.Engine.Job.status with
      | Engine.Job.Timed_out _ ->
          check_int "timeout recorded in telemetry" 1
            (Engine.Telemetry.For_testing.count (Engine.Service.telemetry service) ~status:"timeout" ())
      | s -> Alcotest.failf "expected timeout, got %s" (Engine.Job.status_name s))
  | _ -> Alcotest.fail "one result expected"


(* The calling domain is one of the pool's workers: a batch at [domains]
   runs on the caller plus at most [domains − 1] spawned domains.  A task
   on a spawned domain waits (up to 2 s) until the caller has run one, so
   the caller's participation does not depend on timing. *)
let test_pool_caller_works ~domains () =
  let caller = (Domain.self () :> int) in
  let caller_ran = Atomic.make false in
  let tasks = Array.init 12 (fun i -> Engine.Pool.task i) in
  let outcomes =
    Engine.Pool.run ~domains
      ~f:(fun ~index:_ ~attempt:_ _ ->
        let me = (Domain.self () :> int) in
        if me = caller then Atomic.set caller_ran true
        else begin
          let t0 = Unix.gettimeofday () in
          while (not (Atomic.get caller_ran)) && Unix.gettimeofday () -. t0 < 2. do
            Unix.sleepf 1e-3
          done
        end;
        me)
      tasks
  in
  let ids =
    Array.to_list
      (Array.map
         (function Engine.Pool.Done id -> id | _ -> Alcotest.fail "unexpected non-Done outcome")
         outcomes)
  in
  check_true "the caller ran a task" (List.mem caller ids);
  let spawned = List.sort_uniq compare (List.filter (fun id -> id <> caller) ids) in
  check_true
    (Printf.sprintf "%d spawned domains ran tasks, at most %d" (List.length spawned) (domains - 1))
    (List.length spawned <= domains - 1)

(* --- Execution order ------------------------------------------------------- *)

(* A cold-epoch batch of every worker kind that reads the sweep or not:
   one_cluster jobs (readers) around a quantile and the two competitors. *)
let mixed_specs =
  let job id kind ~eps ~delta =
    { Engine.Job.id; kind; eps; delta; beta = 0.1; deadline_s = None; fallback = false }
  in
  [
    job "a" (Engine.Job.One_cluster { t_fraction = 0.45 }) ~eps:2.0 ~delta:1e-6;
    job "q" (Engine.Job.Quantile { axis = 0; q = 0.5 }) ~eps:0.3 ~delta:0.;
    job "b" (Engine.Job.One_cluster { t_fraction = 0.4 }) ~eps:2.0 ~delta:1e-6;
    job "ldp" (Engine.Job.Local_cluster { t_fraction = 0.5 }) ~eps:2.0 ~delta:0.;
    job "meb" (Engine.Job.Meb { t_fraction = 0.5; coreset = 200 }) ~eps:1.0 ~delta:1e-7;
    job "c" (Engine.Job.One_cluster { t_fraction = 0.3 }) ~eps:1.0 ~delta:1e-7;
  ]

let run_mixed ?(retries = 0) ~domains ~faults () =
  let service = Engine.Service.create ~domains ~seed:21 ~retries ~faults () in
  let _, grid, w = small_workload ~n:1500 ~axis:256 ~radius:0.05 () in
  let ds =
    Engine.Service.register service ~name:"mixed" ~grid ~budget:(p ~eps:20. ~delta:1e-4)
      w.Workload.Synth.points
  in
  Engine.Service.run_batch service ~dataset:ds mixed_specs

(* Status and exact (hex-float) output of every job, in reply order. *)
let mixed_bytes results =
  String.concat "\n"
    (List.map
       (fun (r : Engine.Job.result) ->
         let out =
           match r.Engine.Job.status with
           | Engine.Job.Completed o -> Obs.Json.to_string (Engine.Job.output_to_wire o)
           | _ -> Engine.Job.detail r
         in
         Printf.sprintf "%s %s %s" r.Engine.Job.spec.Engine.Job.id
           (Engine.Job.status_name r.Engine.Job.status) out)
       results)

(* Pinned before the pool ran sweep-free jobs beside the first sweep: the
   execution order must not move a bit of any answer, at any domain count
   or under injected crashes. *)
let mixed_golden = "aafbfa529ee3a6ed377a64a93a5b13af"

let test_mixed_batch_golden () =
  let digest rs = Digest.to_hex (Digest.string (mixed_bytes rs)) in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "%d domains" domains)
        mixed_golden
        (digest (run_mixed ~domains ~faults:Engine.Faults.none ())))
    [ 1; 2; 4 ];
  let crashes =
    Engine.Faults.explicit
      (List.map (fun i -> (i, Engine.Faults.rule ~attempts:2 Engine.Faults.Crash)) [ 0; 1; 3; 5 ])
  in
  Alcotest.(check string) "crash faults, 2 domains" mixed_golden
    (digest (run_mixed ~retries:2 ~domains:2 ~faults:crashes ()))

(* At one domain the pool runs tasks in its order, so the job spans start
   in it: the first sweep reader, the jobs that do not read the sweep,
   then the other readers, each group in submission order. *)
let test_mixed_batch_execution_order () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  let spans =
    Fun.protect
      ~finally:(fun () ->
        Obs.Span.set_enabled false;
        Obs.Span.reset ())
      (fun () ->
        ignore (run_mixed ~domains:1 ~faults:Engine.Faults.none ());
        Obs.Span.spans ())
  in
  let started =
    List.filter_map
      (fun (sp : Obs.Span.span) ->
        match (sp.Obs.Span.cat, List.assoc_opt "id" sp.Obs.Span.attrs) with
        | "job", Some (Obs.Span.S id) -> Some id
        | _ -> None)
      spans
  in
  Alcotest.(check (list string)) "job spans in start order" [ "a"; "q"; "ldp"; "meb"; "b"; "c" ] started

let pool_sum outcomes =
  Array.fold_left
    (fun acc o -> match o with Engine.Pool.Done v -> acc + v | _ -> Alcotest.fail "a task did not finish")
    0 outcomes

(* Helpers persist: fifty batches at 2 and then at 4 domains start no
   helper past the third (none at all if earlier tests started them). *)
let test_pool_helpers_persist () =
  let before = Engine.Pool.For_testing.helpers () in
  List.iter
    (fun domains ->
      for b = 1 to 50 do
        let out = Engine.Pool.run ~domains ~f:(fun ~index:_ ~attempt:_ i -> i + b) (Array.init 8 Engine.Pool.task) in
        check_int (Printf.sprintf "batch %d at %d domains" b domains) (28 + (8 * b)) (pool_sum out)
      done)
    [ 2; 4 ];
  let after = Engine.Pool.For_testing.helpers () in
  check_true
    (Printf.sprintf "%d helpers after 100 batches (%d before, at most 3 needed)" after before)
    (after <= max before 3)

(* A task may run a batch of its own, with every helper busy in the outer
   batch or not, and an exception stays confined to its task at either
   level; the helpers survive it. *)
let test_pool_nested () =
  List.iter
    (fun (outer_d, inner_d) ->
      let out =
        Engine.Pool.run ~domains:outer_d
          ~f:(fun ~index:_ ~attempt:_ i ->
            if i = 3 then failwith "outer boom";
            let inner =
              Engine.Pool.run ~domains:inner_d
                ~f:(fun ~index:_ ~attempt:_ j -> if j = 2 then failwith "inner boom" else (10 * i) + j)
                (Array.init 5 Engine.Pool.task)
            in
            (match inner.(2) with
            | Engine.Pool.Failed _ -> ()
            | _ -> Alcotest.fail "inner task 2 should fail");
            inner.(2) <- Engine.Pool.Done 0;
            pool_sum inner)
          (Array.init 6 Engine.Pool.task)
      in
      Array.iteri
        (fun i o ->
          match (i, o) with
          | 3, Engine.Pool.Failed msg -> check_true "outer failure message" (contains_sub msg "outer boom")
          | 3, _ -> Alcotest.fail "outer task 3 should fail"
          | _, Engine.Pool.Done v -> check_int (Printf.sprintf "outer %d" i) ((40 * i) + 8) v
          | _ -> Alcotest.fail "unexpected outer outcome")
        out)
    [ (2, 2); (2, 4); (4, 2); (4, 4) ];
  check_int "helpers still serve" 36
    (pool_sum (Engine.Pool.run ~domains:4 ~f:(fun ~index:_ ~attempt:_ i -> i + 1) (Array.init 8 Engine.Pool.task)))

let suite =
  [
    case "rng derive is stream-keyed and state-independent" test_derive_state_independent;
    case "accountant basic mode matches Composition.basic_list" test_accountant_basic_arithmetic;
    case "accountant refusal leaves the ledger unchanged" test_accountant_refusal_leaves_ledger_unchanged;
    case "accountant advanced mode matches Composition.advanced" test_accountant_advanced_matches_composition;
    case "accountant zcdp mode matches the Zcdp ledger arithmetic" test_accountant_zcdp_matches_ledger_arithmetic;
    case "registry caches the r_opt sandwich per t" test_registry_caches_bounds;
    case "jobs-file parsing" test_job_parsing;
    case "jobs-file parse errors name the line" test_job_parse_errors;
    case "pool returns outcomes in submission order" test_pool_outcomes_in_order;
    case "pool confines a task exception to its task" test_pool_failure_isolation;
    case "pool deadline: expired jobs skip, overruns report timeout" test_pool_deadline_timeout;
    slow_case "service: 4 domains bit-identical to 1 domain" test_service_parallel_equals_sequential;
    case "service refuses over-budget jobs without running them" test_service_refuses_over_budget_jobs;
    case "service deadline-exceeded job reports timeout" test_service_deadline_reports_timeout;
    case "registry r_opt sandwich on a k-d tree dataset" test_registry_bounds_on_tree;
    case "registry: every epoch's score_l_many memo matches a fresh index" test_registry_memo_per_epoch;
    case "two domains' first score_l_many calls on one index agree" test_memo_concurrent_first_calls;
    test_job_line_roundtrip;
    case "job signatures and output encodings keep their bytes" test_job_golden_bytes;
    case "output_of_wire inverts output_to_wire bit for bit" test_output_wire_roundtrip;
    case "jobs-file t_fraction must be in (0, 1]" test_job_t_fraction_range;
    case "pool at 2 domains: the caller works, one domain spawned" (test_pool_caller_works ~domains:2);
    case "pool at 4 domains: the caller works, at most three spawned" (test_pool_caller_works ~domains:4);
    case "served outputs carry only mechanism outputs and public parameters"
      test_served_outputs_private;
    case "registry: concurrent r_opt sandwiches equal a cold scan" test_registry_bounds_concurrent;
    case "accountant slack is relative to the budget" test_accountant_relative_slack;
    slow_case "mixed cold batch keeps its bytes at 1, 2, 4 domains and under crashes"
      test_mixed_batch_golden;
    case "mixed cold batch: job spans start in the execution order" test_mixed_batch_execution_order;
    case "pool helpers persist across batches" test_pool_helpers_persist;
    case "pool: nested batches complete, exceptions stay confined" test_pool_nested;
  ]
