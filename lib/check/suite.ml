type config = {
  seed : int;
  trials : int;
  deep : bool;
  significance : float;
  alpha : float;
  slack : float;
  domains : int;
}

let default =
  {
    seed = 1;
    trials = 20_000;
    deep = false;
    significance = 0.01;
    alpha = 0.05;
    slack = 0.1;
    domains = 1;
  }

type status = Pass | Violation

type result = {
  name : string;
  kind : string;
  status : status;
  detail : string;
  json : Obs.Json.t;
}

(* ------------------------------------------------------------------ *)
(* Sampling fan-out: a fixed chunk count (independent of [domains], so
   results never depend on the worker count), each chunk on its own
   derived stream. *)

let chunks = 16

let base_rng cfg ~stream = Prim.Rng.derive (Prim.Rng.create ~seed:cfg.seed ()) ~stream

let pool_done = function
  | Engine.Pool.Done v -> v
  | Engine.Pool.Failed msg -> failwith ("check fan-out chunk raised: " ^ msg)
  | Engine.Pool.Timed_out _ -> assert false (* no deadlines are set *)

(* [f chunk_rng per_chunk_count] on every chunk; returns the chunk results
   in chunk order plus the per-chunk count actually used. *)
let fanout cfg ~stream ~f total =
  let per = max 1 ((total + chunks - 1) / chunks) in
  let base = base_rng cfg ~stream in
  let tasks = Array.init chunks (fun i -> Engine.Pool.task i) in
  let outcomes =
    Engine.Pool.run ~domains:cfg.domains
      ~f:(fun ~index:_ ~attempt:_ i -> f (Prim.Rng.derive base ~stream:i) per)
      tasks
  in
  (Array.to_list (Array.map pool_done outcomes), per)

let sample_floats cfg ~stream ~total sampler =
  let parts, _ =
    fanout cfg ~stream ~f:(fun rng count -> Array.init count (fun _ -> sampler rng)) total
  in
  Array.concat parts

let count_categories cfg ~stream ~total ~k obs =
  let parts, per =
    fanout cfg ~stream
      ~f:(fun rng count ->
        let c = Array.make k 0 in
        for _ = 1 to count do
          let o = obs rng in
          if o >= 0 && o < k then c.(o) <- c.(o) + 1
        done;
        c)
      total
  in
  let acc = Array.make k 0 in
  List.iter (Array.iteri (fun j v -> acc.(j) <- acc.(j) + v)) parts;
  (acc, per * chunks)

(* Both sides of a distinguisher run: [2 · chunks] pool tasks, sides on
   disjoint derived streams. *)
let dp_counts cfg ~stream ~events ~left ~right total =
  let per = max 1 ((total + chunks - 1) / chunks) in
  let base = base_rng cfg ~stream in
  let tasks = Array.init (2 * chunks) (fun i -> Engine.Pool.task i) in
  let outcomes =
    Engine.Pool.run ~domains:cfg.domains
      ~f:(fun ~index:_ ~attempt:_ i ->
        let rng = Prim.Rng.derive base ~stream:i in
        let mech = if i < chunks then left else right in
        Distinguisher.count rng ~trials:per ~events mech)
      tasks
  in
  let side lo =
    let acc = Array.make (Array.length events) 0 in
    for i = lo to lo + chunks - 1 do
      Array.iteri (fun j v -> acc.(j) <- acc.(j) + v) (pool_done outcomes.(i))
    done;
    acc
  in
  let n = per * chunks in
  ((n, side 0), (n, side chunks))

(* Composite mechanisms are orders of magnitude dearer per trial than one
   noise draw; divide the budget, quadruple it under [deep]. *)
let scaled cfg ~cost =
  if cost <= 1 then cfg.trials
  else max 400 (cfg.trials * (if cfg.deep then 4 else 1) / cost)

(* ------------------------------------------------------------------ *)
(* JSON rendering *)

let interval_json (i : Stats.interval) =
  Obs.Json.Obj [ ("lo", Obs.Json.Float i.Stats.lo); ("hi", Obs.Json.Float i.Stats.hi) ]

let estimate_json (e : Distinguisher.estimate) =
  Obs.Json.Obj
    [
      ("event", Obs.Json.String e.Distinguisher.event);
      ("p_hat", Obs.Json.Float e.Distinguisher.p_hat);
      ("q_hat", Obs.Json.Float e.Distinguisher.q_hat);
      ("p_ci", interval_json e.Distinguisher.p_ci);
      ("q_ci", interval_json e.Distinguisher.q_ci);
      ("eps_lb", Obs.Json.Float e.Distinguisher.eps_lb);
      ("violation", Obs.Json.Bool e.Distinguisher.violation);
    ]

let verdict_json (v : Distinguisher.verdict) =
  Obs.Json.Obj
    [
      ("claimed_eps", Obs.Json.Float v.Distinguisher.claimed.Prim.Dp.eps);
      ("claimed_delta", Obs.Json.Float v.Distinguisher.claimed.Prim.Dp.delta);
      ("slack", Obs.Json.Float v.Distinguisher.slack);
      ("alpha", Obs.Json.Float v.Distinguisher.alpha);
      ("trials_per_side", Obs.Json.Int v.Distinguisher.trials);
      ("eps_lb", Obs.Json.Float v.Distinguisher.eps_lb);
      ("violation", Obs.Json.Bool v.Distinguisher.violation);
      ("events", Obs.Json.List (List.map estimate_json v.Distinguisher.estimates));
    ]

(* ------------------------------------------------------------------ *)
(* Check constructors *)

let ks_result cfg ~name ~cdf samples =
  let r = Stats.ks_test ~cdf samples in
  let violation = r.Stats.p_value < cfg.significance in
  {
    name;
    kind = "distribution";
    status = (if violation then Violation else Pass);
    detail =
      Printf.sprintf "KS D=%.4f p=%.3g n=%d (reject < %g)" r.Stats.d r.Stats.p_value r.Stats.n
        cfg.significance;
    json =
      Obs.Json.Obj
        [
          ("test", Obs.Json.String "ks");
          ("d", Obs.Json.Float r.Stats.d);
          ("p_value", Obs.Json.Float r.Stats.p_value);
          ("n", Obs.Json.Int r.Stats.n);
          ("significance", Obs.Json.Float cfg.significance);
          ("violation", Obs.Json.Bool violation);
        ];
  }

let ad_result cfg ~name ~cdf samples =
  let r = Stats.ad_test ~cdf samples in
  let crit = Stats.ad_critical ~significance:cfg.significance in
  let violation = r.Stats.a2 > crit in
  {
    name;
    kind = "distribution";
    status = (if violation then Violation else Pass);
    detail =
      Printf.sprintf "AD A2=%.3f p~%.3g n=%d (crit %.3f at %g)" r.Stats.a2 r.Stats.p_value
        r.Stats.n crit cfg.significance;
    json =
      Obs.Json.Obj
        [
          ("test", Obs.Json.String "ad");
          ("a2", Obs.Json.Float r.Stats.a2);
          ("p_value", Obs.Json.Float r.Stats.p_value);
          ("critical", Obs.Json.Float crit);
          ("n", Obs.Json.Int r.Stats.n);
          ("significance", Obs.Json.Float cfg.significance);
          ("violation", Obs.Json.Bool violation);
        ];
  }

let chi2_result cfg ~name ~expected ~observed ~n =
  let r = Stats.chi2_test ~expected ~observed in
  let violation = r.Stats.p_value < cfg.significance in
  {
    name;
    kind = "distribution";
    status = (if violation then Violation else Pass);
    detail =
      Printf.sprintf "chi2 X2=%.2f df=%d p=%.3g n=%d (reject < %g)" r.Stats.stat r.Stats.df
        r.Stats.p_value n cfg.significance;
    json =
      Obs.Json.Obj
        [
          ("test", Obs.Json.String "chi2");
          ("stat", Obs.Json.Float r.Stats.stat);
          ("df", Obs.Json.Int r.Stats.df);
          ("p_value", Obs.Json.Float r.Stats.p_value);
          ("pooled_cells", Obs.Json.Int r.Stats.pooled_cells);
          ("n", Obs.Json.Int n);
          ("significance", Obs.Json.Float cfg.significance);
          ("violation", Obs.Json.Bool violation);
        ];
  }

let dp_result ~name (v : Distinguisher.verdict) =
  {
    name;
    kind = "distinguisher";
    status = (if v.Distinguisher.violation then Violation else Pass);
    detail = Format.asprintf "%a" Distinguisher.pp_verdict v;
    json = verdict_json v;
  }

let dp_check ~name ~claimed ~events ~left ~right ~cost ~stream cfg =
  let names = List.map fst events in
  let preds = Array.of_list (List.map snd events) in
  let left, right =
    dp_counts cfg ~stream ~events:preds ~left ~right (scaled cfg ~cost)
  in
  dp_result ~name
    (Distinguisher.verdict ~claimed ~slack:cfg.slack ~alpha:cfg.alpha ~events:names ~left
       ~right ())

(* ------------------------------------------------------------------ *)
(* The checks *)

let lap_eps = 0.7

let laplace_samples ~stream cfg =
  sample_floats cfg ~stream ~total:cfg.trials (fun r ->
      Prim.Laplace.noise r ~eps:lap_eps ~sensitivity:1.0)

let laplace_ks ~stream cfg =
  ks_result cfg ~name:"laplace/ks"
    ~cdf:(fun x -> Dist.laplace_cdf ~eps:lap_eps ~sensitivity:1.0 x)
    (laplace_samples ~stream cfg)

let laplace_ad ~stream cfg =
  ad_result cfg ~name:"laplace/ad"
    ~cdf:(fun x -> Dist.laplace_cdf ~eps:lap_eps ~sensitivity:1.0 x)
    (laplace_samples ~stream cfg)

let gauss_sigma = Prim.Gaussian_mech.sigma ~eps:0.5 ~delta:1e-5 ~l2_sensitivity:1.0

let gaussian_samples ~stream cfg =
  sample_floats cfg ~stream ~total:cfg.trials (fun r ->
      Prim.Rng.gaussian r ~sigma:gauss_sigma ())

let gaussian_ks ~stream cfg =
  ks_result cfg ~name:"gaussian/ks"
    ~cdf:(fun x -> Dist.gaussian_cdf ~sigma:gauss_sigma x)
    (gaussian_samples ~stream cfg)

let gaussian_ad ~stream cfg =
  ad_result cfg ~name:"gaussian/ad"
    ~cdf:(fun x -> Dist.gaussian_cdf ~sigma:gauss_sigma x)
    (gaussian_samples ~stream cfg)

let exp_mech_chi2 ~stream cfg =
  let qualities = [| 3.; 5.; 4.; 1. |] in
  let eps = 0.8 in
  let observed, n =
    count_categories cfg ~stream ~total:cfg.trials ~k:(Array.length qualities) (fun r ->
        Prim.Exp_mech.select r ~eps ~sensitivity:1.0 ~qualities)
  in
  chi2_result cfg ~name:"exp_mech/chi2"
    ~expected:(Dist.exp_mech_law ~eps ~sensitivity:1.0 ~qualities)
    ~observed ~n

let stability_hist_chi2 ~stream cfg =
  let cells = [ ("a", 40); ("b", 36); ("c", 10) ] in
  let eps = 1.0 and delta = 1e-4 in
  let keys = List.map fst cells in
  let index_of k =
    let rec go i = function
      | [] -> assert false
      | k' :: tl -> if k = k' then i else go (i + 1) tl
    in
    go 0 keys
  in
  let none = List.length cells in
  let observed, n =
    count_categories cfg ~stream ~total:cfg.trials ~k:(none + 1) (fun r ->
        match Prim.Stability_hist.select r ~eps ~delta cells with
        | None -> none
        | Some cell -> index_of cell.Prim.Stability_hist.key)
  in
  chi2_result cfg ~name:"stability_hist/chi2"
    ~expected:(Dist.stability_hist_law ~eps ~delta cells)
    ~observed ~n

let laplace_dp ~stream cfg =
  let eps = 0.5 in
  dp_check ~name:"laplace/dp" ~claimed:(Prim.Dp.pure ~eps)
    ~events:(Distinguisher.thresholds ~lo:44. ~hi:58. ~count:15)
    ~left:(fun r -> Prim.Laplace.count r ~eps 50)
    ~right:(fun r -> Prim.Laplace.count r ~eps 51)
    ~cost:1 ~stream cfg

let gaussian_dp ~stream cfg =
  let eps = 0.5 and delta = 1e-5 in
  let sigma = Prim.Gaussian_mech.sigma ~eps ~delta ~l2_sensitivity:1.0 in
  dp_check ~name:"gaussian/dp"
    ~claimed:(Prim.Dp.v ~eps ~delta)
    ~events:(Distinguisher.thresholds ~lo:42. ~hi:60. ~count:15)
    ~left:(fun r -> 50. +. Prim.Rng.gaussian r ~sigma ())
    ~right:(fun r -> 51. +. Prim.Rng.gaussian r ~sigma ())
    ~cost:1 ~stream cfg

(* Neighbouring sensitivity-1 score vectors shared by the exponential
   mechanism and report-noisy-max checks. *)
let scores_a = [| 3.; 5.; 4. |]

let scores_b = [| 4.; 4.; 3. |]

let exp_mech_dp ~stream cfg =
  let eps = 0.5 in
  dp_check ~name:"exp_mech/dp" ~claimed:(Prim.Dp.pure ~eps)
    ~events:(Distinguisher.categories ~k:(Array.length scores_a))
    ~left:(fun r -> Prim.Exp_mech.select r ~eps ~sensitivity:1.0 ~qualities:scores_a)
    ~right:(fun r -> Prim.Exp_mech.select r ~eps ~sensitivity:1.0 ~qualities:scores_b)
    ~cost:1 ~stream cfg

let noisy_max_dp ~stream cfg =
  let eps = 0.5 in
  dp_check ~name:"noisy_max/dp" ~claimed:(Prim.Dp.pure ~eps)
    ~events:(Distinguisher.categories ~k:(Array.length scores_a))
    ~left:(fun r -> Prim.Noisy_max.argmax r ~eps ~sensitivity:1.0 scores_a)
    ~right:(fun r -> Prim.Noisy_max.argmax r ~eps ~sensitivity:1.0 scores_b)
    ~cost:1 ~stream cfg

let sparse_vector_dp ~stream cfg =
  let eps = 1.0 in
  let queries_a = [| 9.; 11.; 9.; 12.; 8. |] in
  let queries_b = Array.map (fun q -> q +. 1.) queries_a in
  let fire queries r =
    let sv = Prim.Sparse_vector.create r ~eps ~threshold:10. in
    let n = Array.length queries in
    let rec go i =
      if i >= n then n
      else
        match Prim.Sparse_vector.query sv queries.(i) with
        | Prim.Sparse_vector.Above -> i
        | Prim.Sparse_vector.Below -> go (i + 1)
    in
    go 0
  in
  dp_check ~name:"sparse_vector/dp" ~claimed:(Prim.Dp.pure ~eps)
    ~events:(Distinguisher.categories ~k:(Array.length queries_a + 1))
    ~left:(fire queries_a) ~right:(fire queries_b) ~cost:1 ~stream cfg

let stability_hist_dp ~stream cfg =
  let eps = 1.0 and delta = 1e-4 in
  let obs cells r =
    match Prim.Stability_hist.select r ~eps ~delta cells with
    | None -> 0
    | Some cell -> if cell.Prim.Stability_hist.key = "x" then 1 else 2
  in
  dp_check ~name:"stability_hist/dp"
    ~claimed:(Prim.Dp.v ~eps ~delta)
    ~events:(Distinguisher.categories ~k:3)
    ~left:(obs [ ("x", 30) ])
    ~right:(obs [ ("x", 30); ("y", 1) ])
    ~cost:1 ~stream cfg

let noisy_avg_dp ~stream cfg =
  let eps = 1.0 and delta = 1e-5 in
  let vectors_a = Array.make 200 [| 0.25 |] in
  let vectors_b = Array.mapi (fun i v -> if i = 0 then [| 0.75 |] else v) vectors_a in
  let obs vectors r =
    match
      Prim.Noisy_avg.run r ~eps ~delta ~diameter:1.0 ~pred:(fun _ -> true) ~dim:1 vectors
    with
    | Prim.Noisy_avg.Average a -> a.Prim.Noisy_avg.average.(0)
    | Prim.Noisy_avg.Bottom -> Float.nan
  in
  dp_check ~name:"noisy_avg/dp"
    ~claimed:(Prim.Dp.v ~eps ~delta)
    ~events:
      (("bottom", fun x -> Float.is_nan x)
      :: Distinguisher.thresholds ~lo:0.2 ~hi:0.3 ~count:11)
    ~left:(obs vectors_a) ~right:(obs vectors_b) ~cost:4 ~stream cfg

(* Neighbouring planted datasets for the composite solver checks: the
   right side moves one input point to the domain corner. *)
let neighbour_workload cfg ~axis ~n ~radius =
  let grid = Geometry.Grid.create ~axis_size:axis ~dim:2 in
  let data_rng = Prim.Rng.create ~seed:(cfg.seed + 7919) () in
  let w =
    Workload.Synth.planted_ball data_rng ~grid ~n ~cluster_fraction:0.5 ~cluster_radius:radius
  in
  let left = w.Workload.Synth.points in
  let right = Array.copy left in
  right.(0) <- Geometry.Grid.snap grid [| 0.01; 0.01 |];
  (grid, left, right)

let good_radius_dp ~stream cfg =
  let eps = 1.0 and delta = 1e-6 and beta = 0.1 and t = 100 in
  let grid, left, right = neighbour_workload cfg ~axis:64 ~n:250 ~radius:0.06 in
  let index points = Geometry.Pointset.build_index (Geometry.Pointset.create points) in
  let idx_left = index left and idx_right = index right in
  let obs idx r =
    (Privcluster.Good_radius.run r Privcluster.Profile.practical ~grid ~eps ~delta ~beta ~t idx)
      .Privcluster.Good_radius.radius
  in
  dp_check ~name:"good_radius/dp"
    ~claimed:(Prim.Dp.v ~eps ~delta)
    ~events:(Distinguisher.thresholds ~lo:0.02 ~hi:0.5 ~count:13)
    ~left:(obs idx_left) ~right:(obs idx_right) ~cost:20 ~stream cfg

let one_cluster_dp ~stream cfg =
  let eps = 1.0 and delta = 1e-6 and beta = 0.1 and t = 60 in
  let grid, left, right = neighbour_workload cfg ~axis:64 ~n:150 ~radius:0.08 in
  let index points = Geometry.Pointset.build_index (Geometry.Pointset.create points) in
  let idx_left = index left and idx_right = index right in
  let obs idx r =
    match
      Privcluster.One_cluster.run_indexed r Privcluster.Profile.practical ~grid ~eps ~delta
        ~beta ~t idx
    with
    | Ok res -> res.Privcluster.One_cluster.radius
    | Error _ -> Float.nan
  in
  dp_check ~name:"one_cluster/dp"
    ~claimed:(Prim.Dp.v ~eps ~delta)
    ~events:
      (("failed", fun x -> Float.is_nan x)
      :: Distinguisher.thresholds ~lo:0.02 ~hi:0.6 ~count:11)
    ~left:(obs idx_left) ~right:(obs idx_right) ~cost:40 ~stream cfg

(* The engine's reserve/commit fallback path, end to end: a one-cluster
   job with an already-expired deadline and [fallback=true] is admitted
   (charge + reservation), times out without drawing noise, then degrades
   to the GoodRadius fallback whose reservation is committed.  The
   observable is the degraded radius; the claimed budget is the
   {e reservation's} price (ε/2, δ/2 of the job), which is exactly what
   the released output consumed. *)
let engine_fallback_dp ~stream cfg =
  let job_eps = 1.0 and job_delta = 1e-6 in
  let _, left_points, right_points = neighbour_workload cfg ~axis:64 ~n:200 ~radius:0.06 in
  let grid = Geometry.Grid.create ~axis_size:64 ~dim:2 in
  let spec =
    {
      Engine.Job.id = "probe";
      kind = Engine.Job.One_cluster { t_fraction = 0.4 };
      eps = job_eps;
      delta = job_delta;
      beta = 0.1;
      deadline_s = Some 0.;
      fallback = true;
    }
  in
  let events =
    ("not-degraded", fun x -> Float.is_nan x)
    :: Distinguisher.thresholds ~lo:0.02 ~hi:0.5 ~count:11
  in
  let preds = Array.of_list (List.map snd events) in
  let total = scaled cfg ~cost:40 in
  let per = max 1 ((total + chunks - 1) / chunks) in
  (* Each chunk owns a private service (the accountant is coordinator-only
     by design, so chunks must not share one); per-trial randomness comes
     from the batch [seed] override, drawn off the chunk's stream. *)
  let parts, _ =
    fanout cfg ~stream
      ~f:(fun rng count ->
        let service =
          Engine.Service.create ~domains:1 ~retries:0 ~faults:Engine.Faults.none ()
        in
        let budget = Prim.Dp.v ~eps:1e9 ~delta:0.99 in
        let register name points =
          Engine.Service.register service ~name ~grid ~budget points
        in
        let ds_left = register "left" left_points in
        let ds_right = register "right" right_points in
        let observe dataset =
          let seed = Prim.Rng.int rng 0x3FFFFFFF in
          match Engine.Service.run_batch ~seed service ~dataset [ spec ] with
          | [ { Engine.Job.status = Engine.Job.Degraded { output = Engine.Job.Radius { radius; _ }; _ }; _ } ]
            ->
              radius
          | _ -> Float.nan
        in
        let k = Array.length preds in
        let cl = Array.make k 0 and cr = Array.make k 0 in
        for _ = 1 to count do
          let ol = observe ds_left and or_ = observe ds_right in
          Array.iteri (fun j p -> if p ol then cl.(j) <- cl.(j) + 1) preds;
          Array.iteri (fun j p -> if p or_ then cr.(j) <- cr.(j) + 1) preds
        done;
        (cl, cr))
      total
  in
  let k = Array.length preds in
  let sum pick =
    let acc = Array.make k 0 in
    List.iter (fun part -> Array.iteri (fun j v -> acc.(j) <- acc.(j) + v) (pick part)) parts;
    acc
  in
  let n = per * chunks in
  dp_result ~name:"engine_fallback/dp"
    (Distinguisher.verdict
       ~claimed:(Prim.Dp.v ~eps:(job_eps /. 2.) ~delta:(job_delta /. 2.))
       ~slack:cfg.slack ~alpha:cfg.alpha ~events:(List.map fst events)
       ~left:(n, sum fst) ~right:(n, sum snd) ())

(* one_cluster/utility is defined with the other certifier checks below
   (shared rendering via [certifier_result]). *)

(* ------------------------------------------------------------------ *)
(* The local-model competitor.  Its only data-dependent message is the
   k-ary randomized-response report, so the randomizer IS the privacy
   barrier: the chi-square check pins its exact law, the dp check its ε,
   and the negative control proves the harness would catch a
   mis-calibrated one (a randomizer leaking 2ε while claiming ε — the
   local-model mirror of the mis-scaled-Laplace canary). *)

let local_rr_eps = 1.2

let local_rr_k = 12

let local_cluster_chi2 ~stream cfg =
  let cell = 5 in
  let observed, n =
    count_categories cfg ~stream ~total:cfg.trials ~k:local_rr_k (fun r ->
        Privcluster.Local_cluster.randomize r ~eps:local_rr_eps ~k:local_rr_k cell)
  in
  chi2_result cfg ~name:"local_cluster/chi2"
    ~expected:(Dist.local_randomizer_law ~eps:local_rr_eps ~k:local_rr_k ~cell)
    ~observed ~n

(* Neighbouring local views are just two different true cells. *)
let local_cluster_dp ~stream cfg =
  dp_check ~name:"local_cluster/dp" ~claimed:(Prim.Dp.pure ~eps:local_rr_eps)
    ~events:(Distinguisher.categories ~k:local_rr_k)
    ~left:(fun r -> Privcluster.Local_cluster.randomize r ~eps:local_rr_eps ~k:local_rr_k 2)
    ~right:(fun r -> Privcluster.Local_cluster.randomize r ~eps:local_rr_eps ~k:local_rr_k 9)
    ~cost:1 ~stream cfg

let local_cluster_negative ~stream cfg =
  let actual = 2. *. local_rr_eps in
  let events = Distinguisher.categories ~k:local_rr_k in
  let names = List.map fst events in
  let preds = Array.of_list (List.map snd events) in
  let left, right =
    dp_counts cfg ~stream ~events:preds
      ~left:(fun r -> Privcluster.Local_cluster.randomize r ~eps:actual ~k:local_rr_k 2)
      ~right:(fun r -> Privcluster.Local_cluster.randomize r ~eps:actual ~k:local_rr_k 9)
      (scaled cfg ~cost:1)
  in
  let v =
    Distinguisher.verdict ~claimed:(Prim.Dp.pure ~eps:local_rr_eps) ~slack:cfg.slack
      ~alpha:cfg.alpha ~events:names ~left ~right ()
  in
  (* Negative control: this check PASSES exactly when the distinguisher
     flags the planted violation. *)
  {
    name = "local_cluster/negative";
    kind = "distinguisher";
    status = (if v.Distinguisher.violation then Pass else Violation);
    detail =
      Format.asprintf "negative control (leaks 2ε, claims ε) — %s: %a"
        (if v.Distinguisher.violation then "caught" else "MISSED")
        Distinguisher.pp_verdict v;
    json =
      Obs.Json.Obj
        [ ("negative_control", Obs.Json.Bool true); ("verdict", verdict_json v) ];
  }

let certifier_result ~name (spec : Certifier.spec) (o : Certifier.outcome) =
  let ci = o.Certifier.failure_ci in
  {
    name;
    kind = "utility";
    status = (if o.Certifier.violation then Violation else Pass);
    detail =
      Printf.sprintf
        "failures %d/%d (CI [%.3f, %.3f]) vs beta %g; solver %d, coverage %d, radius %d; median w %.2f"
        o.Certifier.failures spec.Certifier.runs ci.Stats.lo ci.Stats.hi spec.Certifier.beta
        o.Certifier.solver_failures o.Certifier.coverage_failures o.Certifier.radius_failures
        o.Certifier.median_w;
    json =
      Obs.Json.Obj
        [
          ("runs", Obs.Json.Int spec.Certifier.runs);
          ("beta", Obs.Json.Float spec.Certifier.beta);
          ("w_max", Obs.Json.Float spec.Certifier.w_max);
          ("failures", Obs.Json.Int o.Certifier.failures);
          ("solver_failures", Obs.Json.Int o.Certifier.solver_failures);
          ("coverage_failures", Obs.Json.Int o.Certifier.coverage_failures);
          ("radius_failures", Obs.Json.Int o.Certifier.radius_failures);
          ("failure_rate", Obs.Json.Float o.Certifier.failure_rate);
          ("failure_ci", interval_json ci);
          ("median_w", Obs.Json.Float o.Certifier.median_w);
          ("median_coverage_margin", Obs.Json.Float o.Certifier.median_coverage_margin);
          ("violation", Obs.Json.Bool o.Certifier.violation);
        ];
  }

let one_cluster_utility ~stream cfg =
  let spec =
    { Certifier.default_spec with Certifier.runs = (if cfg.deep then 400 else 150) }
  in
  certifier_result ~name:"one_cluster/utility" spec
    (Certifier.one_cluster (base_rng cfg ~stream) ~alpha:cfg.alpha ~domains:cfg.domains
       Privcluster.Profile.practical spec)

let local_cluster_utility ~stream cfg =
  let spec =
    {
      Certifier.local_default_spec with
      Certifier.runs = (if cfg.deep then 200 else 80);
    }
  in
  certifier_result ~name:"local_cluster/utility" spec
    (Certifier.local_cluster (base_rng cfg ~stream) ~alpha:cfg.alpha ~domains:cfg.domains spec)

(* The coreset MEB pipeline end to end on neighbouring small datasets:
   the observable is the released radius (NaN on ⊥). *)
let meb_fptas_dp ~stream cfg =
  let eps = 1.0 and delta = 1e-6 and t = 60 in
  let grid, left, right = neighbour_workload cfg ~axis:64 ~n:150 ~radius:0.08 in
  let obs points r =
    match
      Baselines.Meb_fptas.run r ~grid ~eps ~delta ~coreset:40
        ~t (Geometry.Pointset.create points)
    with
    | Ok res -> res.Baselines.Meb_fptas.radius
    | Error _ -> Float.nan
  in
  dp_check ~name:"meb_fptas/dp"
    ~claimed:(Prim.Dp.v ~eps ~delta)
    ~events:
      (("failed", fun x -> Float.is_nan x)
      :: Distinguisher.thresholds ~lo:0.02 ~hi:0.6 ~count:11)
    ~left:(obs left) ~right:(obs right) ~cost:10 ~stream cfg

let meb_fptas_utility ~stream cfg =
  let spec =
    { Certifier.meb_default_spec with Certifier.runs = (if cfg.deep then 400 else 150) }
  in
  certifier_result ~name:"meb_fptas/utility" spec
    (Certifier.meb_fptas (base_rng cfg ~stream) ~alpha:cfg.alpha ~domains:cfg.domains spec)

(* ------------------------------------------------------------------ *)
(* Registry.  Stream ids come from registry position (spaced out so a
   check can sub-derive freely) and are stable under [?only] filtering. *)

let registry : (string * (stream:int -> config -> result)) list =
  [
    ("laplace/ks", laplace_ks);
    ("laplace/ad", laplace_ad);
    ("gaussian/ks", gaussian_ks);
    ("gaussian/ad", gaussian_ad);
    ("exp_mech/chi2", exp_mech_chi2);
    ("stability_hist/chi2", stability_hist_chi2);
    ("laplace/dp", laplace_dp);
    ("gaussian/dp", gaussian_dp);
    ("exp_mech/dp", exp_mech_dp);
    ("noisy_max/dp", noisy_max_dp);
    ("sparse_vector/dp", sparse_vector_dp);
    ("stability_hist/dp", stability_hist_dp);
    ("noisy_avg/dp", noisy_avg_dp);
    ("good_radius/dp", good_radius_dp);
    ("one_cluster/dp", one_cluster_dp);
    ("engine_fallback/dp", engine_fallback_dp);
    ("one_cluster/utility", one_cluster_utility);
    ("local_cluster/chi2", local_cluster_chi2);
    ("local_cluster/dp", local_cluster_dp);
    ("local_cluster/negative", local_cluster_negative);
    ("local_cluster/utility", local_cluster_utility);
    ("meb_fptas/dp", meb_fptas_dp);
    ("meb_fptas/utility", meb_fptas_utility);
  ]

let names () = List.map fst registry

let group_of name =
  match String.index_opt name '/' with Some i -> String.sub name 0 i | None -> name

let grouped_names () =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun name ->
      let g = group_of name in
      match Hashtbl.find_opt seen g with
      | Some members -> members := name :: !members
      | None ->
          Hashtbl.add seen g (ref [ name ]);
          order := g :: !order)
    (names ());
  List.rev_map (fun g -> (g, List.rev !(Hashtbl.find seen g))) !order

let exit_status ~matched ~violations =
  if not matched then 2 else if violations > 0 then 1 else 0

let selected only name =
  match only with
  | None -> true
  | Some picks ->
      List.exists
        (fun pick -> pick = name || String.length pick > 0 && String.starts_with ~prefix:(pick ^ "/") name)
        picks

let run ?only cfg =
  List.filteri (fun _ _ -> true) registry
  |> List.mapi (fun i (name, f) -> (i, name, f))
  |> List.filter_map (fun (i, name, f) ->
         if selected only name then Some (f ~stream:(100 + (50 * i)) cfg) else None)

let report_json cfg results =
  let passes = List.length (List.filter (fun r -> r.status = Pass) results) in
  let violations = List.length (List.filter (fun r -> r.status = Violation) results) in
  Obs.Json.Obj
    [
      ( "config",
        Obs.Json.Obj
          [
            ("seed", Obs.Json.Int cfg.seed);
            ("trials", Obs.Json.Int cfg.trials);
            ("deep", Obs.Json.Bool cfg.deep);
            ("significance", Obs.Json.Float cfg.significance);
            ("alpha", Obs.Json.Float cfg.alpha);
            ("slack", Obs.Json.Float cfg.slack);
            ("domains", Obs.Json.Int cfg.domains);
          ] );
      ( "checks",
        Obs.Json.List
          (List.map
             (fun r ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String r.name);
                   ("kind", Obs.Json.String r.kind);
                   ( "status",
                     Obs.Json.String
                       (match r.status with Pass -> "pass" | Violation -> "violation") );
                   ("detail", Obs.Json.String r.detail);
                   ("data", r.json);
                 ])
             results) );
      ( "summary",
        Obs.Json.Obj
          [
            ("checks", Obs.Json.Int (List.length results));
            ("passes", Obs.Json.Int passes);
            ("violations", Obs.Json.Int violations);
          ] );
    ]

module For_testing = struct
  let names = names
end
