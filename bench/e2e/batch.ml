(* batch-tree: the in-process Engine.Service batch path that the [batch]
   CLI and the library use, on a dataset large enough for the k-d tree
   index, with two worker domains and no wire or WAL. *)

open Common

(* Six paper queries at three targets and two budgets, and one job of
   each other kind the engine serves cheaply: a quantile and the two
   certified competitors (Nissim-Stemmer 2017 local model, Mahpud-Sheffet
   2022 MEB fPTAS).  k_cluster is left out: one call costs seconds and
   would set the time of every batch. *)
let jobs =
  {|one_cluster t_fraction=0.3 eps=1 delta=1e-7
one_cluster t_fraction=0.4 eps=1 delta=1e-7
one_cluster t_fraction=0.5 eps=1 delta=1e-7
one_cluster t_fraction=0.3 eps=2 delta=1e-7
one_cluster t_fraction=0.4 eps=2 delta=1e-7
one_cluster t_fraction=0.5 eps=2 delta=1e-7
quantile q=0.5 axis=0 eps=1
local_cluster t_fraction=0.5 eps=2
meb_fptas t_fraction=0.5 eps=1 delta=1e-7
|}

let specs = Result.get_ok (Engine.Job.parse ~default_beta:Workload.Harness.default_beta jobs)
let taus = [| 0.3; 0.4; 0.5 |]

let completed (r : Engine.Job.result) =
  match r.Engine.Job.status with Engine.Job.Completed _ -> true | _ -> false

let render rs =
  List.map
    (fun r -> Json.to_string ~indent:false (strip [ "latency_ms" ] (Engine.Job.result_to_json r)))
    rs

type batch = { start : int64; wall_ms : float; results : Engine.Job.result list }

let batch_tree o ctx =
  (* The registry picks the k-d tree above 4096 points; the smoke run's
     smaller dataset gets the dense index. *)
  let n = if ctx.smoke then 2500 else 4200 in
  let base = seed_base ctx in
  let pts = points ~n ~seed:(synth_seed ctx) in
  let run ?domains svc ds ~seed =
    Engine.Service.run_batch ?domains svc ~dataset:ds ~seed specs
  in
  let setup _ =
    Gc.full_major ();
    time_s (fun () ->
        let svc = service () in
        let ds = Engine.Service.register svc ~name:"d" ~grid ~budget pts in
        if not (List.for_all completed (run svc ds ~seed:(base + 900_000))) then
          fail "warm-up batch failed";
        (svc, ds))
  in
  let svc, ds = repeated_setup o ctx ~setup ~teardown:ignore in
  (* Batch [b] of a phase runs with seed [base + from + b]: every batch
     misses the result cache. *)
  let measure ~from ~batches =
    List.init batches (fun b ->
        let start = now () in
        let results, wall_ms = time_ms (fun () -> run svc ds ~seed:(base + from + b)) in
        { start; wall_ms; results })
  in
  (* One sample per job, ordered by batch and then by submission. *)
  let job_samples batches =
    Array.of_list
      (List.concat_map
         (fun bt ->
           List.mapi
             (fun k (r : Engine.Job.result) ->
               (Int64.add bt.start (Int64.of_int k), r.Engine.Job.latency_ms))
             bt.results)
         batches)
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let batches = measure ~from:0 ~batches:(count ctx ~full:20 ~smoke:2) in
  let wall_s = since_ms t0 /. 1e3 in
  let gc1 = Gc.quick_stat () in
  let samples = job_samples batches in
  latency o samples ~requests:(Array.length samples) ~wall_s;
  set o "peak_rss_mb" (Proc.peak_rss_mb ());
  let jobs = Array.length samples and nb = List.length batches in
  let results = List.concat_map (fun bt -> bt.results) batches in
  o.attempted <- o.attempted + jobs;
  let failures = List.filter (fun r -> not (completed r)) results in
  o.failed <- o.failed + List.length failures;
  (match failures with
  | r :: _ -> info o "first_failure" (Json.String (Engine.Job.detail r))
  | [] -> ());
  info o "batches" (Json.Int nb);
  (* The pool: the share of two domains' time the jobs used, and the part
     of each batch's wall time its longest job does not cover. *)
  let longest bt =
    List.fold_left
      (fun a (r : Engine.Job.result) -> Float.max a r.Engine.Job.latency_ms)
      0. bt.results
  in
  let walls = Array.of_list (List.map (fun bt -> bt.wall_ms) batches) in
  set o "pool.efficiency" (sum (Array.map snd samples) /. (2. *. sum walls));
  set o "pool.straggler_ms"
    (median (Array.of_list (List.map (fun bt -> bt.wall_ms -. longest bt) batches)));
  set o "gc.minor_words_per_job"
    ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 jobs));
  set o "gc.major_collections_per_batch"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. float_of_int (max 1 nb));
  let hits, misses = Engine.Result_cache.stats (Engine.Service.result_cache svc) ~dataset:"d" in
  set o "result_cache.hit_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  set o "accountant.charges_end"
    (float_of_int (List.length (Engine.Accountant.entries (Engine.Registry.accountant ds))));
  let dense = Geometry.Pointset.index_is_dense (Engine.Registry.index ds) in
  info o "index_backend" (Json.String (if dense then "dense" else "kdtree"));
  (* The first measured batch again at one domain, on a fresh service so
     the result cache cannot answer it: the engine's output must not
     depend on the domain count. *)
  (match batches with
  | [] -> check o "at least one measured batch" false "no batch completed"
  | first :: _ ->
      let again = run ~domains:1 (service ~domains:1 ()) ds ~seed:base in
      check o "first batch identical at 1 domain" (render again = render first.results)
        "results differ between 2 domains and 1");
  if ctx.trace then begin
    registry_timings o (service ()) ~name:"timing" pts ~taus
      ~step:(if ctx.smoke then 30 else 150) ~seed:(synth_seed ctx);
    Obs.Span.reset ();
    Obs.Span.set_enabled true;
    let traced = measure ~from:500_000 ~batches:(count ctx ~full:2 ~smoke:1) in
    let spans = Spans.of_obs (Obs.Span.spans ()) in
    Obs.Span.set_enabled false;
    Obs.Span.reset ();
    let ts = job_samples traced in
    (* Two worker domains: the wall time available to spans is twice the
       batch time. *)
    fold_trace o ~spans ~requests:(Array.length ts)
      ~wall_ms:(2. *. List.fold_left (fun a bt -> a +. bt.wall_ms) 0. traced);
    let p50 s = median (Array.map snd s) in
    let first = Array.sub samples 0 (min (Array.length ts) (Array.length samples)) in
    set o "trace.overhead_pct" (100. *. ((p50 ts /. p50 first) -. 1.))
  end
