(* Benchmark harness: runs the experiment suite (E1–E14, one per table /
   figure / theorem claim — see EXPERIMENTS.md) followed by the Bechamel
   timing benches (B1–B7, one per pipeline stage, plus B9 for the
   statistical-check estimators), the engine throughput bench (B8, gated:
   outputs identical across domain counts and under injected faults), the
   one-cluster allocation check, the disabled-tracing overhead gate
   (B10), the daemon round-trip overhead bench (B11), the
   mutate-then-requery epoch/result-cache bench (B12, gated: cache hits
   must charge zero), the native-kernel gates (B13: C fast paths
   bit-identical to the pure-OCaml references, the tree index's counts
   and k-th neighbour distances identical across the two tiers, and a
   kernel speedup floor), the
   competitor e2e bench (B14: centralized one-cluster vs the LDP protocol
   vs the private MEB fPTAS, gated: the LDP path stays within its
   documented overhead envelope of the centralized call), and the
   serving-telemetry overhead bench (B15, gated: at most 2% of the daemon
   batch round-trip).

   Every bench after the Bechamel stage has one shape: a [bench] whose
   [run] returns a [section] — its key in the --json document, its
   fields, and its named gates.  One driver runs the same list under
   --smoke and the full run, and exits 1 naming the first false gate.

   Usage:
     dune exec bench/main.exe                 # full suite
     dune exec bench/main.exe -- --quick      # reduced trials/sweeps
     dune exec bench/main.exe -- --only E1,E4 # subset
     dune exec bench/main.exe -- --jobs 4     # experiments on 4 engine-pool domains
     dune exec bench/main.exe -- --no-timing  # experiments only
     dune exec bench/main.exe -- --timing-only
     dune exec bench/main.exe -- --json out.json   # machine-readable bench results
     dune exec bench/main.exe -- --fix-n 10000 --fix-d 32  # timing fixture size
     dune exec bench/main.exe -- --smoke      # one tiny call per bench (CI) *)

open Bechamel

let delta = Workload.Harness.default_delta
let beta = Workload.Harness.default_beta

(* A fixed midsize workload shared by all timing benches so their costs are
   comparable.  [n]/[dim] are adjustable from the command line to track the
   perf trajectory at larger scales. *)
type fixture = {
  rng : Prim.Rng.t;
  grid : Geometry.Grid.t;
  points : Geometry.Vec.t array;
  ps : Geometry.Pointset.t;
  idx : Geometry.Pointset.index;
  t : int;
  radius : float;
}

let fixture ?(n = 1500) ?(dim = 2) () =
  let rng = Prim.Rng.create ~seed:99 () in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim in
  let w =
    Workload.Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.5 ~cluster_radius:0.05
  in
  let ps = Geometry.Pointset.create w.Workload.Synth.points in
  let idx = Geometry.Pointset.build_index ps in
  { rng; grid; points = w.Workload.Synth.points; ps; idx; t = 2 * n / 5; radius = 0.1 }

(* The size tier a bench runs at.  [smoke] shrinks the loops that CI only
   needs to run once; [quick] is --quick (and set under --smoke);
   [sweep_max] is the widest domain count in B8's sweep; [domains] is the
   worker-domain count of the services B11, B12 and B15 start. *)
type tier = { smoke : bool; quick : bool; sweep_max : int; domains : int }

(* What a bench returns: its key in the --json document, its fields, and
   its named gates, each true when the bench's claim holds. *)
type section = {
  key : string;
  fields : (string * Obs.Json.t) list;
  gates : (string * bool) list;
}

type bench = { id : string; headline : string; run : tier -> fixture -> section }

(* Setup errors — a daemon that does not start, a malformed reply — are
   not gates: the bench cannot measure anything. *)
let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let yes_no ok = if ok then "yes" else "NO"

(* Interleaved best-of timing: one warm-up call per arm, then [rounds]
   rounds that each time every arm once, in order; each arm's time is its
   fastest round, in ms.  Interleaving spreads machine drift over all
   arms alike. *)
let best_of ~rounds arms =
  Array.iter (fun arm -> arm ()) arms;
  let best = Array.make (Array.length arms) infinity in
  for _ = 1 to rounds do
    Array.iteri
      (fun i arm -> best.(i) <- Float.min best.(i) (snd (Workload.Harness.time arm)))
      arms
  done;
  best

(* The job bag B8, B11, B12 and B15 run: [n_jobs] identical one-cluster
   jobs. *)
let one_cluster_specs ~n_jobs ~eps =
  List.init n_jobs (fun i ->
      {
        Engine.Job.id = Printf.sprintf "j%d" (i + 1);
        kind = Engine.Job.One_cluster { t_fraction = 0.4 };
        eps;
        delta = 1e-7;
        beta;
        deadline_s = None;
        fallback = false;
      })

(* A result's status name and, for a completed job, its exact output
   (floats in hex) — what the bit-for-bit comparisons of two runs
   compare. *)
let fingerprint (r : Engine.Job.result) =
  let output =
    match r.Engine.Job.status with
    | Engine.Job.Completed o -> Some (Engine.Job.output_to_wire o)
    | _ -> None
  in
  (Engine.Job.status_name r.Engine.Job.status, output)

(* The services of B11, B12 and B15 share one seed and solve the points a
   daemon generates for a registered dataset (seed + 7919, the daemon's
   convention), so in-process and daemon paths see the same data. *)
let service_seed = 99

let service_points ~grid ~n =
  (Workload.Synth.planted_ball
     (Prim.Rng.create ~seed:(service_seed + 7919) ())
     ~grid ~n ~cluster_fraction:0.5 ~cluster_radius:0.05)
    .Workload.Synth.points

(* A resident privclusterd on a unix socket in a fresh temp dir, with a
   client connected, the [service_points] dataset registered as "bench",
   and the jobs text of the batch it runs. *)
type daemon_arm = {
  dir : string;
  daemon : Server.Daemon.t;
  client : Server.Client.t;
  jobs : string;
}

let rpc what = function
  | Ok v -> v
  | Error f -> die "privclusterd %s: %s" what (Server.Client.fail_message f)

let start_daemon ~domains ~n ~budget ~specs ~sync ~sample =
  let dir = Filename.temp_file "privcluster_bench" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cfg =
    {
      Server.Daemon.default_config with
      listen = `Unix (Filename.concat dir "b.sock");
      wal_path = Filename.concat dir "b.wal";
      tenants = [ { Server.Tenants.name = "bench"; token = "bench"; max_in_flight = 8 } ];
      capacity = 64;
      domains;
      retries = 0;
      seed = service_seed;
      sync;
      trace_sample = (if sample then 1 else 0);
      slow_log = (if sample then Some (Filename.concat dir "slow") else None);
      slow_keep = 8;
    }
  in
  let daemon =
    match Server.Daemon.start cfg with Ok d -> d | Error e -> die "privclusterd start: %s" e
  in
  let client =
    rpc "connect" (Server.Client.connect cfg.Server.Daemon.listen ~tenant:"bench" ~token:"bench")
  in
  ignore
    (rpc "register"
       (Server.Client.register client ~dataset:"bench" ~n ~dim:2 ~axis:256 ~frac:0.5
          ~radius:0.05 ~seed:service_seed ~budget ()));
  let jobs = String.concat "\n" (List.map Engine.Job.spec_to_line specs) ^ "\n" in
  { dir; daemon; client; jobs }

let run_on arm = rpc "run" (Server.Client.run arm.client ~dataset:"bench" ~jobs:arm.jobs ())

let stop_daemon arm =
  Server.Client.close arm.client;
  Server.Daemon.stop arm.daemon;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error (_, _, _) -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  rm arm.dir

(* The status of every result in a daemon [run] reply. *)
let statuses payload =
  match Option.bind (Obs.Json.member "results" payload) Obs.Json.to_list with
  | None -> die "privclusterd run reply has no results"
  | Some rs ->
      List.map
        (fun r ->
          Option.value ~default:"?" (Option.bind (Obs.Json.member "status" r) Obs.Json.to_str))
        rs

(* Each stage bench as a plain thunk so the smoke path can execute every
   bench exactly once without the Bechamel measurement machinery.

   B1 and B7 time the cold candidate sweep: each call runs on a
   [cold_copy] of the fixture index (same backend, empty count-matrix
   memo), so the rows stay comparable with captures taken before the memo
   existed.  B1w times GoodRadius on one index whose memo is warm after
   the first call — what every job after an epoch's first pays. *)
let stage_thunks fx : (string * (unit -> unit)) list =
  let profile = Privcluster.Profile.practical in
  let warm_idx = Geometry.Pointset.cold_copy fx.idx in
  let d = Geometry.Pointset.dim fx.ps in
  let b3 =
    let q =
      Recconcave.Quality.of_array
        (Array.init 1000 (fun i -> -.Float.abs (float_of_int (i - 700))))
    in
    fun () -> ignore (Recconcave.Rec_concave.solve fx.rng ~eps:1.0 q)
  in
  let b4 =
    let jl = Geometry.Jl.make fx.rng ~input_dim:64 ~output_dim:16 in
    let high =
      Geometry.Pointset.of_storage ~dim:64
        (Prim.Rng.gaussian_vector fx.rng ~dim:(Geometry.Pointset.n fx.ps * 64) ~sigma:1.0)
    in
    fun () -> ignore (Geometry.Jl.project jl high)
  in
  let b5 =
    let boxing = Geometry.Boxing.make fx.rng ~dim:d ~len:(4. *. fx.radius) in
    fun () ->
      ignore
        (Prim.Stability_hist.select fx.rng ~eps:0.5 ~delta:1e-6
           (Geometry.Boxing.occupancy boxing fx.ps))
  in
  let b6 =
    let st = Geometry.Pointset.storage fx.ps in
    let offs = Geometry.Pointset.row_offsets fx.ps in
    fun () ->
      ignore
        (Prim.Noisy_avg.run_rows fx.rng ~eps:0.5 ~delta:1e-6 ~diameter:1.0
           ~pred:(fun i -> st.(offs.(i)) < 0.5)
           ~dim:d ~offs st)
  in
  [
    ( "B1 good-radius",
      fun () ->
        ignore
          (Privcluster.Good_radius.run fx.rng profile ~grid:fx.grid ~eps:2.0 ~delta ~beta
             ~t:fx.t (Geometry.Pointset.cold_copy fx.idx)) );
    ( "B1w good-radius warm memo",
      fun () ->
        ignore
          (Privcluster.Good_radius.run fx.rng profile ~grid:fx.grid ~eps:2.0 ~delta ~beta
             ~t:fx.t warm_idx) );
    ( "B2 good-center",
      fun () ->
        ignore
          (Privcluster.Good_center.run_ps fx.rng profile ~eps:2.0 ~delta ~beta ~t:fx.t
             ~radius:fx.radius fx.ps) );
    ("B3 rec-concave(1k)", b3);
    ("B4 jl-project", b4);
    ("B5 stability-hist", b5);
    ("B6 noisy-avg", b6);
    ( "B7 one-cluster e2e",
      fun () ->
        ignore
          (Privcluster.One_cluster.run_indexed fx.rng profile ~grid:fx.grid ~eps:2.0 ~delta
             ~beta ~t:fx.t (Geometry.Pointset.cold_copy fx.idx)) );
    ( "B14 local-cluster e2e",
      fun () ->
        ignore (Privcluster.Local_cluster.run fx.rng ~grid:fx.grid ~eps:2.0 ~beta ~t:fx.t fx.ps) );
    ( "B14 meb-fptas e2e",
      fun () ->
        ignore (Baselines.Meb_fptas.run fx.rng ~grid:fx.grid ~eps:2.0 ~delta ~t:fx.t fx.ps) );
    ( "B9 check-estimators",
      let cdf x = Prim.Laplace.cdf ~eps:0.7 ~sensitivity:1.0 x in
      let samples =
        Array.init 4096 (fun _ -> Prim.Laplace.noise fx.rng ~eps:0.7 ~sensitivity:1.0)
      in
      fun () ->
        ignore (Check.Stats.ks_test ~cdf samples);
        ignore (Check.Stats.ad_test ~cdf samples);
        ignore (Check.Stats.clopper_pearson ~alpha:0.05 ~k:37 ~n:4096) );
  ]

(* The stage benches: under --smoke each thunk runs once; otherwise
   Bechamel times each one.  Returns the --json [timing] rows. *)
let run_timing tier fx =
  if tier.smoke then begin
    Workload.Report.headline "smoke - one tiny call per bench stage";
    List.iter
      (fun (name, thunk) ->
        let _, ms = Workload.Harness.time thunk in
        Workload.Report.kv name (Printf.sprintf "ok (%.1f ms)" ms))
      (stage_thunks fx);
    []
  end
  else begin
    Workload.Report.headline "B1-B7 - Bechamel timing benches (per-call wall clock)";
    let quota = if tier.quick then 0.5 else 2.0 in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instance = Toolkit.Instance.monotonic_clock in
    let tests =
      List.map (fun (name, thunk) -> Test.make ~name (Staged.stage thunk)) (stage_thunks fx)
    in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"privcluster" tests) in
    let results = Analyze.all ols instance raw in
    let rows = ref [] in
    Hashtbl.iter
      (fun name ols ->
        let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan in
        let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan in
        rows := (name, ns, r2) :: !rows)
      results;
    let rows = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows in
    Workload.Report.table
      ~header:[ "bench"; "time/call"; "r^2" ]
      (List.map
         (fun (name, ns, r2) ->
           let human =
             if Float.is_nan ns then "-"
             else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
             else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
             else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
             else Printf.sprintf "%.0f ns" ns
           in
           [ name; human; Workload.Report.f3 r2 ])
         rows);
    List.map
      (fun (name, ns, r2) ->
        Obs.Json.Obj
          [ ("name", Obs.Json.String name); ("ns_per_call", Float ns); ("r_square", Float r2) ])
      rows
  end

(* The experiment suite goes through the engine pool — the same worker-domain
   code path the CLI's batch subcommand uses — with each experiment's report
   output captured per domain and printed in suite order, so `--jobs 4`
   output diffs clean against `--jobs 1`. *)
let run_experiments ~jobs cfg selected =
  if jobs <= 1 then List.iter (Workload.Experiments.run_one cfg) selected
  else begin
    let tasks = Array.of_list (List.map Engine.Pool.task selected) in
    let outcomes =
      Engine.Pool.run ~domains:jobs
        ~f:(fun ~index:_ ~attempt:_ exp ->
          snd (Workload.Report.capture (fun () -> Workload.Experiments.run_one cfg exp)))
        tasks
    in
    Array.iteri
      (fun i outcome ->
        match outcome with
        | Engine.Pool.Done out -> print_string out
        | Engine.Pool.Failed msg ->
            let id, _, _ = tasks.(i).Engine.Pool.payload in
            Printf.printf "\n%s FAILED: %s\n" id msg
        | Engine.Pool.Timed_out _ -> ())
      outcomes;
    flush stdout
  end

(* B8 — throughput of the batch engine itself: a bag of identical 1-cluster
   jobs on the shared fixture, swept over worker-domain counts.  Also gates
   the engine's determinism claim: every domain count must produce the
   same statuses and bit-identical outputs (per-job RNG streams are
   derived from the submission index).  Only [run_batch] is timed, not
   service creation or registration (the index build), but each fresh
   service's batch pays its first count-matrix fill.
   A second, ungated bag of long k_cluster jobs reports what a second
   domain buys once jobs outlast a domain spawn. *)
let run_engine_bench tier fx =
  Workload.Report.kv "hardware threads" (string_of_int (Domain.recommended_domain_count ()));
  let n_jobs = if tier.quick then 6 else 12 in
  let specs = one_cluster_specs ~n_jobs ~eps:0.5 in
  let domain_counts =
    List.sort_uniq compare (1 :: 2 :: 4 :: (if tier.sweep_max > 1 then [ tier.sweep_max ] else []))
  in
  let run_once ~domains ~faults ~retries =
    let service = Engine.Service.create ~domains ~seed:99 ~retries ~faults () in
    let dataset =
      Engine.Service.register service ~name:"bench" ~grid:fx.grid
        ~budget:(Prim.Dp.v ~eps:(float_of_int n_jobs) ~delta:1e-3)
        fx.points
    in
    let results, ms =
      Workload.Harness.time (fun () -> Engine.Service.run_batch service ~dataset specs)
    in
    (List.map fingerprint results, ms)
  in
  let runs =
    List.map
      (fun domains -> (domains, run_once ~domains ~faults:Engine.Faults.none ~retries:0))
      domain_counts
  in
  let reference, base_ms = snd (List.hd runs) in
  let deterministic = List.for_all (fun (_, (prints, _)) -> prints = reference) runs in
  (* The robustness half of the determinism claim: crash-before-output faults
     on half the jobs, retried in place, must leave every output
     bit-identical to the fault-free reference. *)
  let faulted_identical =
    let faults =
      Engine.Faults.explicit
        (List.init (n_jobs / 2) (fun i -> (i, Engine.Faults.rule Engine.Faults.Crash)))
    in
    let domains = List.nth domain_counts (List.length domain_counts - 1) in
    fst (run_once ~domains ~faults ~retries:3) = reference
  in
  (* Long jobs: a bag of k_cluster jobs on n = 4200 points (batch-tree's
     size; at the smoke fixture's size a job is shorter than a domain
     spawn), one warm service per domain count, each round under a fresh
     seed so no job is a result-cache hit.  The speedup of 2 domains over
     1 is reported, not gated: a shared 2-thread host cannot promise it. *)
  let long_jobs = 4 and long_n = 4200 in
  let long_points = service_points ~grid:fx.grid ~n:long_n in
  let long_specs =
    List.init long_jobs (fun i ->
        {
          Engine.Job.id = Printf.sprintf "k%d" (i + 1);
          kind = Engine.Job.K_cluster { k = 3; t_fraction = 0.2 };
          eps = 0.5;
          delta = 1e-7;
          beta;
          deadline_s = None;
          fallback = false;
        })
  in
  let long_arm domains =
    let service = Engine.Service.create ~domains ~seed:99 ~retries:0 ~faults:Engine.Faults.none () in
    let dataset =
      Engine.Service.register service ~name:"bench-long" ~grid:fx.grid
        ~budget:(Prim.Dp.v ~eps:1e9 ~delta:0.5)
        long_points
    in
    let seed = ref 0 in
    fun () ->
      incr seed;
      ignore (Engine.Service.run_batch ~seed:!seed service ~dataset long_specs)
  in
  let long_ms = best_of ~rounds:(if tier.smoke then 2 else 10) [| long_arm 1; long_arm 2 |] in
  let long_speedup = long_ms.(0) /. long_ms.(1) in
  (* The first mixed batch: batch-tree's nine jobs on a fresh service at
     n = 4200, so the first one_cluster job builds the epoch's sweep while
     the other domain runs the sweep-free jobs.  Only [run_batch] is
     timed; rounds alternate 1 and 2 domains.  Gated on output identity
     across the two; the speedup is reported, not gated. *)
  let mixed_specs =
    Result.get_ok
      (Engine.Job.parse ~default_beta:beta
         "one_cluster t_fraction=0.3 eps=1 delta=1e-7\n\
          one_cluster t_fraction=0.4 eps=1 delta=1e-7\n\
          one_cluster t_fraction=0.5 eps=1 delta=1e-7\n\
          one_cluster t_fraction=0.3 eps=2 delta=1e-7\n\
          one_cluster t_fraction=0.4 eps=2 delta=1e-7\n\
          one_cluster t_fraction=0.5 eps=2 delta=1e-7\n\
          quantile q=0.5 axis=0 eps=1\n\
          local_cluster t_fraction=0.5 eps=2\n\
          meb_fptas t_fraction=0.5 eps=1 delta=1e-7\n")
  in
  let first_mixed domains =
    let service = Engine.Service.create ~domains ~seed:99 ~retries:0 ~faults:Engine.Faults.none () in
    let dataset =
      Engine.Service.register service ~name:"bench-mixed" ~grid:fx.grid
        ~budget:(Prim.Dp.v ~eps:1e9 ~delta:0.5)
        long_points
    in
    let results, ms =
      Workload.Harness.time (fun () -> Engine.Service.run_batch service ~dataset mixed_specs)
    in
    (List.map fingerprint results, ms)
  in
  let mixed_best = [| infinity; infinity |] and mixed_prints = [| []; [] |] in
  let mixed_identical = ref true in
  for _ = 1 to if tier.smoke then 3 else 15 do
    Array.iteri
      (fun k domains ->
        let prints, ms = first_mixed domains in
        if mixed_prints.(k) = [] then mixed_prints.(k) <- prints
        else if prints <> mixed_prints.(k) then mixed_identical := false;
        mixed_best.(k) <- Float.min mixed_best.(k) ms)
      [| 1; 2 |]
  done;
  let mixed_identical = !mixed_identical && mixed_prints.(0) = mixed_prints.(1) in
  let mixed_speedup = mixed_best.(0) /. mixed_best.(1) in
  let jobs_per_s ms = 1000. *. float_of_int n_jobs /. ms in
  Workload.Report.table ~csv:"b8_engine_throughput"
    ~header:[ "domains"; "wall"; "jobs/s"; "speedup" ]
    (List.map
       (fun (domains, (_, ms)) ->
         [
           string_of_int domains;
           Printf.sprintf "%.0f ms" ms;
           Workload.Report.f2 (jobs_per_s ms);
           Workload.Report.f2 (base_ms /. ms);
         ])
       runs);
  Workload.Report.kv
    (Printf.sprintf "%d k_cluster jobs at n = %d, 1 / 2 domains" long_jobs long_n)
    (Printf.sprintf "%.1f / %.1f ms, speedup %.2f" long_ms.(0) long_ms.(1) long_speedup);
  Workload.Report.kv
    (Printf.sprintf "first mixed batch (%d jobs) at n = %d, 1 / 2 domains"
       (List.length mixed_specs) long_n)
    (Printf.sprintf "%.1f / %.1f ms, speedup %.2f" mixed_best.(0) mixed_best.(1) mixed_speedup);
  Workload.Report.kv "outputs identical across domain counts" (yes_no deterministic);
  Workload.Report.kv "first mixed batch identical at 1 and 2 domains" (yes_no mixed_identical);
  Workload.Report.kv "outputs identical under injected crash faults"
    (yes_no faulted_identical);
  {
    key = "engine";
    fields =
      [
        ("jobs", Int n_jobs);
        ("deterministic", Bool (deterministic && faulted_identical));
        ( "sweep",
          List
            (List.map
               (fun (domains, (_, ms)) ->
                 Obs.Json.Obj
                   [
                     ("domains", Int domains);
                     ("wall_ms", Float ms);
                     ("jobs_per_s", Float (jobs_per_s ms));
                   ])
               runs) );
        ( "long_jobs",
          Obj
            [
              ("jobs", Int long_jobs);
              ("n", Int long_n);
              ("one_domain_ms", Float long_ms.(0));
              ("two_domain_ms", Float long_ms.(1));
              ("speedup", Float long_speedup);
            ] );
        ( "first_mixed_batch",
          Obj
            [
              ("jobs", Int (List.length mixed_specs));
              ("n", Int long_n);
              ("one_domain_ms", Float mixed_best.(0));
              ("two_domain_ms", Float mixed_best.(1));
              ("speedup", Float mixed_speedup);
              ("identical", Bool mixed_identical);
            ] );
      ];
    gates =
      [
        ("outputs identical across domain counts", deterministic);
        ("first mixed batch identical at 1 and 2 domains", mixed_identical);
        ("outputs identical under injected crash faults", faulted_identical);
      ];
  }

(* B11 — daemon round-trip: the B8 job bag submitted to a resident
   privclusterd over a unix socket, versus the same batch run in-process
   on an identically-configured service.  The gap prices the wire
   protocol, admission queue, and per-charge WAL fsync together; the
   verdicts and the ledger must be identical — the daemon may add
   latency, never change answers or charges. *)
let run_daemon_bench tier _fx =
  let n_jobs = if tier.quick then 6 else 12 in
  let iters = if tier.quick then 2 else 5 in
  let n = if tier.quick then 300 else 1000 in
  let specs = one_cluster_specs ~n_jobs ~eps:0.5 in
  (* warm-up batch + iters measured batches, all charged to one ledger *)
  let budget = Prim.Dp.v ~eps:((0.5 *. float_of_int (n_jobs * (iters + 1))) +. 1.) ~delta:1e-3 in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let svc =
    Engine.Service.create ~domains:tier.domains ~seed:service_seed ~retries:0
      ~faults:Engine.Faults.none ()
  in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let ds = Engine.Service.register svc ~name:"bench" ~grid ~budget (service_points ~grid ~n) in
  let local_statuses = ref [] in
  let run_local () =
    let results, ms =
      Workload.Harness.time (fun () -> Engine.Service.run_batch svc ~dataset:ds specs)
    in
    if !local_statuses = [] then
      local_statuses := List.map (fun r -> fst (fingerprint r)) results;
    ms
  in
  ignore (run_local ());
  let local_ms = List.init iters (fun _ -> run_local ()) in
  (* daemon path: resident process state, unix socket, fsync'd WAL *)
  let arm =
    start_daemon ~domains:tier.domains ~n ~budget ~specs ~sync:true ~sample:false
  in
  let daemon_statuses = ref [] in
  let run_remote () =
    let payload, ms = Workload.Harness.time (fun () -> run_on arm) in
    if !daemon_statuses = [] then daemon_statuses := statuses payload;
    ms
  in
  ignore (run_remote ());
  let daemon_ms = List.init iters (fun _ -> run_remote ()) in
  stop_daemon arm;
  let lm = mean local_ms and dm = mean daemon_ms in
  let overhead_pct = (dm -. lm) /. lm *. 100. in
  let identical = !local_statuses = !daemon_statuses && !local_statuses <> [] in
  Workload.Report.table ~csv:"b11_daemon_roundtrip"
    ~header:[ "path"; "wall/batch"; "jobs/s" ]
    [
      [ "in-process"; Printf.sprintf "%.1f ms" lm; Workload.Report.f2 (1000. *. float_of_int n_jobs /. lm) ];
      [ "daemon"; Printf.sprintf "%.1f ms" dm; Workload.Report.f2 (1000. *. float_of_int n_jobs /. dm) ];
    ];
  Workload.Report.kv "round-trip overhead per batch"
    (Printf.sprintf "%.1f ms (%.1f%%)" (dm -. lm) overhead_pct);
  Workload.Report.kv "verdicts identical across paths" (yes_no identical);
  {
    key = "daemon_roundtrip";
    fields =
      [
        ("jobs", Int n_jobs);
        ("iters", Int iters);
        ("in_process_ms", Float lm);
        ("daemon_ms", Float dm);
        ("overhead_ms", Float (dm -. lm));
        ("overhead_pct", Float overhead_pct);
        ("verdicts_identical", Bool identical);
      ];
    gates = [ ("verdicts identical across paths", identical) ];
  }

(* B15 — serving-telemetry overhead: the B11 fixture against two
   resident daemons — the always-on telemetry (latency histograms, burn
   windows, shed counters), and telemetry plus [trace_sample = 1],
   head-sampling {e every} request's span tree into the exemplar ring.
   The gate: telemetry may cost at most 2% of the batch round-trip
   without it.  Exhaustive sampling is a diagnostic setting, not a
   default — its cost (one trace serialisation + file write per request)
   is measured and reported but not gated.  Both arms run
   [sync = false] so WAL fsync jitter does not drown the
   microsecond-scale signal, the arms are interleaved batch-for-batch to
   cancel machine drift, and each arm's time is its best iteration.

   The gate follows the B10 convention (deterministic in CI, not a coin
   flip): the telemetry record path is timed directly in a tight loop —
   one submit + queue-wait + request-latency + burn-window record cycle,
   everything a request adds — and the implied per-batch overhead is that
   cost over the batch round-trip without it (the telemetry arm's time
   less one record cycle). *)
let run_serving_bench tier _fx =
  let n_jobs = if tier.quick then 6 else 12 in
  let iters = if tier.quick then 3 else 7 in
  let n = if tier.quick then 300 else 1000 in
  let max_pct = 2.0 in
  let specs = one_cluster_specs ~n_jobs ~eps:0.5 in
  let budget = Prim.Dp.v ~eps:((0.5 *. float_of_int (n_jobs * (iters + 1))) +. 1.) ~delta:1e-3 in
  let start = start_daemon ~domains:tier.domains ~n ~budget ~specs ~sync:false in
  let arms = [| start ~sample:false; start ~sample:true |] in
  (* Each arm's warm-up batch records its verdicts. *)
  let verdicts = Array.make (Array.length arms) [] in
  let times =
    best_of ~rounds:iters
      (Array.mapi
         (fun i arm () ->
           let payload = run_on arm in
           if verdicts.(i) = [] then verdicts.(i) <- statuses payload)
         arms)
  in
  let on_ms = times.(0) and sampled_ms = times.(1) in
  (* prove the sampling arm really collected: the ring has exemplars *)
  let exemplars =
    let stats = rpc "stats" (Server.Client.stats arms.(1).client) in
    match Option.bind (Obs.Json.member "exemplars" stats) Obs.Json.to_int with
    | Some e -> e
    | None -> die "privclusterd stats reply has no exemplar count"
  in
  Array.iter stop_daemon arms;
  (* The gated number: one full record cycle — everything the daemon adds
     per wire request (clock reads included), timed in a tight loop.  The
     advancing [now_ns] walks the burn window across its 1 s coalescing
     interval so both the coalesce and the prune-and-append branches are
     priced. *)
  let record_ns =
    let sv = Server.Serving.create () in
    let reps = 100_000 in
    let cycles () =
      for i = 0 to reps - 1 do
        Server.Serving.record_submit sv;
        Server.Serving.record_queue_wait sv ~verb:"run"
          ~ns:(Int64.to_int (Int64.logand (Obs.Clock.now_ns ()) 0xFFFFFL));
        Server.Serving.record_request sv ~verb:"run" ~tenant:"bench"
          ~ns:(Int64.to_int (Int64.logand (Obs.Clock.now_ns ()) 0xFFFFFL));
        Server.Serving.record_burn sv ~tenant:"bench" ~dataset:"bench" ~budget_eps:10.
          ~spent_eps:(float_of_int i *. 1e-4)
          ~now_ns:(Int64.mul (Int64.of_int i) 1_000_000L)
      done
    in
    (best_of ~rounds:3 [| cycles |]).(0) *. 1e6 /. float_of_int reps
  in
  (* One record cycle per wire request; a batch is one request. *)
  let implied_pct = record_ns /. ((on_ms *. 1e6) -. record_ns) *. 100. in
  let sampled_pct = (sampled_ms -. on_ms) /. on_ms *. 100. in
  let identical = verdicts.(0) = verdicts.(1) && verdicts.(0) <> [] in
  Workload.Report.table ~csv:"b15_serving_overhead"
    ~header:[ "daemon"; "wall/batch"; "jobs/s" ]
    (List.map
       (fun (name, ms) ->
         [
           name;
           Printf.sprintf "%.1f ms" ms;
           Workload.Report.f2 (1000. *. float_of_int n_jobs /. ms);
         ])
       [ ("telemetry", on_ms); ("telemetry + sample every request", sampled_ms) ]);
  Workload.Report.kv "record path, one full cycle" (Printf.sprintf "%.0f ns" record_ns);
  Workload.Report.kv "implied overhead per batch (gated)"
    (Printf.sprintf "%.4f%% (max %.1f%%)" implied_pct max_pct);
  Workload.Report.kv "exhaustive sampling overhead (not gated)"
    (Printf.sprintf "%.2f ms (%.2f%%)" (sampled_ms -. on_ms) sampled_pct);
  Workload.Report.kv "exemplars written" (string_of_int exemplars);
  Workload.Report.kv "verdicts identical across arms" (yes_no identical);
  {
    key = "serving_overhead";
    fields =
      [
        ("jobs", Int n_jobs);
        ("iters", Int iters);
        ("telemetry_ms", Float on_ms);
        ("record_ns_per_request", Float record_ns);
        ("implied_overhead_pct", Float implied_pct);
        ("gate_pct", Float max_pct);
        ("sampled_ms", Float sampled_ms);
        ("sampled_overhead_pct", Float sampled_pct);
        ("exemplars_written", Int exemplars);
        ("verdicts_identical", Bool identical);
      ];
    gates =
      [
        ("trace_sample=1 wrote exemplars", exemplars > 0);
        ("verdicts identical across arms", identical);
        (Printf.sprintf "implied overhead <= %.1f%%" max_pct, implied_pct <= max_pct);
      ];
  }

(* B12 — mutate-then-requery: the epoch / result-cache path.  A cold
   1-cluster batch, the identical batch again (must be answered from the
   result cache: zero execution attempts, zero additional charge,
   bit-identical outputs — gated), then an append and the same batch once
   more (must recompute against the new epoch and pay again — also
   gated).  Prices what a cache hit saves and what an epoch transition
   costs. *)
let run_epoch_bench tier _fx =
  (* n is pinned: at this size every job completes on both epochs, so the
     bit-identical-outputs gate is meaningful (solver failures are honest
     DP outcomes, but they are not cached and would muddy the gate). *)
  let n = 1500 in
  let n_jobs = 4 in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let svc =
    Engine.Service.create ~domains:tier.domains ~seed:service_seed ~retries:0
      ~faults:Engine.Faults.none ()
  in
  let budget = Prim.Dp.v ~eps:((2.0 *. float_of_int (2 * n_jobs)) +. 1.) ~delta:1e-3 in
  let ds = Engine.Service.register svc ~name:"bench" ~grid ~budget (service_points ~grid ~n) in
  let specs = one_cluster_specs ~n_jobs ~eps:2.0 in
  let acct = Engine.Registry.accountant ds in
  let spent () = (Engine.Accountant.spent acct).Prim.Dp.eps in
  let run () = Workload.Harness.time (fun () -> Engine.Service.run_batch svc ~dataset:ds specs) in
  let cold, cold_ms = run () in
  let cold_spent = spent () in
  let warm, warm_ms = run () in
  let warm_spent = spent () in
  let mutate_specs =
    match Engine.Job.parse (Printf.sprintf "mutate op=append n=%d seed=5\n" (n / 5)) with
    | Ok s -> s
    | Error e -> die "B12: mutate parse: %s" e
  in
  let _, append_ms =
    Workload.Harness.time (fun () -> Engine.Service.run_batch svc ~dataset:ds mutate_specs)
  in
  let requery, requery_ms = run () in
  let requery_spent = spent () in
  (* The gates: a hit is free and exact; a new epoch is neither. *)
  let completed =
    List.for_all (fun r -> fst (fingerprint r) = "ok") (cold @ warm @ requery)
  in
  let hits_free =
    List.for_all (fun (r : Engine.Job.result) -> r.Engine.Job.attempts = 0) warm
    && warm_spent = cold_spent
    && List.map fingerprint warm = List.map fingerprint cold
  in
  let recomputed =
    List.for_all (fun (r : Engine.Job.result) -> r.Engine.Job.attempts >= 1) requery
    && requery_spent > warm_spent
    && Engine.Registry.epoch ds = 1
  in
  let speedup = cold_ms /. Float.max warm_ms 1e-6 in
  Workload.Report.table ~csv:"b12_epoch_requery"
    ~header:[ "phase"; "wall"; "spent eps after" ]
    [
      [ "cold batch"; Printf.sprintf "%.1f ms" cold_ms; Workload.Report.f2 cold_spent ];
      [ "cached re-run"; Printf.sprintf "%.2f ms" warm_ms; Workload.Report.f2 warm_spent ];
      [ "append (epoch 0 -> 1)"; Printf.sprintf "%.1f ms" append_ms; Workload.Report.f2 warm_spent ];
      [ "re-query on epoch 1"; Printf.sprintf "%.1f ms" requery_ms; Workload.Report.f2 requery_spent ];
    ];
  Workload.Report.kv "cache-hit speedup" (Printf.sprintf "%.0fx" speedup);
  Workload.Report.kv "cache hits charged zero" (yes_no hits_free);
  Workload.Report.kv "new epoch recomputed and paid" (yes_no recomputed);
  {
    key = "epoch_requery";
    fields =
      [
        ("jobs", Int n_jobs);
        ("cold_ms", Float cold_ms);
        ("cached_rerun_ms", Float warm_ms);
        ("append_ms", Float append_ms);
        ("requery_ms", Float requery_ms);
        ("cache_hit_speedup", Float speedup);
        ("cache_hits_charged_zero", Bool (hits_free && recomputed));
      ];
    gates =
      [
        ("every job completed", completed);
        ("cache hits charged zero", hits_free);
        ("new epoch recomputed and paid", recomputed);
      ];
  }

(* B13 — the kernel layer (lib/kernel).  Three gates: (a) the C fast
   paths must agree bit-for-bit with the pure-OCaml references they
   shadow, on the workload GoodRadius runs (the candidate sweep, which
   pairs the distinct points block by block through
   [Kernel.pair_hist_blocks] and stops at the first saturated radius),
   and on the JL projection.  Since a sweep at [~cap:t] may stop early,
   (a) also compares the full count matrix ([Pointset.fill_counts],
   every block pair within the last radius) and a sweep at [~cap:n],
   which saturates only once every point holds all n; (b) the tree index at n = 3000, the daemon's
   serving size, must give the same counts at every geometric candidate
   radius and the same t-th neighbour distance at every point under both
   tiers — the query times are reported, not gated; (c) the native
   kernels must actually be faster than the references by at least
   [floor] — guarding against a build where the stubs silently compiled
   to a slow path.  Gates (b) and (c) use their own fixed-size
   fixtures so the gates do not loosen when --smoke shrinks the shared
   one. *)
let run_kernel_gates _tier fx =
  let entry_native = Kernel.native_active () in
  let with_native b f =
    Kernel.set_native b;
    Fun.protect ~finally:(fun () -> Kernel.set_native entry_native) f
  in
  let bits = Array.map Int64.bits_of_float in
  (* (a) bitwise identity on the fixture. *)
  let radii =
    Array.init
      (Geometry.Grid.geometric_candidates fx.grid)
      (Geometry.Grid.geometric_radius_of_index fx.grid)
  in
  (* Cold copies: a memo hit would compare one fill against itself. *)
  let sweep cap b =
    with_native b (fun () ->
        Geometry.Pointset.score_l_many (Geometry.Pointset.cold_copy fx.idx) ~cap ~radii)
  in
  let fill b = with_native b (fun () -> Geometry.Pointset.fill_counts fx.idx ~radii) in
  let n = Geometry.Pointset.n fx.ps in
  let identity_sweep =
    bits (sweep fx.t true) = bits (sweep fx.t false)
    && bits (sweep n true) = bits (sweep n false)
    && fill true = fill false
  in
  let jl = Geometry.Jl.make fx.rng ~input_dim:32 ~output_dim:8 in
  let high =
    Geometry.Pointset.of_storage ~dim:32
      (Prim.Rng.gaussian_vector fx.rng ~dim:(Geometry.Pointset.n fx.ps * 32) ~sigma:1.0)
  in
  let project b =
    with_native b (fun () -> Geometry.Pointset.storage (Geometry.Jl.project jl high))
  in
  let identity_jl = bits (project true) = bits (project false) in
  let identity_ok = identity_sweep && identity_jl in
  Workload.Report.kv
    "good-radius sweeps (cap t and n) and full count matrix bit-identical (native vs reference)"
    (yes_no identity_sweep);
  Workload.Report.kv "jl projection bit-identical (native vs reference)" (yes_no identity_jl);
  (* (b) the tree index's answers, native vs reference, on one index. *)
  let tree_n = 3000 in
  let tree_t = 2 * tree_n / 5 in
  let tree_idx =
    let trng = Prim.Rng.create ~seed:99 () in
    let w =
      Workload.Synth.planted_ball trng ~grid:fx.grid ~n:tree_n ~cluster_fraction:0.5
        ~cluster_radius:0.05
    in
    Geometry.Pointset.build_index (Geometry.Pointset.create w.Workload.Synth.points)
  in
  let answers b =
    with_native b (fun () ->
        Workload.Harness.time (fun () ->
            ( Array.map (fun radius -> Geometry.Pointset.counts_within tree_idx ~radius) radii,
              bits
                (Array.init tree_n (fun i ->
                     Geometry.Pointset.kth_neighbor_distance tree_idx ~k:tree_t i)) )))
  in
  let tree_native, tree_native_ms = answers true in
  let tree_ref, tree_ref_ms = answers false in
  let tree_ok = tree_native = tree_ref in
  Workload.Report.kv
    (Printf.sprintf "tree counts and t-th distances bit-identical at n = %d (native vs reference)"
       tree_n)
    (yes_no tree_ok);
  Workload.Report.kv "tree queries (native / reference)"
    (Printf.sprintf "%.1f ms / %.1f ms" tree_native_ms tree_ref_ms);
  (* (c) speedup floor, native vs reference: the two paths interleaved,
     best of three rounds each.  The row accumulation and the projection
     read 1.4-2.3x, nearest the floor, where a short timing reads host
     noise: each runs best of seven rounds, with enough calls (500 and
     450) for at least 30 ms per side and round. *)
  let mrng = Prim.Rng.create ~seed:424242 () in
  let mn = 600 in
  let m8 = Geometry.Pointset.of_storage ~dim:8 (Prim.Rng.gaussian_vector mrng ~dim:(mn * 8) ~sigma:1.0) in
  let m8_idx = Geometry.Pointset.build_index m8 in
  let m32 =
    Geometry.Pointset.of_storage ~dim:32 (Prim.Rng.gaussian_vector mrng ~dim:(mn * 32) ~sigma:1.0)
  in
  let mjl = Geometry.Jl.make mrng ~input_dim:32 ~output_dim:8 in
  let mradii = Array.init 32 (fun j -> 0.2 *. float_of_int (j + 1)) in
  let wide_n = 2000 and wide_d = 64 in
  let wide = Prim.Rng.gaussian_vector mrng ~dim:(wide_n * wide_d) ~sigma:1.0 in
  (* Row offsets, as Noisy_avg passes them: 2000 distinct 64-float rows. *)
  let wide_sel = Array.init wide_n (fun i -> i * wide_d) in
  let wide_acc = Array.make wide_d 0. in
  let measure (name, rounds, iters, thunk) =
    let path b () = with_native b (fun () -> for _ = 1 to iters do thunk () done) in
    let t = best_of ~rounds [| path false; path true |] in
    (name, t.(0), t.(1), t.(0) /. Float.max t.(1) 1e-9)
  in
  let rows =
    List.map measure
      [
        ( "good-radius sweep (B1 core)",
          3,
          20,
          fun () ->
            ignore
              (Geometry.Pointset.score_l_many (Geometry.Pointset.cold_copy m8_idx)
                 ~cap:(2 * mn / 5) ~radii:mradii) );
        ("jl-project (B4 core)", 7, 450, fun () -> ignore (Geometry.Jl.project mjl m32));
        ( "row accumulation (B6 core)",
          7,
          500,
          fun () ->
            Array.fill wide_acc 0 wide_d 0.;
            Kernel.sum_rows ~st:wide ~sel:wide_sel ~m:wide_n ~dim:wide_d ~acc:wide_acc );
      ]
  in
  let floor = 1.2 in
  (* The floor only binds when the C stubs are compiled and the run is on
     the native tier.  Under PRIVCLUSTER_NO_NATIVE=1 the ratio is still
     measured ([with_native] switches compiled stubs on for the native
     path) but not gated. *)
  let enforced = Kernel.compiled && entry_native in
  Workload.Report.table ~csv:"b13_kernel_speedup"
    ~header:[ "kernel"; "reference"; "native"; "speedup" ]
    (List.map
       (fun (name, off_ms, on_ms, s) ->
         [
           name;
           Printf.sprintf "%.1f ms" off_ms;
           Printf.sprintf "%.1f ms" on_ms;
           Workload.Report.f2 s;
         ])
       rows);
  let min_speedup = List.fold_left (fun a (_, _, _, s) -> Float.min a s) infinity rows in
  let floor_ok = (not enforced) || min_speedup >= floor in
  Workload.Report.kv "speedup floor"
    (if enforced then
       Printf.sprintf "%.1fx (min observed %.2fx): %s" floor min_speedup
         (if floor_ok then "ok" else "FAIL")
     else "not enforced (native kernels disabled)");
  {
    key = "kernel_gates";
    fields =
      [
        ("identity_bitwise", Bool identity_ok);
        ("tree_identical", Bool tree_ok);
        ( "tree_queries",
          Obj
            [
              ("n", Int tree_n);
              ("native_ms", Float tree_native_ms);
              ("reference_ms", Float tree_ref_ms);
            ] );
        ("speedup_floor", Float floor);
        ("floor_enforced", Bool enforced);
        ( "speedups",
          List
            (List.map
               (fun (name, off_ms, on_ms, s) ->
                 Obs.Json.Obj
                   [
                     ("name", String name);
                     ("reference_ms", Float off_ms);
                     ("native_ms", Float on_ms);
                     ("speedup", Float s);
                   ])
               rows) );
      ];
    gates =
      [
        ("native kernels bit-identical to their references", identity_ok);
        ("tree index answers identical across the kernel tiers", tree_ok);
        (Printf.sprintf "kernel speedup >= %.1fx" floor, floor_ok);
      ];
  }

(* B14 — the five-way E1 competitors, end to end on the shared fixture:
   the paper's centralized pipeline vs the local-model (LDP) protocol vs
   the private MEB fPTAS, one call each, interleaved best-of-rounds.  The
   gate: the LDP path is n randomized responses plus histogram arithmetic
   over at most max_cells buckets per scale — asymptotically lighter than
   the centralized candidate sweep — so its wall clock must stay within
   [envelope]x of the one-cluster call on the same fixture (the envelope
   is documented in PERFORMANCE.md; a regression here means the ladder
   or the debias loop grew a hidden quadratic). *)
let run_competitor_bench tier fx =
  let profile = Privcluster.Profile.practical in
  let t =
    best_of
      ~rounds:(if tier.smoke then 1 else 3)
      [|
        (* The cold sweep, as in B7: the envelope prices the LDP ladder
           against the centralized call's full work, not a memo hit. *)
        (fun () ->
          ignore
            (Privcluster.One_cluster.run_indexed fx.rng profile ~grid:fx.grid ~eps:2.0 ~delta
               ~beta ~t:fx.t (Geometry.Pointset.cold_copy fx.idx)));
        (fun () ->
          ignore (Privcluster.Local_cluster.run fx.rng ~grid:fx.grid ~eps:2.0 ~beta ~t:fx.t fx.ps));
        (fun () ->
          ignore (Baselines.Meb_fptas.run fx.rng ~grid:fx.grid ~eps:2.0 ~delta ~t:fx.t fx.ps));
      |]
  in
  let central_ms = t.(0) and local_ms = t.(1) and meb_ms = t.(2) in
  let envelope = 3.0 in
  let ratio = local_ms /. Float.max central_ms 1e-9 in
  let pass = ratio <= envelope in
  Workload.Report.table ~csv:"b14_competitors"
    ~header:[ "pipeline"; "wall/call" ]
    [
      [ "one-cluster (centralized)"; Printf.sprintf "%.2f ms" central_ms ];
      [ "local-cluster (LDP)"; Printf.sprintf "%.2f ms" local_ms ];
      [ "meb-fptas"; Printf.sprintf "%.2f ms" meb_ms ];
    ];
  Workload.Report.kv "ldp/centralized ratio"
    (Printf.sprintf "%.2f (envelope %.1fx): %s" ratio envelope (if pass then "ok" else "FAIL"));
  {
    key = "competitors";
    fields =
      [
        ("one_cluster_ms", Float central_ms);
        ("local_cluster_ms", Float local_ms);
        ("meb_fptas_ms", Float meb_ms);
        ("ldp_envelope", Float envelope);
        ("ldp_ratio", Float ratio);
      ];
    gates = [ (Printf.sprintf "ldp/centralized ratio <= %.1fx" envelope, pass) ];
  }

(* Allocation regression check: with the flat layout, one end-to-end
   1-cluster call (prebuilt index) must allocate minor-heap words roughly
   linearly in n and sublinearly in d — the boxed layout allocated a
   d-length vector per point per stage.  Run the same workload at d and
   8·d; the boxed path grew close to proportionally, the flat path must
   stay under [max_ratio]. *)
let run_alloc_check tier _fx =
  let n = if tier.smoke then 200 else 400 in
  let profile = Privcluster.Profile.practical in
  let words_at dim =
    let rng = Prim.Rng.create ~seed:7 () in
    let grid = Geometry.Grid.create ~axis_size:64 ~dim in
    let w =
      Workload.Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.5 ~cluster_radius:0.05
    in
    let idx =
      Geometry.Pointset.build_index (Geometry.Pointset.create w.Workload.Synth.points)
    in
    (* One warm-up call, then measure a single end-to-end run. *)
    ignore
      (Privcluster.One_cluster.run_indexed rng profile ~grid ~eps:2.0 ~delta ~beta
         ~t:(2 * n / 5) idx);
    let idx = Geometry.Pointset.cold_copy idx in
    let before = Gc.minor_words () in
    ignore
      (Privcluster.One_cluster.run_indexed rng profile ~grid ~eps:2.0 ~delta ~beta
         ~t:(2 * n / 5) idx);
    Gc.minor_words () -. before
  in
  let d_lo = 4 and d_hi = 32 in
  let w_lo = words_at d_lo and w_hi = words_at d_hi in
  let ratio = w_hi /. w_lo in
  let max_ratio = 4.0 in
  let pass = ratio < max_ratio in
  Workload.Report.kv (Printf.sprintf "minor words/call (n=%d, d=%d)" n d_lo)
    (Printf.sprintf "%.0f" w_lo);
  Workload.Report.kv (Printf.sprintf "minor words/call (n=%d, d=%d)" n d_hi)
    (Printf.sprintf "%.0f" w_hi);
  Workload.Report.kv
    (Printf.sprintf "ratio (d x%d)" (d_hi / d_lo))
    (Printf.sprintf "%.2f (max %.1f): %s" ratio max_ratio (if pass then "ok" else "FAIL"));
  {
    key = "alloc_check";
    fields =
      [
        ("n", Int n);
        ("d_lo", Int d_lo);
        ("d_hi", Int d_hi);
        ("minor_words_lo", Float w_lo);
        ("minor_words_hi", Float w_hi);
        ("ratio", Float ratio);
      ];
    gates = [ (Printf.sprintf "allocation ratio (d x%d) < %.1f" (d_hi / d_lo) max_ratio, pass) ];
  }

(* B10 — cost of the tracing switch on the hot path.  Tracing is off by
   default and every instrumented call site must then cost no more than
   one atomic load; this measures that cost directly (a tight loop over a
   disabled [Obs.Span.with_span], baseline-subtracted), counts how many
   spans one end-to-end 1-cluster call records when enabled, and gates
   the implied whole-pipeline overhead at [max_pct] of the B7 time. *)
let run_tracing_overhead tier fx =
  if Obs.Span.enabled () then die "B10: tracing unexpectedly enabled";
  let iters = if tier.smoke then 500_000 else 5_000_000 in
  let loop f () =
    for _ = 1 to iters do
      f ()
    done
  in
  let bare () = ignore (Sys.opaque_identity 0) in
  let spanned () = Obs.Span.with_span "b10.probe" (fun () -> ignore (Sys.opaque_identity 0)) in
  (* Best of three to shed scheduler noise (the gate must be deterministic
     in CI, not a coin flip). *)
  let t = best_of ~rounds:3 [| loop bare; loop spanned |] in
  let ns_per_span = Float.max 0. ((t.(1) -. t.(0)) *. 1e6 /. float_of_int iters) in
  let one_cluster () =
    ignore
      (Privcluster.One_cluster.run_indexed fx.rng Privcluster.Profile.practical ~grid:fx.grid
         ~eps:2.0 ~delta ~beta ~t:fx.t (Geometry.Pointset.cold_copy fx.idx))
  in
  (* How many disabled-path crossings one B7 call performs = how many spans
     it records when enabled. *)
  let span_count =
    Obs.Span.set_enabled true;
    Obs.Span.reset ();
    one_cluster ();
    let c = Obs.Span.count () in
    Obs.Span.reset ();
    Obs.Span.set_enabled false;
    c
  in
  let b7_ns = (best_of ~rounds:(if tier.smoke then 1 else 3) [| one_cluster |]).(0) *. 1e6 in
  let overhead_pct = 100. *. ns_per_span *. float_of_int span_count /. b7_ns in
  let max_pct = 2.0 in
  let pass = overhead_pct <= max_pct in
  Workload.Report.kv "disabled with_span crossing" (Printf.sprintf "%.2f ns" ns_per_span);
  Workload.Report.kv "spans per one-cluster call" (string_of_int span_count);
  Workload.Report.kv "one-cluster e2e" (Printf.sprintf "%.2f ms" (b7_ns /. 1e6));
  Workload.Report.kv "implied overhead"
    (Printf.sprintf "%.4f%% (max %.1f%%): %s" overhead_pct max_pct (if pass then "ok" else "FAIL"));
  {
    key = "tracing_overhead";
    fields =
      [
        ("ns_per_disabled_span", Float ns_per_span);
        ("spans_per_one_cluster", Int span_count);
        ("one_cluster_ns", Float b7_ns);
        ("overhead_pct", Float overhead_pct);
      ];
    gates = [ (Printf.sprintf "implied overhead <= %.1f%%" max_pct, pass) ];
  }

(* Run metadata stamped into --json output so archived results say what
   produced them. *)
let run_meta ~jobs =
  let git_commit =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  let timestamp =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  (* CPU model and the vector-ISA subset of its feature flags, so archived
     numbers say what silicon produced them (absent off Linux). *)
  let cpu_model, cpu_isa =
    try
      let ic = open_in "/proc/cpuinfo" in
      let model = ref None and flags = ref None in
      (try
         while true do
           let line = input_line ic in
           match String.index_opt line ':' with
           | None -> ()
           | Some i ->
               let key = String.trim (String.sub line 0 i) in
               let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
               if !model = None && (key = "model name" || key = "Processor" || key = "cpu model")
               then model := Some v;
               if !flags = None && (key = "flags" || key = "Features") then flags := Some v
         done
       with End_of_file -> ());
      close_in ic;
      let isa =
        Option.map
          (fun f ->
            let have = String.split_on_char ' ' f in
            String.concat ","
              (List.filter
                 (fun x -> List.mem x have)
                 [ "sse2"; "avx"; "avx2"; "fma"; "avx512f"; "asimd"; "sve" ]))
          !flags
      in
      (!model, isa)
    with Sys_error _ -> (None, None)
  in
  let open Obs.Json in
  let opt = function Some s -> String s | None -> Null in
  Obj
    [
      ("git_commit", (match git_commit with Some c -> String c | None -> Null));
      ("timestamp_utc", String timestamp);
      ("ocaml_version", String Sys.ocaml_version);
      ("jobs", Int jobs);
      ("word_size", Int Sys.word_size);
      ("kernels_compiled", Bool Kernel.compiled);
      ("kernels_active", Bool (Kernel.native_active ()));
      ("cpu_model", opt cpu_model);
      ("cpu_isa", opt cpu_isa);
      (* How many threads B8's domain sweep actually had to run on. *)
      ("hardware_threads", Int (Domain.recommended_domain_count ()));
    ]

(* Every gated bench, in run order, which is also the --json section
   order. *)
let benches =
  [
    {
      id = "B8";
      headline = "engine throughput (one-cluster batch over worker domains)";
      run = run_engine_bench;
    };
    {
      id = "B7-alloc";
      headline = "one-cluster minor-heap allocation vs dimension";
      run = run_alloc_check;
    };
    {
      id = "B10";
      headline = "disabled-tracing overhead on the one-cluster path";
      run = run_tracing_overhead;
    };
    { id = "B11"; headline = "daemon round-trip vs in-process batch"; run = run_daemon_bench };
    {
      id = "B12";
      headline = "mutate-then-requery (epochs and the result cache)";
      run = run_epoch_bench;
    };
    {
      id = "B13";
      headline = "native kernels: identity, tree index, speedup floor";
      run = run_kernel_gates;
    };
    {
      id = "B14";
      headline = "competitor e2e (one-cluster vs local-model vs MEB fPTAS)";
      run = run_competitor_bench;
    };
    {
      id = "B15";
      headline = "serving-telemetry overhead on the daemon round-trip";
      run = run_serving_bench;
    };
  ]

(* The one driver, for --smoke and the full run alike: the stage benches,
   then every bench in [benches], each stopped at its first false gate
   (exit 1); then the --json document. *)
let run_benches tier fx ~jobs ~json_path =
  let timing = run_timing tier fx in
  let sections =
    List.map
      (fun b ->
        Workload.Report.headline (b.id ^ " - " ^ b.headline);
        let s = b.run tier fx in
        (match List.find_opt (fun (_, ok) -> not ok) s.gates with
        | Some (gate, _) ->
            Printf.eprintf "%s FAILED: %s\n%!" b.id gate;
            exit 1
        | None -> ());
        (s.key, Obs.Json.Obj s.fields))
      benches
  in
  Option.iter
    (fun path ->
      let json =
        Obs.Json.Obj
          ([
             ("schema", Obs.Json.String "privcluster-bench/6");
             ("meta", run_meta ~jobs);
             ( "fixture",
               Obj
                 [
                   ("n", Int (Geometry.Pointset.n fx.ps));
                   ("dim", Int (Geometry.Pointset.dim fx.ps));
                 ] );
             ("timing", List timing);
           ]
          @ sections)
      in
      let oc = open_out path in
      output_string oc (Obs.Json.to_string json);
      output_string oc "\n";
      close_out oc;
      Printf.printf "bench results written to %s\n" path)
    json_path;
  if tier.smoke then print_endline "smoke OK"

let () =
  let quick = ref false and only = ref [] and timing = ref true and experiments = ref true in
  let jobs = ref 1 in
  let csv = ref None and json_path = ref None in
  let smoke = ref false in
  let fix_n = ref 1500 and fix_d = ref 2 in
  let seed = ref Workload.Experiments.default_cfg.Workload.Experiments.seed in
  let spec =
    [
      ("--quick", Arg.Set quick, "reduced trials and sweeps");
      ( "--only",
        Arg.String (fun s -> only := String.split_on_char ',' s),
        "comma-separated experiment ids (e.g. E1,E4); implies --no-timing" );
      ("--no-timing", Arg.Clear timing, "skip the Bechamel benches");
      ("--timing-only", Arg.Clear experiments, "only the Bechamel benches");
      ( "--jobs",
        Arg.Set_int jobs,
        "run the experiment suite on this many engine-pool worker domains (default 1)" );
      ("--seed", Arg.Set_int seed, "base RNG seed");
      ("--csv", Arg.String (fun d -> csv := Some d), "also write each table as CSV into this directory");
      ( "--json",
        Arg.String (fun f -> json_path := Some f),
        "write the stage timings and every bench's section (B7-alloc, B8, B10-B15) as JSON to \
         this file" );
      ("--fix-n", Arg.Set_int fix_n, "timing-fixture point count (default 1500)");
      ("--fix-d", Arg.Set_int fix_d, "timing-fixture dimension (default 2)");
      ("--smoke", Arg.Set smoke, "one tiny call per bench stage and exit (CI mode)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "privcluster bench";
  Workload.Report.set_csv_dir !csv;
  if !smoke then
    run_benches
      { smoke = true; quick = true; sweep_max = 2; domains = 2 }
      (fixture ~n:160 ~dim:2 ()) ~jobs:!jobs ~json_path:!json_path
  else begin
    let cfg = { Workload.Experiments.quick = !quick; seed = !seed } in
    if !experiments then begin
      let selected =
        match !only with
        | [] -> Workload.Experiments.all
        | ids ->
            timing := false;
            List.filter (fun (id, _, _) -> List.mem id ids) Workload.Experiments.all
      in
      run_experiments ~jobs:!jobs cfg selected
    end;
    if !timing then
      run_benches
        { smoke = false; quick = !quick; sweep_max = !jobs; domains = max !jobs 4 }
        (fixture ~n:!fix_n ~dim:!fix_d ())
        ~jobs:!jobs ~json_path:!json_path
  end
