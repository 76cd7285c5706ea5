(* What every workload shares: the metric catalog, the run context, and
   the outcome a workload fills in. *)

module Json = Obs.Json

(* Timing on the monotonic clock, and order statistics over raw samples
   (never over a histogram). *)
let now = Obs.Clock.now_ns
let since_ms t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6

let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, since_ms t0)

let time_s f =
  let r, ms = time_ms f in
  (r, ms /. 1e3)

let quantile a q = Workload.Metrics.quantile (Array.to_list a) ~q
let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0. a

(* End-to-end metrics: every workload reports every one of them.  Names
   and units must match BENCHMARK.json; [--smoke] checks that they do.
   Latency, throughput and peak memory are per-layer metrics: on a 2-thread
   host their run-to-run spread exceeds the 10% regression bound on at least
   one workload (README.md, "Noise"). *)
let e2e = [ ("setup_s", "s") ]

(* Span groups folded from the traced run (see [Spans.group]). *)
let span_groups =
  [
    "request-run";
    "request-append";
    "request-retire";
    "service.batch";
    "service.admission";
    "service.settlement";
    "job";
    "one_cluster";
    "good_radius";
    "rec_concave";
    "good_center";
    "good_center.above_threshold";
    "good_center.box_select";
    "good_center.noisy_average";
    "mech";
  ]

(* Per-layer metrics: reported with --trace 1, the first four from the
   untraced measured phase.  A workload that does not exercise a layer
   reports 0 for it (README.md lists which workloads populate which
   metric). *)
let layer =
  [
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("throughput_per_s", "1/s");
    ("peak_rss_mb", "MiB");
    ("wire.reply_bytes_mean", "bytes");
    ("wire.client_overhead_p50_ms", "ms");
    ("daemon.request_p50_ms", "ms");
    ("admission.queue_wait_p50_ms", "ms");
    ("admission.queue_wait_p90_ms", "ms");
    ("admission.shed_count", "count");
    ("result_cache.hit_ratio", "ratio");
    ("accountant.charges_end", "count");
    ("wal.append_fsync_us", "us");
    ("wal.records_end", "count");
    ("wal.bytes_end", "bytes");
    ("wal.replay_s", "s");
    ("daemon.restart_s", "s");
    ("registry.register_ms", "ms");
    ("registry.append_ms", "ms");
    ("registry.retire_ms", "ms");
    ("registry.r_opt_bounds_ms", "ms");
    ("index.build_ms", "ms");
    ("churn.write_p50_ms", "ms");
    ("churn.epoch_turnaround_ms", "ms");
    ("pool.efficiency", "ratio");
    ("pool.straggler_ms", "ms");
    ("gc.minor_words_per_job", "words");
    ("gc.major_collections_per_batch", "count");
    ("latency.drift_ratio", "ratio");
    ("fail_share", "fraction");
    ("trace.unattributed_share", "fraction");
    ("trace.overhead_pct", "%");
  ]
  @ List.concat_map
      (fun g -> [ ("span." ^ g ^ ".self_ms", "ms"); ("span." ^ g ^ ".calls", "count") ])
      span_groups

type ctx = {
  cli : string;  (* absolute path of privcluster_cli.exe *)
  seed : int;
  trace : bool;
  smoke : bool;
  setups : int;  (* set-ups per run; setup_s is their median *)
}

(* Inputs derived from the workload seed: the synthesis seed of the
   dataset and the base of every request seed. *)
let synth_seed ctx = 1 + (ctx.seed land 0xFFFF)
let seed_base ctx = (ctx.seed land 0x3FFFF) * 1_000_000

(* Every dataset is a planted ball in [0,1]^2 on a 256-cell axis, the
   daemon's [register] synthesis; the budget is large enough that no
   workload is ever refused. *)
let budget = Prim.Dp.v ~eps:1e7 ~delta:0.5
let grid = Geometry.Grid.create ~axis_size:256 ~dim:2

(* The daemon synthesizes from [seed + 7919] (as bench B11 does), so this
   is the very pointset a [register ~n ~seed] builds. *)
let points ~n ~seed =
  (Workload.Synth.planted_ball
     (Prim.Rng.create ~seed:(seed + 7919) ())
     ~grid ~n ~cluster_fraction:0.5 ~cluster_radius:0.05)
    .Workload.Synth.points

(* The service configuration of [serve -j 2]. *)
let service ?(domains = 2) () = Engine.Service.create ~domains ~seed:1 ~retries:2 ()

(* The target size a job with [t_fraction = tau] gets on [n] points (the
   engine's rule). *)
let t_of tau n = max 1 (int_of_float (Float.ceil (tau *. float_of_int n)))

(* The fixed amount of work of a measured phase.  Every commit does the
   same work, so costs that grow with history (the ledger in every reply,
   the journal a restart replays) are compared at the same history.  The
   full sizes take about ten seconds each on a 2-thread x86-64 host. *)
let count ctx ~full ~smoke = if ctx.smoke then smoke else full

type outcome = {
  mutable metrics : (string * float) list;
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool * string) list;
  mutable info : (string * Json.t) list;
  mutable rows : ledger_row list;  (* the traced fold *)
}

(* One span group of the traced ledger, per request; [share] is its self
   time as a share of the request's wall time. *)
and ledger_row = { group : string; calls : float; total_ms : float; self_ms : float; share : float }

let outcome () = { metrics = []; attempted = 0; failed = 0; checks = []; info = []; rows = [] }
let set o k v = o.metrics <- (k, v) :: List.remove_assoc k o.metrics
let info o k v = o.info <- (k, v) :: List.remove_assoc k o.info

let check o name ok detail =
  o.checks <- (name, ok, detail) :: o.checks;
  if not ok then o.failed <- o.failed + 1

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* End-to-end figures of one measured phase: latency over [samples]
   (start, ms), throughput over all [requests] it completed. *)
let latency o samples ~requests ~wall_s =
  let ms = Array.map snd samples in
  set o "latency_p50_ms" (median ms);
  set o "latency_p90_ms" (quantile ms 0.9);
  set o "throughput_per_s" (float_of_int requests /. wall_s);
  (* Drift: how much the median request slows from the first tenth of the
     phase to the last — history-dependent costs show here. *)
  let by_start = Array.copy samples in
  Array.sort (fun (a, _) (b, _) -> Int64.compare a b) by_start;
  let n = Array.length by_start in
  let tenth = max 1 (n / 10) in
  if n >= 2 then
    set o "latency.drift_ratio"
      (median (Array.map snd (Array.sub by_start (n - tenth) tenth))
      /. median (Array.map snd (Array.sub by_start 0 tenth)));
  info o "requests" (Json.Int n)

(* The [keys] removed from a JSON object. *)
let strip keys = function
  | Json.Obj fs -> Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fs)
  | j -> j

let str k j = Option.bind (Json.member k j) Json.to_str
let num k j = Option.bind (Json.member k j) Json.to_float
let int k j = Option.bind (Json.member k j) Json.to_int
let list k j = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list)
let path ks j = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) ks
let same a b = compare a b = 0

(* [setup k] builds the k-th fresh instance and returns it with its
   set-up time in seconds; all but the last are torn down.  setup_s is the
   median, so one slow spawn does not move it. *)
let repeated_setup o ctx ~setup ~teardown =
  let rec go k times =
    let st, s = setup k in
    if k < ctx.setups then begin
      teardown st;
      go (k + 1) (s :: times)
    end
    else (st, s :: times)
  in
  let st, times = go 1 [] in
  set o "setup_s" (median (Array.of_list times));
  info o "setup_runs_s" (Json.List (List.rev_map (fun s -> Json.Float s) times));
  st

(* Per-layer metrics of a traced run: each group's self time and call
   count per request, and the share of [wall_ms] no span accounts for. *)
let fold_trace o ~spans ~requests ~wall_ms =
  let per = float_of_int (max 1 requests) in
  o.rows <-
    List.map
      (fun (r : Spans.row) ->
        {
          group = r.key;
          calls = float_of_int r.calls /. per;
          total_ms = r.total_ms /. per;
          self_ms = r.self_ms /. per;
          share = r.self_ms /. wall_ms;
        })
      (Spans.fold spans);
  List.iter
    (fun r ->
      if List.mem r.group span_groups then begin
        set o ("span." ^ r.group ^ ".self_ms") r.self_ms;
        set o ("span." ^ r.group ^ ".calls") r.calls
      end)
    o.rows;
  set o "trace.unattributed_share" (1. -. List.fold_left (fun acc r -> acc +. r.share) 0. o.rows);
  info o "traced_requests" (Json.Int requests)

(* Direct timings of the registry and index layer on an in-process
   dataset [ds] of the service [svc]: registration, a fresh index build,
   the first r_opt-bounds computation for each target, and one append and
   one retire of [step] points (which advance [ds]). *)
let registry_timings o svc ~name pts ~taus ~step ~seed =
  let ds, reg_ms = time_ms (fun () -> Engine.Service.register svc ~name ~grid ~budget pts) in
  set o "registry.register_ms" reg_ms;
  set o "index.build_ms"
    (snd
       (time_ms (fun () ->
            Geometry.Pointset.auto_index ~domains:2
              (Engine.Registry.pointset ds))));
  let n = Engine.Registry.n ds in
  set o "registry.r_opt_bounds_ms"
    (Workload.Metrics.mean
       (List.map
          (fun tau ->
            snd (time_ms (fun () -> Engine.Registry.r_opt_bounds ds ~t:(t_of tau n))))
          (Array.to_list taus)));
  let extra = points ~n:step ~seed:(seed + 1) in
  set o "registry.append_ms" (snd (time_ms (fun () -> Engine.Registry.append ds extra)));
  set o "registry.retire_ms"
    (snd (time_ms (fun () -> Engine.Registry.retire ds ~from_:0 ~count:step)))
