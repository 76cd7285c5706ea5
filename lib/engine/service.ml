module Log = (val Logs.src_log Telemetry.log_src : Logs.LOG)

(* A standing 1-cluster query: its whole budget was reserved at
   registration as [periods] slices labelled ["<id>#<k>"]; each epoch the
   dataset advances (while ticks remain) commits the next slice and
   re-answers the query.  [seed]/[stream] pin the registration-time
   randomness so a WAL replay re-derives identical tick RNGs. *)
type standing = {
  dataset_name : string;
  base_id : string;
  st_t_fraction : float;
  st_beta : float;
  per_cost : Prim.Dp.params;
  periods : int;
  st_seed : int;  (* the batch seed at registration *)
  st_stream : int;  (* submission index at registration *)
  mutable ticks : int;  (* ticks already answered *)
  mutable last_epoch : int;  (* epoch of the last answered tick *)
  mutable resvs : (int * Accountant.reservation) list;  (* tick -> pending slice *)
}

type t = {
  profile : Privcluster.Profile.t;
  domains : int;
  seed : int;
  retries : int;
  backoff_s : float;
  faults : Faults.t;
  base_rng : Prim.Rng.t;  (* never drawn from; only [Rng.derive]d per job *)
  registry : Registry.t;
  telemetry : Telemetry.t;
  result_cache : Result_cache.t;
  mutable standing : standing list;  (* reverse registration order *)
  mutable standing_listeners :
    (dataset:string -> line:string -> seed:int -> stream:int -> unit) list;
}

let create ?(profile = Privcluster.Profile.practical) ?domains ?(seed = 1) ?(retries = 2)
    ?(backoff_s = 1e-3) ?faults () =
  let domains =
    max 1 (match domains with Some d -> d | None -> Pool.recommended_domains ())
  in
  let faults = match faults with Some f -> f | None -> Faults.of_env () in
  {
    profile;
    domains;
    seed;
    retries = max 0 retries;
    backoff_s;
    faults;
    base_rng = Prim.Rng.create ~seed ();
    registry = Registry.create ();
    telemetry = Telemetry.create ();
    result_cache = Result_cache.create ();
    standing = [];
    standing_listeners = [];
  }

let registry t = t.registry
let telemetry t = t.telemetry
let result_cache t = t.result_cache

let subscribe_standing t f = t.standing_listeners <- f :: t.standing_listeners

let register t ~name ~grid ?mode ~budget points =
  Registry.register t.registry ~name ~grid ?mode ~budget points

let target_of spec dataset =
  match Job.t_fraction spec.Job.kind with
  | Some f -> max 1 (int_of_float (ceil (f *. float_of_int (Registry.n dataset))))
  | None -> 1

(* One admitted job, on a worker domain.  Everything read from [dataset] is
   immutable after registration except the r_opt-bounds cache, which locks
   internally. *)
let execute t dataset rng (spec : Job.spec) : Job.status =
  let grid = Registry.grid dataset in
  let ps = Registry.pointset dataset in
  let eps = spec.Job.eps and delta = spec.Job.delta and beta = spec.Job.beta in
  (* The three 1-cluster solvers share one output: the released ball, its
     true coverage, and its radius against the registry's r_opt sandwich. *)
  let cluster run pp_failure answer =
    let target = target_of spec dataset in
    match run target with
    | Error f -> Job.Solver_failed (Format.asprintf "%a" pp_failure f)
    | Ok r ->
        let center, radius, delta_bound = answer r in
        let covered = Geometry.Pointset.ball_count ps ~center ~radius in
        let _, r_hi = Registry.r_opt_bounds dataset ~t:target in
        Job.Completed
          (Job.Cluster
             {
               ball = { Job.center; radius; covered };
               t = target;
               ratio_vs_hi = (if r_hi > 0. then radius /. r_hi else Float.infinity);
               delta_bound;
             })
  in
  match spec.Job.kind with
  | Job.One_cluster _ ->
      cluster
        (fun target ->
          Privcluster.One_cluster.run_indexed rng t.profile ~grid ~eps ~delta ~beta ~t:target
            (Registry.index dataset))
        Privcluster.One_cluster.pp_failure
        (fun r -> Privcluster.One_cluster.(r.center, r.radius, r.delta_bound))
  | Job.Local_cluster _ ->
      cluster
        (fun target -> Privcluster.Local_cluster.run rng ~grid ~eps ~beta ~t:target ps)
        Privcluster.Local_cluster.pp_failure
        (fun r -> Privcluster.Local_cluster.(r.center, r.radius, r.delta_bound))
  | Job.Meb { coreset; _ } ->
      (* MEB certifies no coverage slack of its own; the radius stage's
         accuracy is reported by the check suite. *)
      cluster
        (fun target -> Baselines.Meb_fptas.run rng ~grid ~eps ~delta ~coreset ~t:target ps)
        Baselines.Meb_fptas.pp_failure
        (fun r -> Baselines.Meb_fptas.(r.center, r.radius, 0.))
  | Job.K_cluster { k; t_fraction } ->
      let r =
        (* Zero-copy: peeling inside run_ps produces index views over the
           registry's flat storage. *)
        Privcluster.K_cluster.run_ps rng t.profile ~grid ~eps ~delta ~beta ~k ~t_fraction ps
      in
      let balls =
        List.map
          (fun { Privcluster.K_cluster.center; radius; _ } ->
            { Job.center; radius; covered = Geometry.Pointset.ball_count ps ~center ~radius })
          r.Privcluster.K_cluster.balls
      in
      Job.Completed
        (Job.Clusters
           {
             balls;
             uncovered = r.Privcluster.K_cluster.uncovered;
             failures = r.Privcluster.K_cluster.failures;
           })
  | Job.Quantile { axis; q } ->
      let d = Registry.dim dataset in
      if axis < 0 || axis >= d then
        Job.Solver_failed (Printf.sprintf "axis %d out of range for dimension %d" axis d)
      else
        let values = Geometry.Pointset.coords_axis ps axis in
        let grid1 =
          Geometry.Grid.create ~axis_size:(Geometry.Grid.axis_size grid) ~dim:1
        in
        let res = Privcluster.Quantile.quantile rng ~profile:t.profile ~grid:grid1 ~eps ~q values in
        Job.Completed
          (Job.Quantile_value
             {
               value = res.Privcluster.Quantile.value;
               target_rank = res.Privcluster.Quantile.target_rank;
             })
  | Job.Mutate _ | Job.Standing _ ->
      (* Run on the batch coordinator, never on a worker domain. *)
      Job.Solver_failed "internal: coordinator-only job kind reached a worker"

(* Why a failed-then-degraded job names its original failure: the reason
   string is derived from the job's public status, never from drawn noise. *)
let degrade_reason = function
  | Job.Timed_out { elapsed_ms } ->
      Printf.sprintf "deadline exceeded after %.0f ms" elapsed_ms
  | Job.Solver_failed msg -> msg
  | _ -> "unknown"

(* The GoodRadius-only fallback, run on the coordinator after the pool has
   drained (the accountant is not thread-safe, and commit/release must be
   interleaved with nothing).  Its randomness is a dedicated sub-stream of
   the job's stream — deterministic in (seed, submission index) and disjoint
   from the main attempt's draws. *)
let run_fallback t dataset ~base_rng ~stream (spec : Job.spec) cost =
  let rng = Prim.Rng.derive (Prim.Rng.derive base_rng ~stream) ~stream:1 in
  let target = target_of spec dataset in
  let r =
    Privcluster.Good_radius.run rng t.profile ~grid:(Registry.grid dataset)
      ~eps:cost.Prim.Dp.eps ~delta:cost.Prim.Dp.delta ~beta:spec.Job.beta ~t:target
      (Registry.index dataset)
  in
  Job.Radius
    {
      radius = r.Privcluster.Good_radius.radius;
      t = target;
      delta_bound = r.Privcluster.Good_radius.delta_bound;
    }

type admission =
  | Refused_at_admission of string
  | Cache_hit of Job.output  (* recorded answer returned; nothing charged *)
  | Admitted of Accountant.reservation option  (* the fallback reservation, if held *)

(* One of a standing query's [periods] equal slices of its declared total. *)
let slice (spec : Job.spec) ~periods =
  {
    Prim.Dp.eps = spec.Job.eps /. float_of_int periods;
    delta = spec.Job.delta /. float_of_int periods;
  }

(* Tick [k]'s slice label, and the label of its job and result. *)
let tick_label base_id k = Printf.sprintf "%s#%d" base_id k

(* File a standing query on [dataset], registered by [spec] at batch
   [seed] and submission index [stream]. *)
let add_standing t dataset (spec : Job.spec) ~t_fraction ~periods ~seed ~stream ~ticks
    ~last_epoch resvs =
  let st =
    {
      dataset_name = Registry.name dataset;
      base_id = spec.Job.id;
      st_t_fraction = t_fraction;
      st_beta = spec.Job.beta;
      per_cost = slice spec ~periods;
      periods;
      st_seed = seed;
      st_stream = stream;
      ticks;
      last_epoch;
      resvs;
    }
  in
  t.standing <- st :: t.standing;
  st

let run_batch ?domains ?seed t ~dataset specs =
  let domains = max 1 (Option.value ~default:t.domains domains) in
  let retries = t.retries and faults = t.faults in
  let base_rng, seed =
    match seed with
    | None -> (t.base_rng, t.seed)
    | Some s -> (Prim.Rng.create ~seed:s (), s)
  in
  let accountant = Registry.accountant dataset in
  (* Root span for the whole batch (handle API: it brackets all three
     phases).  Coordinator-side phase spans nest under it implicitly;
     worker-side job spans are stitched to it by id. *)
  let batch =
    Obs.Span.start ~cat:"batch"
      ~attrs:(fun () ->
        [
          ("dataset", Obs.Span.S (Registry.name dataset));
          ("jobs", Obs.Span.I (List.length specs));
          ("domains", Obs.Span.I domains);
          ("seed", Obs.Span.I seed);
          ("retries", Obs.Span.I retries);
        ])
      "service.batch"
  in
  let batch_id = Obs.Span.h_id batch in
  (* A job's [cat="job"] span, parented to the batch span across the
     domain boundary.  The label keys budget attribution; [stream] (with
     an [attempt] attr) lets the reconciler collapse bit-identical retry
     replays. *)
  let job_span (spec : Job.spec) ~stream ~attrs f =
    Obs.Span.with_span ~cat:"job" ?parent:batch_id
      ~attrs:(fun () ->
        ("id", Obs.Span.S spec.Job.id) :: ("stream", Obs.Span.I stream) :: attrs ())
      (Job.kind_name spec.Job.kind)
    @@ fun () ->
    Obs.Span.set_label spec.Job.id;
    f ()
  in
  let dataset_name = Registry.name dataset in
  let results_rev = ref [] in
  let push r = results_rev := r :: !results_rev in
  Log.info (fun m ->
      m "batch start: dataset=%s jobs=%d domains=%d seed=%d retries=%d faults=%s" dataset_name
        (List.length specs) domains seed retries (Faults.to_string faults));
  (* --- standing queries (coordinator-side) ------------------------------ *)
  (* Answer the next tick of a standing query if the dataset has moved to a
     new epoch since its last answer and budget slices remain.  The tick's
     RNG derives from the *registration-time* (seed, stream) through a
     dedicated sub-stream (2, then the tick number) — disjoint from the
     main attempts (stream) and fallbacks (stream, 1), and reproducible
     across a WAL replay. *)
  let tick_standing st =
    let e = Registry.epoch dataset in
    if st.ticks < st.periods && e > st.last_epoch then
      let k = st.ticks + 1 in
      match List.assoc_opt k st.resvs with
      | None -> () (* slice settled externally (operator settle) — stop ticking *)
      | Some resv ->
          let tick_id = tick_label st.base_id k in
          let tick_spec =
            {
              Job.id = tick_id;
              kind = Job.One_cluster { t_fraction = st.st_t_fraction };
              eps = st.per_cost.Prim.Dp.eps;
              delta = st.per_cost.Prim.Dp.delta;
              beta = st.st_beta;
              deadline_s = None;
              fallback = false;
            }
          in
          st.resvs <- List.remove_assoc k st.resvs;
          Accountant.commit accountant resv;
          let t0 = Obs.Clock.now_ns () in
          let status =
            job_span tick_spec ~stream:st.st_stream
              ~attrs:(fun () ->
                [
                  ("tick", Obs.Span.I k);
                  ("epoch", Obs.Span.I e);
                  ("attempt", Obs.Span.I 1);
                ])
            @@ fun () ->
            let rng =
              Prim.Rng.derive
                (Prim.Rng.derive
                   (Prim.Rng.derive (Prim.Rng.create ~seed:st.st_seed ()) ~stream:st.st_stream)
                   ~stream:2)
                ~stream:k
            in
            execute t dataset rng tick_spec
          in
          let latency_ms = Obs.Clock.ms_since t0 in
          (match status with
          | Job.Completed output ->
              Result_cache.store t.result_cache
                {
                  Result_cache.dataset = st.dataset_name;
                  epoch = e;
                  signature = Job.signature tick_spec;
                  seed = st.st_seed;
                  stream = st.st_stream;
                }
                output
          | _ -> ());
          st.ticks <- k;
          st.last_epoch <- e;
          push { Job.spec = tick_spec; status; latency_ms; attempts = 1 }
  in
  let tick_all () =
    List.iter (fun st -> if st.dataset_name = dataset_name then tick_standing st)
      (List.rev t.standing)
  in
  let register_standing i (spec : Job.spec) ~t_fraction ~periods =
    let per_cost = slice spec ~periods in
    let rec take k acc =
      if k > periods then Ok (List.rev acc)
      else
        match Accountant.reserve accountant ~label:(tick_label spec.Job.id k) per_cost with
        | Ok resv -> take (k + 1) ((k, resv) :: acc)
        | Error refusal ->
            List.iter (fun (_, r) -> Accountant.release accountant r) (List.rev acc);
            Error (Accountant.refusal_message refusal)
    in
    match take 1 [] with
    | Error msg -> push { Job.spec; status = Job.Refused msg; latency_ms = 0.; attempts = 0 }
    | Ok resvs ->
        let st =
          add_standing t dataset spec ~t_fraction ~periods ~seed ~stream:i ~ticks:0
            ~last_epoch:(-1) resvs
        in
        let line = Job.spec_to_line spec in
        List.iter
          (fun f -> f ~dataset:dataset_name ~line ~seed ~stream:i)
          (List.rev t.standing_listeners);
        push
          {
            Job.spec;
            status = Job.Completed (Job.Standing_accepted { periods });
            latency_ms = 0.;
            attempts = 0;
          };
        (* First answer now, on the current epoch. *)
        tick_standing st
  in
  (* --- mutations (coordinator-side, free of charge) --------------------- *)
  let run_mutation i (spec : Job.spec) op =
    let t0 = Obs.Clock.now_ns () in
    let status =
      job_span spec ~stream:i ~attrs:(fun () -> [ ("attempt", Obs.Span.I 1) ]) @@ fun () ->
      match op with
      | Job.Append_synth { n; seed = mseed; frac; radius } -> (
          (* A dedicated RNG seeded by the op itself: the same mutate line
             replayed from the WAL appends the exact same rows. *)
          match
            Workload.Synth.planted_ball
              (Prim.Rng.create ~seed:mseed ())
              ~grid:(Registry.grid dataset) ~n ~cluster_fraction:frac ~cluster_radius:radius
          with
          | planted -> (
              match Registry.append dataset planted.Workload.Synth.points with
              | epoch -> Job.Completed (Job.Epoch_advanced { epoch; n = Registry.n dataset })
              | exception Invalid_argument msg -> Job.Solver_failed msg)
          | exception Invalid_argument msg -> Job.Solver_failed msg)
      | Job.Retire_range { from_; count } -> (
          match Registry.retire dataset ~from_ ~count with
          | epoch -> Job.Completed (Job.Epoch_advanced { epoch; n = Registry.n dataset })
          | exception Invalid_argument msg -> Job.Solver_failed msg)
    in
    push { Job.spec; status; latency_ms = Obs.Clock.ms_since t0; attempts = 1 };
    match status with Job.Completed _ -> tick_all () | _ -> ()
  in
  (* --- one segment of worker jobs: the original three phases ------------ *)
  let run_segment pairs =
    (* Epoch is stable for the whole segment: mutations only run between
       segments, on this same coordinator thread. *)
    let epoch = Registry.epoch dataset in
    let cache_key i (spec : Job.spec) =
      {
        Result_cache.dataset = dataset_name;
        epoch;
        signature = Job.signature spec;
        seed;
        stream = i;
      }
    in
    (* Phase 1 — admission, in submission order, before anything runs.  The
       result cache is consulted first: a hit returns the recorded answer
       and never touches the accountant (see DESIGN.md §10).  A job with a
       fallback also reserves the fallback's charge now, so degradation
       can never be refused mid-batch; if the reservation alone does not
       fit, the job still runs — it just has no fallback (logged below). *)
    let admitted =
      Obs.Span.with_span ~cat:"phase" ?parent:batch_id "service.admission" @@ fun () ->
      List.map
        (fun (i, (spec : Job.spec)) ->
          match Result_cache.find t.result_cache (cache_key i spec) with
          | Some output ->
              Telemetry.incr t.telemetry "cache_hits";
              (* Trace the hit as a zero-cost job span; the [cached] attr
                 exempts it from attribution's retry-consistency grouping
                 (it is a replay, not an attempt). *)
              job_span spec ~stream:i
                ~attrs:(fun () -> [ ("epoch", Obs.Span.I epoch); ("cached", Obs.Span.B true) ])
                ignore;
              Cache_hit output
          | None -> (
              match Accountant.charge accountant ~label:spec.Job.id (Job.cost spec) with
              | Error refusal -> Refused_at_admission (Accountant.refusal_message refusal)
              | Ok () -> (
                  match Job.fallback_cost spec with
                  | None -> Admitted None
                  | Some c -> (
                      match
                        Accountant.reserve accountant ~label:(spec.Job.id ^ ":fallback") c
                      with
                      | Ok resv -> Admitted (Some resv)
                      | Error _ ->
                          Log.warn (fun m ->
                              m
                                "job %s: no budget headroom for its fallback — degradation disabled"
                                spec.Job.id);
                          Admitted None))))
        pairs
    in
    (* Phase 2 — execution.  Stream index = submission index (refusals
       included), so admitting a different prefix never reshuffles the
       randomness of later jobs; and every retry attempt re-derives the same
       stream, so a crash-before-output replay is bit-identical and free. *)
    let tasks =
      List.map2 (fun (i, spec) a -> (i, spec, a)) pairs admitted
      |> List.filter_map (fun (i, (spec : Job.spec), a) ->
             match a with
             | Admitted _ -> Some (Pool.task ?deadline_s:spec.Job.deadline_s (i, spec))
             | Refused_at_admission _ | Cache_hit _ -> None)
      |> Array.of_list
    in
    let on_retry ~index:_ ~attempt:_ = Telemetry.incr t.telemetry "retries" in
    let outcomes =
      Pool.run ~retries ~backoff_s:t.backoff_s ~on_retry ?trace_parent:batch_id ~domains
        ~f:(fun ~index:_ ~attempt (stream, spec) ->
          job_span spec ~stream
            ~attrs:(fun () ->
              [ ("epoch", Obs.Span.I epoch); ("attempt", Obs.Span.I (attempt + 1)) ])
          @@ fun () ->
          let rng = Prim.Rng.derive base_rng ~stream in
          (* Faults are armed before any randomness is drawn, so an injected
             crash is always a crash *before output*. *)
          Faults.arm faults ~index:stream ~attempt;
          let t0 = Obs.Clock.now_ns () in
          let status = execute t dataset rng spec in
          (status, Obs.Clock.ms_since t0, attempt + 1))
        tasks
    in
    let by_index = Hashtbl.create (max 1 (Array.length tasks)) in
    Array.iteri
      (fun j outcome ->
        let i, _ = tasks.(j).Pool.payload in
        Hashtbl.replace by_index i outcome)
      outcomes;
    (* Phase 3 — settlement, sequential, in submission order: map outcomes to
       results, run fallbacks for jobs that could not complete, and settle
       every reservation (commit on degrade, release otherwise). *)
    let release_resv resv = Option.iter (Accountant.release accountant) resv in
  let settle i (spec : Job.spec) resv (status, latency_ms, attempts) =
    let degrade () =
      match (resv, Job.fallback_cost spec) with
      | Some resv, Some cost -> (
          let reason = degrade_reason status in
          (* The fallback's execution span is a [cat="job"] root of its
             own, labelled like its ledger entry; on failure the label is
             left unset so the aborted subtree joins no attribution line
             (its reservation is released, not spent). *)
          let h =
            Obs.Span.start ~cat:"job" ?parent:batch_id
              ~attrs:(fun () ->
                [
                  ("id", Obs.Span.S spec.Job.id);
                  ("stream", Obs.Span.I i);
                  ("fallback", Obs.Span.B true);
                  ("reason", Obs.Span.S reason);
                ])
              "good_radius_fallback"
          in
          match run_fallback t dataset ~base_rng ~stream:i spec cost with
          | output ->
              Obs.Span.h_set_label h (spec.Job.id ^ ":fallback");
              Obs.Span.finish h;
              Accountant.commit accountant resv;
              Telemetry.incr t.telemetry "degraded";
              Some (Job.Degraded { output; reason })
          | exception exn ->
              Obs.Span.h_set_attr h "error" (Obs.Span.S (Printexc.to_string exn));
              Obs.Span.finish h;
              Log.warn (fun m ->
                  m "job %s: fallback itself failed (%s) — keeping original status" spec.Job.id
                    (Printexc.to_string exn));
              Accountant.release accountant resv;
              None)
      | _ -> None
    in
    match status with
    | Job.Completed _ | Job.Refused _ ->
        release_resv resv;
        { Job.spec; status; latency_ms; attempts }
    | Job.Timed_out _ | Job.Solver_failed _ -> (
        match degrade () with
        | Some status -> { Job.spec; status; latency_ms; attempts }
        | None ->
            release_resv resv;
            { Job.spec; status; latency_ms; attempts })
    | Job.Degraded _ ->
        (* execute never produces Degraded; keep the match exhaustive. *)
        release_resv resv;
        { Job.spec; status; latency_ms; attempts }
  in
    Obs.Span.with_span ~cat:"phase" ?parent:batch_id "service.settlement" @@ fun () ->
    List.iter2
      (fun (i, (spec : Job.spec)) a ->
        match a with
        | Refused_at_admission msg ->
            push { Job.spec; status = Job.Refused msg; latency_ms = 0.; attempts = 0 }
        | Cache_hit output ->
            push { Job.spec; status = Job.Completed output; latency_ms = 0.; attempts = 0 }
        | Admitted resv ->
            let r =
              match Hashtbl.find by_index i with
              | Pool.Done (status, ms, attempts) -> settle i spec resv (status, ms, attempts)
              | Pool.Timed_out { elapsed_ms } ->
                  settle i spec resv (Job.Timed_out { elapsed_ms }, elapsed_ms, 0)
              | Pool.Failed msg -> settle i spec resv (Job.Solver_failed msg, 0., retries + 1)
            in
            (match r.Job.status with
            | Job.Completed output -> Result_cache.store t.result_cache (cache_key i spec) output
            | _ -> ());
            push r)
      pairs admitted
  in
  (* Coordinator jobs (mutations, standing-query registrations) split the
     batch: the worker jobs between them run as one segment of the three
     phases, so a query after a [mutate] line sees — and is cache-keyed
     on — the new epoch. *)
  let segment = ref [] in
  let flush () =
    if !segment <> [] then run_segment (List.rev !segment);
    segment := []
  in
  List.iteri
    (fun i (spec : Job.spec) ->
      match spec.Job.kind with
      | Job.Mutate op ->
          flush ();
          run_mutation i spec op
      | Job.Standing { t_fraction; periods } ->
          flush ();
          register_standing i spec ~t_fraction ~periods
      | _ -> segment := (i, spec) :: !segment)
    specs;
  flush ();
  let results = List.rev !results_rev in
  List.iter
    (fun (r : Job.result) ->
      Telemetry.record t.telemetry ~kind:(Job.kind_name r.Job.spec.Job.kind)
        ~status:(Job.status_name r.Job.status) ~latency_ms:r.Job.latency_ms)
    results;
  let count st =
    List.length (List.filter (fun r -> Job.status_name r.Job.status = st) results)
  in
  Log.info (fun m ->
      m "batch done: dataset=%s ok=%d refused=%d timeout=%d failed=%d degraded=%d retries=%d"
        (Registry.name dataset) (count "ok") (count "refused") (count "timeout") (count "failed")
        (count "degraded")
        (Telemetry.counter t.telemetry "retries"));
  Obs.Span.finish batch;
  results

let find_dataset t name =
  match Registry.find t.registry name with
  | Some d -> Ok d
  | None ->
      Error
        (match Registry.names t.registry with
        | [] -> Printf.sprintf "unknown dataset %S: no datasets are registered" name
        | names ->
            Printf.sprintf "unknown dataset %S: registered datasets are %s" name
              (String.concat ", " (List.map (Printf.sprintf "%S") names)))

let run_batch_named ?domains ?seed t ~dataset specs =
  match find_dataset t dataset with
  | Error _ as e -> e
  | Ok dataset -> Ok (run_batch ?domains ?seed t ~dataset specs)

(* Rebuild a standing query from its journaled registration line after a WAL
   replay.  The replayed ledger already holds the committed slices (the
   ticks that were answered) and the outstanding reservations (the ticks
   still to come); we adopt both by label.  [last_epoch] is set to the
   dataset's replayed epoch — conservative: the first post-restart tick
   waits for the next mutation rather than re-answering the current epoch
   (whose answer, if any, was restored into the result cache). *)
let restore_standing t ~dataset ~line ~seed ~stream =
  match Job.parse line with
  | Error e -> Error (Printf.sprintf "standing restore: %s" e)
  | Ok [ ({ Job.kind = Job.Standing { t_fraction; periods }; _ } as spec) ] ->
      let accountant = Registry.accountant dataset in
      let tick_of label =
        List.find_opt (fun k -> tick_label spec.Job.id k = label) (List.init periods succ)
      in
      let resvs =
        List.filter_map
          (fun (resv, label, _) -> Option.map (fun k -> (k, resv)) (tick_of label))
          (Accountant.outstanding accountant)
      in
      let ticks =
        List.length
          (List.filter (fun (label, _) -> tick_of label <> None) (Accountant.entries accountant))
      in
      ignore
        (add_standing t dataset spec ~t_fraction ~periods ~seed ~stream ~ticks
           ~last_epoch:(Registry.epoch dataset) resvs);
      Ok ()
  | Ok _ -> Error "standing restore: expected exactly one standing job line"

let ledger ~dataset =
  List.map
    (fun (label, (p : Prim.Dp.params)) -> (label, Obs.Span.charge ~eps:p.eps ~delta:p.delta ()))
    (Accountant.entries (Registry.accountant dataset))

let attribution ~dataset () =
  Obs.Attribution.reconcile ~ledger:(ledger ~dataset) (Obs.Span.spans ())

let report_json t ~dataset results =
  Obs.Json.Obj
    [
      ("dataset", Registry.to_json dataset);
      ("jobs", Obs.Json.List (List.map Job.result_to_json results));
      ("telemetry", Telemetry.to_json t.telemetry);
      ("ledger", Accountant.to_json (Registry.accountant dataset));
    ]

module For_testing = struct
  let standing_queries t =
    List.rev_map (fun st -> (st.dataset_name, st.base_id, st.ticks, st.periods)) t.standing
end
