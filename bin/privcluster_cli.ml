(* privcluster-cli — run the solvers and the experiment suite from the
   command line.

     privcluster-cli solve --n 3000 --dim 2 --frac 0.5 --eps 2
     privcluster-cli batch jobs.txt --budget-eps 4 --jobs 4 --json -
     privcluster-cli experiments --only E1,E4 --quick
     privcluster-cli params --dim 4 --axis 256 --eps 2
     privcluster-cli outliers --n 3000 --outlier-frac 0.1
     privcluster-cli interior-point --m 4000 *)

open Cmdliner

let delta_default = Workload.Harness.default_delta
let beta_default = Workload.Harness.default_beta

(* Logging ------------------------------------------------------------ *)

(* [-v] / [--log-level] (env PRIVCLUSTER_LOG) select the level for the
   ["privcluster.engine"] log source; the reporter serialises concurrent
   worker-domain writes behind one mutex so lines never interleave. *)

let setup_logs =
  let setup verbose level_s =
    let level =
      match level_s with
      | Some s -> (
          match Logs.level_of_string s with
          | Ok l -> l
          | Error (`Msg m) ->
              prerr_endline ("privcluster-cli: --log-level: " ^ m);
              exit 2)
      | None -> (
          match List.length verbose with
          | 0 -> Some Logs.Warning
          | 1 -> Some Logs.Info
          | _ -> Some Logs.Debug)
    in
    Logs.set_level level;
    let m = Mutex.create () in
    Logs.set_reporter_mutex ~lock:(fun () -> Mutex.lock m) ~unlock:(fun () -> Mutex.unlock m);
    Logs.set_reporter (Logs.format_reporter ())
  in
  let verbose =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ] ~doc:"Increase log verbosity (repeatable: info, then debug).")
  in
  let level =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ]
          ~env:(Cmd.Env.info "PRIVCLUSTER_LOG")
          ~docv:"LEVEL"
          ~doc:"Log level: quiet, error, warning, info or debug. Overrides $(b,-v).")
  in
  Term.(const setup $ verbose $ level)

(* Tracing ------------------------------------------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable span collection and write a Chrome trace-event JSON to $(docv) (load it in \
           Perfetto or chrome://tracing).")

let enable_trace trace = if trace <> None then Obs.Span.set_enabled true

let write_trace trace =
  match trace with
  | None -> ()
  | Some file ->
      let json = Obs.Trace.to_string (Obs.Span.spans ()) ^ "\n" in
      if file = "-" then print_string json
      else begin
        Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc json);
        Workload.Report.kv "trace" (Printf.sprintf "%s (%d spans)" file (Obs.Span.count ()))
      end

(* Shared options. *)
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.")
let eps = Arg.(value & opt float 2.0 & info [ "eps" ] ~doc:"Privacy parameter ε.")
let delta = Arg.(value & opt float delta_default & info [ "delta" ] ~doc:"Privacy parameter δ.")
let beta = Arg.(value & opt float beta_default & info [ "beta" ] ~doc:"Failure probability β.")
let dim = Arg.(value & opt int 2 & info [ "dim"; "d" ] ~doc:"Dimension d.")
let axis = Arg.(value & opt int 256 & info [ "axis" ] ~doc:"Axis size |X| of the grid domain.")
let n = Arg.(value & opt int 3000 & info [ "n"; "points" ] ~doc:"Number of points.")

let profile_conv =
  let parse = function
    | "paper" -> Ok Privcluster.Profile.paper
    | "practical" -> Ok Privcluster.Profile.practical
    | s -> Error (`Msg (Printf.sprintf "unknown profile %S (expected paper|practical)" s))
  in
  Arg.conv (parse, fun ppf p -> Privcluster.Profile.pp ppf p)

let profile =
  Arg.(
    value
    & opt profile_conv Privcluster.Profile.practical
    & info [ "profile" ] ~doc:"Constant profile: paper or practical.")

(* solve ------------------------------------------------------------- *)

let solve_cmd =
  let run () seed eps delta beta dim axis n frac radius profile trace =
    enable_trace trace;
    let rng = Prim.Rng.create ~seed () in
    let grid = Geometry.Grid.create ~axis_size:axis ~dim in
    let w = Workload.Synth.planted_ball rng ~grid ~n ~cluster_fraction:frac ~cluster_radius:radius in
    let t = int_of_float (0.9 *. float_of_int w.Workload.Synth.cluster_size) in
    Workload.Report.headline "1-cluster solve on a planted workload";
    Workload.Report.kv "profile" (Format.asprintf "%a" Privcluster.Profile.pp profile);
    Workload.Report.kv "n / d / |X|" (Printf.sprintf "%d / %d / %d" n dim axis);
    Workload.Report.kv "planted" (Printf.sprintf "%d points in radius %.4f" w.Workload.Synth.cluster_size w.Workload.Synth.cluster_radius);
    Workload.Report.kv "target t" (string_of_int t);
    Workload.Report.kv "privacy" (Printf.sprintf "(%.2f, %g)-DP, beta=%.2f" eps delta beta);
    let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Workload.Synth.points) in
    let _, r_hi = Workload.Metrics.r_opt_bounds_indexed idx ~t in
    let r_hi = Float.min r_hi w.Workload.Synth.cluster_radius in
    let score, result =
      Workload.Harness.run_one_cluster rng profile ~grid ~eps ~delta ~beta ~t ~r_hi idx
    in
    (match result with
    | None -> Workload.Report.kv "outcome" ("FAILED: " ^ Option.value ~default:"?" score.Workload.Harness.failure)
    | Some r ->
        Workload.Report.kv "center distance to truth"
          (Workload.Report.f3 (Geometry.Vec.dist r.Privcluster.One_cluster.center w.Workload.Synth.cluster_center));
        Workload.Report.kv "private radius"
          (Printf.sprintf "%s (w = %s x r_opt)" (Workload.Report.f3 r.Privcluster.One_cluster.radius)
             (Workload.Report.f2 score.Workload.Harness.w_private));
        Workload.Report.kv "tight radius around center"
          (Printf.sprintf "w = %s x r_opt" (Workload.Report.f2 score.Workload.Harness.w_tight));
        Workload.Report.kv "covered / t" (Printf.sprintf "%d / %d" score.Workload.Harness.covered t);
        Workload.Report.kv "certified delta bound" (Workload.Report.f2 r.Privcluster.One_cluster.delta_bound));
    Workload.Report.kv "time" (Printf.sprintf "%.0f ms" score.Workload.Harness.time_ms);
    write_trace trace
  in
  let frac = Arg.(value & opt float 0.5 & info [ "frac" ] ~doc:"Planted cluster fraction.") in
  let radius = Arg.(value & opt float 0.05 & info [ "radius" ] ~doc:"Planted cluster radius.") in
  Cmd.v (Cmd.info "solve" ~doc:"Run the 1-cluster solver on a planted synthetic workload")
    Term.(
      const run $ setup_logs $ seed $ eps $ delta $ beta $ dim $ axis $ n $ frac $ radius $ profile
      $ trace_arg)

(* batch -------------------------------------------------------------- *)

(* Run a jobs file against one registered dataset through the concurrent
   query engine: per-dataset (ε, δ) budget, over-budget jobs refused, the
   rest fanned out over [--jobs] worker domains, results deterministic in
   the seed no matter the domain count. *)

let batch_cmd =
  let run () seed dim axis n frac radius profile jobs_file points_file budget_eps budget_delta
      mode_s slack jobs retries faults_s json_out trace metrics_out =
    enable_trace trace;
    let die fmt = Printf.ksprintf (fun m -> prerr_endline ("batch: " ^ m); exit 2) fmt in
    let mode =
      match Engine.Accountant.mode_of_string ~slack mode_s with Ok m -> m | Error e -> die "%s" e
    in
    let faults =
      match faults_s with
      | Some s -> (
          match Engine.Faults.parse s with Ok f -> f | Error e -> die "--faults: %s" e)
      | None -> ( try Engine.Faults.of_env () with Invalid_argument m -> die "%s" m)
    in
    let contents =
      try In_channel.with_open_text jobs_file In_channel.input_all
      with Sys_error e -> die "%s" e
    in
    let specs =
      match Engine.Job.parse ~default_beta:beta_default contents with
      | Ok [] -> die "%s: no jobs" jobs_file
      | Ok specs -> specs
      | Error e -> die "%s: %s" jobs_file e
    in
    let grid, points, source =
      match points_file with
      | Some file ->
          let rows =
            try
              In_channel.with_open_text file In_channel.input_lines
              |> List.mapi (fun i line -> (i + 1, line))
              |> List.filter_map (fun (lineno, line) ->
                     match String.trim line with
                     | "" -> None
                     | line ->
                         Some
                           ( lineno,
                             String.split_on_char ' ' line
                             |> List.concat_map (String.split_on_char '\t')
                             |> List.filter (fun t -> t <> "")
                             |> List.map (fun t ->
                                    match float_of_string_opt t with
                                    | Some f -> f
                                    | None -> die "%s: line %d: not a number: %S" file lineno t)
                             |> Array.of_list ))
            with Sys_error e -> die "%s" e
          in
          (match rows with
          | [] -> die "%s: no points" file
          | (_, first) :: _ ->
              let dim = Array.length first in
              List.iter
                (fun (lineno, row) ->
                  if Array.length row <> dim then
                    die "%s: line %d: expected %d coordinates, got %d" file lineno dim
                      (Array.length row))
                rows;
              let grid = Geometry.Grid.create ~axis_size:axis ~dim in
              ( grid,
                Array.of_list (List.map (fun (_, row) -> Geometry.Grid.snap grid row) rows),
                "file " ^ file ))
      | None ->
          let rng = Prim.Rng.create ~seed:(seed + 7919) () in
          let grid = Geometry.Grid.create ~axis_size:axis ~dim in
          let w =
            Workload.Synth.planted_ball rng ~grid ~n ~cluster_fraction:frac ~cluster_radius:radius
          in
          ( grid,
            w.Workload.Synth.points,
            Printf.sprintf "synthetic planted ball (n=%d frac=%g radius=%g)" n frac radius )
    in
    let service = Engine.Service.create ~profile ~domains:jobs ~seed ~retries ~faults () in
    let dataset =
      Engine.Service.register service ~name:"default" ~grid ~mode
        ~budget:(Prim.Dp.v ~eps:budget_eps ~delta:budget_delta)
        points
    in
    Workload.Report.headline "batch run through the query engine";
    Workload.Report.kv "dataset" source;
    Workload.Report.kv "n / d / |X|"
      (Printf.sprintf "%d / %d / %d" (Engine.Registry.n dataset) (Engine.Registry.dim dataset)
         (Geometry.Grid.axis_size grid));
    Workload.Report.kv "budget"
      (Printf.sprintf "(%g, %g) under %s composition" budget_eps budget_delta
         (Engine.Accountant.mode_name mode));
    Workload.Report.kv "jobs / domains" (Printf.sprintf "%d / %d" (List.length specs) jobs);
    Workload.Report.kv "seed" (string_of_int seed);
    Workload.Report.kv "retries" (string_of_int retries);
    if not (Engine.Faults.is_none faults) then
      Workload.Report.kv "fault injection" (Engine.Faults.to_string faults);
    let results = Engine.Service.run_batch service ~dataset specs in
    Workload.Report.subhead "job results";
    Workload.Report.table
      ~header:[ "id"; "kind"; "status"; "eps"; "delta"; "time"; "detail" ]
      (List.map
         (fun (r : Engine.Job.result) ->
           [
             r.Engine.Job.spec.Engine.Job.id;
             Engine.Job.kind_name r.Engine.Job.spec.Engine.Job.kind;
             Engine.Job.status_name r.Engine.Job.status;
             Workload.Report.g r.Engine.Job.spec.Engine.Job.eps;
             Workload.Report.g r.Engine.Job.spec.Engine.Job.delta;
             Printf.sprintf "%.1f ms" r.Engine.Job.latency_ms;
             Engine.Job.detail r;
           ])
         results);
    let accountant = Engine.Registry.accountant dataset in
    let spent = Engine.Accountant.spent accountant in
    Workload.Report.subhead "privacy ledger";
    Workload.Report.kv "spent" (Printf.sprintf "(%g, %g)" spent.Prim.Dp.eps spent.Prim.Dp.delta);
    Workload.Report.kv "refused jobs" (string_of_int (Engine.Accountant.refusals accountant));
    Workload.Report.subhead "telemetry";
    List.iter
      (fun line ->
        if line <> "" then
          match String.index_opt line ':' with
          | Some i ->
              Workload.Report.kv (String.sub line 0 i)
                (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          | None -> Workload.Report.kv "telemetry" line)
      (String.split_on_char '\n'
         (Format.asprintf "%a" Engine.Telemetry.pp_summary (Engine.Service.telemetry service)));
    (match json_out with
    | None -> ()
    | Some dest ->
        let json =
          Obs.Json.to_string (Engine.Service.report_json service ~dataset results) ^ "\n"
        in
        if dest = "-" then print_string json
        else begin
          Out_channel.with_open_text dest (fun oc -> Out_channel.output_string oc json);
          Workload.Report.kv "json report" dest
        end);
    (match metrics_out with
    | None -> ()
    | Some dest ->
        let spans = if trace = None then [] else Obs.Span.spans () in
        let text =
          Engine.Exposition.render ~spans ~dataset
            ~telemetry:(Engine.Service.telemetry service)
            ()
        in
        if dest = "-" then print_string text
        else begin
          Out_channel.with_open_text dest (fun oc -> Out_channel.output_string oc text);
          Workload.Report.kv "metrics" dest
        end);
    match trace with
    | None -> ()
    | Some _ ->
        (* Reconcile the trace against the accountant ledger; a mismatch is
           a bug in the budget bookkeeping, so it fails the run loudly. *)
        let report = Engine.Service.attribution ~dataset () in
        Workload.Report.subhead "budget attribution";
        print_string (Obs.Attribution.to_text report);
        write_trace trace;
        if not report.Obs.Attribution.ok then begin
          prerr_endline "batch: budget attribution FAILED (trace disagrees with the ledger)";
          exit 1
        end
  in
  let jobs_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"JOBS_FILE" ~doc:"Jobs file (one job per line; see privcluster.engine's Job docs).")
  in
  let points_file =
    Arg.(value & opt (some file) None & info [ "points-file" ] ~doc:"Load the dataset from a file (one point per line, whitespace-separated coordinates, snapped to the grid) instead of generating a synthetic one.")
  in
  let frac = Arg.(value & opt float 0.5 & info [ "frac" ] ~doc:"Planted cluster fraction (synthetic dataset).") in
  let radius = Arg.(value & opt float 0.05 & info [ "radius" ] ~doc:"Planted cluster radius (synthetic dataset).") in
  let budget_eps = Arg.(value & opt float 4.0 & info [ "budget-eps" ] ~doc:"Dataset lifetime ε budget.") in
  let budget_delta = Arg.(value & opt float 1e-5 & info [ "budget-delta" ] ~doc:"Dataset lifetime δ budget.") in
  let mode = Arg.(value & opt string "basic" & info [ "mode" ] ~doc:"Composition mode charged by the accountant: basic, advanced or zcdp.") in
  let slack = Arg.(value & opt float 1e-9 & info [ "slack" ] ~doc:"δ' slack for the advanced/zcdp modes.") in
  let jobs = Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc:"Worker domains. Results are identical for any value under a fixed --seed.") in
  let retries = Arg.(value & opt int 2 & info [ "retries" ] ~doc:"In-place retry attempts per job after an exception (a crash-before-output retry replays the same RNG stream and consumes no extra budget).") in
  let faults = Arg.(value & opt (some string) None & info [ "faults" ] ~doc:"Fault-injection schedule (e.g. 'crash@2,stall@5=0.25' or 'seed=1,rate=0.3'); a faulted job raises before drawing noise and is retried in place. Defaults to $(b,PRIVCLUSTER_FAULTS) from the environment.") in
  let json_out = Arg.(value & opt (some string) None & info [ "json" ] ~doc:"Write the JSON report to this file ('-' for stdout).") in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write Prometheus text exposition of the run (job counters, latency histograms, \
             budget gauges; span aggregates too under --trace) to $(docv) ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Run a multi-job file through the concurrent private-query engine")
    Term.(
      const run $ setup_logs $ seed $ dim $ axis $ n $ frac $ radius $ profile $ jobs_file
      $ points_file $ budget_eps $ budget_delta $ mode $ slack $ jobs $ retries $ faults
      $ json_out $ trace_arg $ metrics_out)

(* experiments ------------------------------------------------------- *)

let experiments_cmd =
  let run seed quick only =
    let cfg = { Workload.Experiments.quick; seed } in
    match only with
    | [] -> Workload.Experiments.run cfg
    | ids -> Workload.Experiments.run ~only:ids cfg
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced trials and sweeps.") in
  let only =
    Arg.(value & opt (list string) [] & info [ "only" ] ~doc:"Run only these experiment ids.")
  in
  Cmd.v (Cmd.info "experiments" ~doc:"Run the EXPERIMENTS.md suite (E1-E13)")
    Term.(const run $ seed $ quick $ only)

(* params ------------------------------------------------------------ *)

let params_cmd =
  let run eps delta beta dim axis n profile =
    let grid = Geometry.Grid.create ~axis_size:axis ~dim in
    Workload.Report.headline "certified bounds for this configuration";
    Workload.Report.kv "profile" (Format.asprintf "%a" Privcluster.Profile.pp profile);
    Workload.Report.kv "radius candidates"
      (string_of_int
         (match profile.Privcluster.Profile.radius_grid with
         | Privcluster.Profile.Linear -> Geometry.Grid.radius_candidates grid
         | Privcluster.Profile.Geometric -> Geometry.Grid.geometric_candidates grid));
    Workload.Report.kv "GoodRadius Gamma"
      (Workload.Report.f2
         (Privcluster.Good_radius.gamma profile ~grid ~eps:(eps /. 2.) ~delta:(delta /. 2.) ~beta));
    Workload.Report.kv "paper Gamma formula"
      (Printf.sprintf "%.3e"
         (Recconcave.Rec_concave.paper_promise ~eps:(eps /. 4.) ~beta ~delta:(delta /. 2.)
            ~domain_size:(2. *. float_of_int axis *. sqrt (float_of_int dim))));
    Workload.Report.kv "recommended min t"
      (Workload.Report.f2
         (Privcluster.One_cluster.recommended_min_t profile ~grid ~eps ~delta ~beta ~n));
    Workload.Report.kv "JL dimension k"
      (string_of_int (Privcluster.Profile.jl_dim profile ~n ~d:dim ~beta));
    Workload.Report.kv "log*(2|X|sqrt d)" (Workload.Report.f2 (Geometry.Grid.log_star_term grid));
    Workload.Report.subhead "privacy budget breakdown (one run)";
    List.iter
      (fun (label, p) -> Workload.Report.kv label (Prim.Dp.to_string p))
      (Privcluster.One_cluster.budget_breakdown profile ~eps ~delta ~d:dim)
  in
  Cmd.v (Cmd.info "params" ~doc:"Print the certified bounds for a configuration")
    Term.(const run $ eps $ delta $ beta $ dim $ axis $ n $ profile)

(* outliers ---------------------------------------------------------- *)

let outliers_cmd =
  let run seed eps delta beta dim axis n outlier_frac =
    let rng = Prim.Rng.create ~seed () in
    let grid = Geometry.Grid.create ~axis_size:axis ~dim in
    let w =
      Workload.Synth.with_outliers rng ~grid ~n ~outlier_fraction:outlier_frac ~inlier_radius:0.04
    in
    Workload.Report.headline "outlier screening demo";
    match
      Privcluster.Outlier.detect rng Privcluster.Profile.practical ~grid ~eps:(eps /. 2.)
        ~delta:(delta /. 2.) ~beta
        ~inlier_fraction:(0.95 *. (1. -. outlier_frac))
        w.Workload.Synth.data
    with
    | Error e ->
        Workload.Report.kv "outcome"
          (Format.asprintf "FAILED: %a" Privcluster.One_cluster.pp_failure e)
    | Ok det ->
        let excluded =
          Array.fold_left
            (fun acc i -> if det.Privcluster.Outlier.inlier w.Workload.Synth.data.(i) then acc else acc + 1)
            0 w.Workload.Synth.outlier_indices
        in
        Workload.Report.kv "ball radius" (Workload.Report.f3 det.Privcluster.Outlier.ball_radius);
        Workload.Report.kv "outliers excluded"
          (Printf.sprintf "%d / %d" excluded (Array.length w.Workload.Synth.outlier_indices));
        let show = function
          | Prim.Noisy_avg.Average a ->
              Workload.Report.f3
                (Geometry.Vec.dist a.Prim.Noisy_avg.average w.Workload.Synth.inlier_center)
          | Prim.Noisy_avg.Bottom -> "bottom"
        in
        Workload.Report.kv "screened mean error"
          (show (Privcluster.Outlier.screened_mean rng ~eps:(eps /. 2.) ~delta:(delta /. 2.) det w.Workload.Synth.data));
        Workload.Report.kv "domain mean error"
          (show (Privcluster.Outlier.domain_mean rng ~eps:(eps /. 2.) ~delta:(delta /. 2.) ~grid w.Workload.Synth.data))
  in
  let ofrac = Arg.(value & opt float 0.1 & info [ "outlier-frac" ] ~doc:"Outlier fraction.") in
  Cmd.v (Cmd.info "outliers" ~doc:"Outlier detection and screened-mean demo")
    Term.(const run $ seed $ eps $ delta $ beta $ dim $ axis $ n $ ofrac)

(* interior-point ---------------------------------------------------- *)

let interior_cmd =
  let run seed eps delta beta m =
    let rng = Prim.Rng.create ~seed () in
    let grid = Geometry.Grid.create ~axis_size:4096 ~dim:1 in
    let values =
      Array.init m (fun i ->
          let base = if i mod 2 = 0 then 0.25 else 0.75 in
          Float.max 0. (Float.min 1. (base +. Prim.Rng.gaussian rng ~sigma:0.01 ())))
    in
    Workload.Report.headline "interior point via the 1-cluster reduction (Algorithm 3)";
    match
      Privcluster.Interior_point.run rng Privcluster.Profile.practical ~grid ~eps ~delta ~beta
        ~inner_n:(m / 2) ~w:16. values
    with
    | Error e ->
        Workload.Report.kv "outcome" (Format.asprintf "FAILED: %a" Privcluster.One_cluster.pp_failure e)
    | Ok ip ->
        let lo = Array.fold_left Float.min infinity values in
        let hi = Array.fold_left Float.max neg_infinity values in
        Workload.Report.kv "returned point" (Workload.Report.f3 ip.Privcluster.Interior_point.point);
        Workload.Report.kv "data range" (Printf.sprintf "[%s, %s]" (Workload.Report.f3 lo) (Workload.Report.f3 hi));
        Workload.Report.kv "interior?"
          (if ip.Privcluster.Interior_point.point >= lo && ip.Privcluster.Interior_point.point <= hi
           then "yes" else "NO");
        Workload.Report.kv "oracle radius" (Workload.Report.f3 ip.Privcluster.Interior_point.oracle_radius);
        Workload.Report.kv "cut candidates" (string_of_int ip.Privcluster.Interior_point.candidates)
  in
  let m = Arg.(value & opt int 4000 & info [ "m" ] ~doc:"Database size.") in
  Cmd.v (Cmd.info "interior-point" ~doc:"Interior-point demo (Theorem 5.3 reduction)")
    Term.(const run $ seed $ eps $ delta $ beta $ m)

(* quantile ----------------------------------------------------------- *)

let quantile_cmd =
  let run seed eps axis n q =
    let rng = Prim.Rng.create ~seed () in
    let grid = Geometry.Grid.create ~axis_size:axis ~dim:1 in
    (* Skewed demo data. *)
    let values = Array.init n (fun _ -> Prim.Rng.float rng 1.0 ** 2.) in
    Workload.Report.headline "private quantile (RecConcave)";
    let res = Privcluster.Quantile.quantile rng ~grid ~eps ~q values in
    let rank =
      Array.fold_left
        (fun acc x -> if x <= res.Privcluster.Quantile.value then acc + 1 else acc)
        0 values
    in
    Workload.Report.kv "quantile q" (Workload.Report.g q);
    Workload.Report.kv "private value" (Workload.Report.f3 res.Privcluster.Quantile.value);
    Workload.Report.kv "achieved rank / target"
      (Printf.sprintf "%d / %.0f" rank res.Privcluster.Quantile.target_rank);
    Workload.Report.kv "certified rank error (beta=0.1)"
      (Printf.sprintf "%.0f" (Privcluster.Quantile.rank_error_bound ~grid ~eps ~beta:0.1 ()))
  in
  let q = Arg.(value & opt float 0.5 & info [ "q"; "level" ] ~doc:"Quantile in [0, 1].") in
  Cmd.v (Cmd.info "quantile" ~doc:"Private quantile demo (RecConcave application)")
    Term.(const run $ seed $ eps $ axis $ n $ q)

(* domain-solve ------------------------------------------------------- *)

let domain_cmd =
  let run seed eps delta beta axis n =
    let rng = Prim.Rng.create ~seed () in
    (* Data in an arbitrary box: longitude/latitude-like coordinates. *)
    let center = [| -71.06; 42.36 |] in
    let points =
      Array.init n (fun i ->
          if i < n / 2 then Array.map (fun c -> c +. Prim.Rng.gaussian rng ~sigma:0.005 ()) center
          else
            [|
              Prim.Rng.uniform rng ~lo:(-71.2) ~hi:(-70.9);
              Prim.Rng.uniform rng ~lo:42.2 ~hi:42.5;
            |])
    in
    let dom =
      Privcluster.Domain.create ~lo:[| -71.2; 42.2 |] ~hi:[| -70.9; 42.5 |] ~axis_size:axis
    in
    Workload.Report.headline "1-cluster on an arbitrary rectangular domain (Remark 3.3)";
    match
      Privcluster.Domain.solve rng Privcluster.Profile.practical dom ~eps ~delta ~beta
        ~t:(3 * n / 10) points
    with
    | Error e ->
        Workload.Report.kv "outcome" (Format.asprintf "FAILED: %a" Privcluster.One_cluster.pp_failure e)
    | Ok r ->
        Workload.Report.kv "center"
          (Printf.sprintf "(%.4f, %.4f)" r.Privcluster.Domain.center.(0) r.Privcluster.Domain.center.(1));
        Workload.Report.kv "radius (data units)" (Workload.Report.f3 r.Privcluster.Domain.radius);
        Workload.Report.kv "truth center" (Printf.sprintf "(%.4f, %.4f)" center.(0) center.(1));
        Workload.Report.kv "center error (data units)"
          (Workload.Report.f3 (Geometry.Vec.dist r.Privcluster.Domain.center center))
  in
  Cmd.v
    (Cmd.info "domain-solve" ~doc:"Solve over a non-unit rectangular domain (Remark 3.3)")
    Term.(const run $ seed $ eps $ delta $ beta $ axis $ n)

(* check --------------------------------------------------------------- *)

(* Statistical verification: goodness-of-fit of every primitive's output
   law, DP distinguisher estimates with Clopper–Pearson bounds, and the
   Theorem 3.2 utility certifier.  Exits 1 when any check reports a
   violation, so CI can gate on it. *)

let check_cmd =
  let run () seed trials deep significance alpha slack jobs only list_names json_out trace =
    if list_names then
      List.iter
        (fun (group, members) ->
          Printf.printf "%s\n" group;
          List.iter (fun name -> Printf.printf "  %s\n" name) members)
        (Check.Suite.grouped_names ())
    else begin
      enable_trace trace;
      let cfg =
        { Check.Suite.seed; trials; deep; significance; alpha; slack; domains = jobs }
      in
      let only =
        match only with
        | None -> None
        | Some s ->
            Some
              (String.split_on_char ',' s |> List.map String.trim
              |> List.filter (fun x -> x <> ""))
      in
      Workload.Report.headline "statistical DP verification & utility certification";
      Workload.Report.kv "seed / trials" (Printf.sprintf "%d / %d" seed trials);
      Workload.Report.kv "deep" (string_of_bool deep);
      Workload.Report.kv "gof significance" (Workload.Report.g significance);
      Workload.Report.kv "CP alpha / ratio slack"
        (Printf.sprintf "%s / %s" (Workload.Report.g alpha) (Workload.Report.g slack));
      Workload.Report.kv "domains" (string_of_int jobs);
      let results = Check.Suite.run ?only cfg in
      if Check.Suite.exit_status ~matched:(results <> []) ~violations:0 = 2 then begin
        prerr_endline "check: no checks matched --only (see --list)";
        exit 2
      end;
      Workload.Report.subhead "checks";
      Workload.Report.table
        ~header:[ "check"; "kind"; "status"; "detail" ]
        (List.map
           (fun (r : Check.Suite.result) ->
             [
               r.Check.Suite.name;
               r.Check.Suite.kind;
               (match r.Check.Suite.status with
               | Check.Suite.Pass -> "pass"
               | Check.Suite.Violation -> "VIOLATION");
               r.Check.Suite.detail;
             ])
           results);
      let violations =
        List.length
          (List.filter (fun r -> r.Check.Suite.status = Check.Suite.Violation) results)
      in
      Workload.Report.kv "summary"
        (Printf.sprintf "%d checks, %d violation%s" (List.length results) violations
           (if violations = 1 then "" else "s"));
      (match json_out with
      | None -> ()
      | Some dest ->
          let json =
            Obs.Json.to_string (Check.Suite.report_json cfg results) ^ "\n"
          in
          if dest = "-" then print_string json
          else begin
            Out_channel.with_open_text dest (fun oc -> Out_channel.output_string oc json);
            Workload.Report.kv "json report" dest
          end);
      write_trace trace;
      match Check.Suite.exit_status ~matched:true ~violations with
      | 0 -> ()
      | code -> exit code
    end
  in
  let trials =
    Arg.(
      value
      & opt int Check.Suite.default.Check.Suite.trials
      & info [ "trials" ] ~doc:"Samples per side for full-rate checks (composites divide it).")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ] ~doc:"Quadruple the composite / certifier sample sizes.")
  in
  let significance =
    Arg.(
      value
      & opt float Check.Suite.default.Check.Suite.significance
      & info [ "significance" ] ~doc:"Goodness-of-fit rejection level.")
  in
  let alpha =
    Arg.(
      value
      & opt float Check.Suite.default.Check.Suite.alpha
      & info [ "alpha" ] ~doc:"Clopper-Pearson confidence parameter.")
  in
  let slack =
    Arg.(
      value
      & opt float Check.Suite.default.Check.Suite.slack
      & info [ "slack" ] ~doc:"Distinguisher ratio slack on top of e^eps.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Worker domains for the sampling fan-out. Results are identical for any value under a fixed --seed.")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ]
          ~doc:"Comma-separated check names or group prefixes (e.g. 'laplace,one_cluster/utility').")
  in
  let list_names =
    Arg.(value & flag & info [ "list" ] ~doc:"List the registered check names and exit.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~doc:"Write the JSON report to this file ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statistically verify the DP mechanisms and certify utility contracts")
    Term.(
      const run $ setup_logs $ seed $ trials $ deep $ significance $ alpha $ slack $ jobs $ only
      $ list_names $ json_out $ trace_arg)

(* metrics ------------------------------------------------------------- *)

let metrics_cmd =
  let run report_file =
    let die fmt = Printf.ksprintf (fun m -> prerr_endline ("metrics: " ^ m); exit 2) fmt in
    let contents =
      try In_channel.with_open_text report_file In_channel.input_all
      with Sys_error e -> die "%s" e
    in
    match Obs.Json.parse contents with
    | Error e -> die "%s: %s" report_file e
    | Ok json -> (
        match Engine.Exposition.of_report_json json with
        | Error e -> die "%s: %s" report_file e
        | Ok families -> print_string (Obs.Prom.render families))
  in
  let report_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"REPORT_JSON"
          ~doc:"A batch report written earlier with $(b,batch --json FILE).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Expose a saved batch report as Prometheus text format (post-hoc scrape)")
    Term.(const run $ report_file)

(* validate-trace ------------------------------------------------------ *)

let validate_trace_cmd =
  let run trace_file =
    let die fmt = Printf.ksprintf (fun m -> prerr_endline ("validate-trace: " ^ m); exit 1) fmt in
    let contents =
      try In_channel.with_open_text trace_file In_channel.input_all
      with Sys_error e -> die "%s" e
    in
    match Obs.Json.parse contents with
    | Error e -> die "%s: not valid JSON: %s" trace_file e
    | Ok json -> (
        match Obs.Trace.validate json with
        | Error e -> die "%s: %s" trace_file e
        | Ok () ->
            let events =
              match Obs.Json.member "traceEvents" json with
              | Some l -> ( match Obs.Json.to_list l with Some l -> List.length l | None -> 0)
              | None -> 0
            in
            Printf.printf "%s: valid Chrome trace (%d events)\n" trace_file events)
  in
  let trace_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE_JSON" ~doc:"A trace written with $(b,--trace FILE).")
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:"Check that a file is well-formed Chrome trace-event JSON (CI gate)")
    Term.(const run $ trace_file)

(* serve / client ----------------------------------------------------- *)

(* The resident daemon (privclusterd) and its line-protocol client; see
   OPERATIONS.md §10 for the protocol reference and recovery story. *)

let listen_term flags =
  let socket =
    Arg.(
      value
      & opt string "privclusterd.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:(Printf.sprintf "%s on TCP instead of the Unix socket." flags))
  in
  let combine socket tcp : Server.Daemon.listen =
    match tcp with
    | None -> `Unix socket
    | Some spec -> (
        match String.rindex_opt spec ':' with
        | Some i -> (
            let host = String.sub spec 0 i in
            let port = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt port with
            | Some p when p >= 0 -> `Tcp ((if host = "" then "127.0.0.1" else host), p)
            | _ ->
                prerr_endline ("--tcp: bad port in " ^ spec);
                exit 2)
        | None ->
            prerr_endline ("--tcp: expected HOST:PORT, got " ^ spec);
            exit 2)
  in
  Term.(const combine $ socket $ tcp)

let serve_cmd =
  let run () listen wal tenant_specs capacity jobs retries seed no_sync trace trace_sample
      slow_threshold_ms slow_log slow_keep slo_specs =
    enable_trace trace;
    let die fmt = Printf.ksprintf (fun m -> prerr_endline ("serve: " ^ m); exit 2) fmt in
    let tenants =
      List.map
        (fun s ->
          match Server.Tenants.spec_of_string s with Ok t -> t | Error e -> die "--tenant: %s" e)
        tenant_specs
    in
    if tenants = [] then die "at least one --tenant NAME:TOKEN[:CAP] is required";
    if trace_sample < 0 then die "--trace-sample: want a non-negative period, got %d" trace_sample;
    if slow_keep < 1 then die "--slow-keep: want at least 1, got %d" slow_keep;
    let slo_rules =
      match slo_specs with
      | [] -> Obs.Slo.default_rules
      | specs ->
          List.map
            (fun s ->
              match Obs.Slo.rule_of_line s with Ok r -> r | Error e -> die "--slo: %s" e)
            specs
    in
    let cfg =
      {
        Server.Daemon.listen;
        wal_path = wal;
        tenants;
        capacity;
        domains = jobs;
        retries;
        seed;
        sync = not no_sync;
        trace_sample;
        slow_threshold_ms;
        slow_log;
        slow_keep;
        slo_rules;
      }
    in
    let on_ready t =
      let addr =
        match Server.Daemon.sockaddr t with
        | Unix.ADDR_UNIX p -> "unix:" ^ p
        | Unix.ADDR_INET (a, p) -> Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p
      in
      (* Scripts wait for this line before connecting. *)
      print_endline ("privclusterd listening on " ^ addr);
      flush stdout
    in
    match Server.Daemon.run ~on_ready cfg with
    | Ok () ->
        write_trace trace;
        print_endline "privclusterd: clean drain"
    | Error e -> die "%s" e
  in
  let wal =
    Arg.(
      value
      & opt string "privclusterd.wal"
      & info [ "wal" ] ~docv:"PATH"
          ~doc:
            "Journaled budget ledger (append-only, fsync'd, CRC-framed). Replayed on restart so \
             \\(ε, δ\\) spend survives crashes.")
  in
  let tenant =
    Arg.(
      value & opt_all string []
      & info [ "tenant" ] ~docv:"NAME:TOKEN[:CAP]"
          ~doc:
            "Register a tenant (repeatable): its auth token and optional in-flight batch cap \
             (default 8).")
  in
  let capacity =
    Arg.(
      value & opt int 64
      & info [ "capacity" ]
          ~doc:"Submission-queue bound; runs beyond it are shed with $(i,queue_full).")
  in
  let jobs =
    Arg.(value & opt int 2 & info [ "jobs"; "j" ] ~doc:"Worker domains per batch.")
  in
  let retries = Arg.(value & opt int 2 & info [ "retries" ] ~doc:"Per-job retry allowance.") in
  let no_sync =
    Arg.(
      value & flag
      & info [ "no-sync" ]
          ~doc:
            "Skip the per-record WAL fsync. Only for benchmarks: a crash may then lose the \
             tail of the journal.")
  in
  let trace_sample =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Head-sample one request in $(docv) (0 = off), keeping its full span tree in the \
             slow-log ring. Deterministic — a hash of the request id decides, no RNG — so \
             outputs are bit-identical with sampling on or off.")
  in
  let slow_threshold_ms =
    Arg.(
      value & opt float 250.
      & info [ "slow-threshold" ] ~docv:"MS"
          ~doc:"Requests at or above $(docv) milliseconds are kept as slow exemplars.")
  in
  let slow_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-log" ] ~docv:"DIR"
          ~doc:
            "Bounded on-disk exemplar ring: span trees of sampled and slow requests, newest-N \
             ($(b,--slow-keep)), each openable with $(b,validate-trace).")
  in
  let slow_keep =
    Arg.(
      value & opt int 64
      & info [ "slow-keep" ] ~docv:"N" ~doc:"Exemplars retained in the $(b,--slow-log) ring.")
  in
  let slo =
    Arg.(
      value & opt_all string []
      & info [ "slo" ] ~docv:"RULE"
          ~doc:
            "SLO rule evaluated by the $(b,health) verb (repeatable; replaces the defaults). \
             Syntax: $(b,latency q=0.99 verb=* warn_ms=500 fire_ms=2000), \
             $(b,burn tenant=* dataset=* warn=0.5 fire=1.0), or \
             $(b,shed warn=0.01 fire=0.10).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run privclusterd: the resident multi-tenant private-query daemon")
    Term.(
      const run $ setup_logs $ listen_term "Listen" $ wal $ tenant $ capacity $ jobs $ retries
      $ seed $ no_sync $ trace_arg $ trace_sample $ slow_threshold_ms
      $ slow_log $ slow_keep $ slo)

let client_cmd =
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("client: " ^ m); exit 2) fmt in
  let connect listen tenant token =
    match Server.Client.connect listen ~tenant ~token with
    | Ok c -> c
    | Error f -> die "%s" (Server.Client.fail_message f)
  in
  let finish = function
    | Ok json ->
        print_string (Obs.Json.to_string json ^ "\n")
    | Error (`Server e) when (match e.Server.Wire.code with Server.Wire.Rejected _ -> true | _ -> false) ->
        prerr_endline ("client: " ^ Server.Client.fail_message (`Server e));
        exit 3
    | Error f ->
        prerr_endline ("client: " ^ Server.Client.fail_message f);
        exit 1
  in
  let tenant_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant name.")
  in
  let token_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "token" ]
          ~env:(Cmd.Env.info "PRIVCLUSTER_TOKEN")
          ~docv:"TOKEN" ~doc:"Tenant auth token.")
  in
  let dataset_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dataset" ] ~docv:"NAME" ~doc:"Dataset id (namespaced per tenant).")
  in
  let register_cmd =
    let run () listen tenant token dataset n dim axis frac radius seed budget_eps budget_delta
        mode_s slack =
      let mode =
        match Engine.Accountant.mode_of_string ~slack mode_s with
        | Ok m -> m
        | Error e -> die "%s" e
      in
      let c = connect listen tenant token in
      let r =
        Server.Client.register c ~dataset ~n ~dim ~axis ~frac ~radius ~seed
          ~budget:(Prim.Dp.v ~eps:budget_eps ~delta:budget_delta)
          ~mode ()
      in
      Server.Client.close c;
      finish r
    in
    let frac = Arg.(value & opt float 0.5 & info [ "frac" ] ~doc:"Planted cluster fraction.") in
    let radius = Arg.(value & opt float 0.05 & info [ "radius" ] ~doc:"Planted cluster radius.") in
    let budget_eps = Arg.(value & opt float 4.0 & info [ "budget-eps" ] ~doc:"Lifetime ε budget.") in
    let budget_delta =
      Arg.(value & opt float 1e-5 & info [ "budget-delta" ] ~doc:"Lifetime δ budget.")
    in
    let mode =
      Arg.(value & opt string "basic" & info [ "mode" ] ~doc:"Composition mode: basic, advanced or zcdp.")
    in
    let slack = Arg.(value & opt float 1e-9 & info [ "slack" ] ~doc:"δ' slack for advanced/zcdp.") in
    Cmd.v
      (Cmd.info "register"
         ~doc:
           "Register a synthetic planted-ball dataset with a lifetime budget (re-registering a \
            journaled dataset after a daemon restart replays its ledger)")
      Term.(
        const run $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ dataset_arg
        $ n $ dim $ axis $ frac $ radius $ seed $ budget_eps $ budget_delta $ mode $ slack)
  in
  let run_cmd =
    let run () listen tenant token dataset jobs_file seed_opt =
      let jobs =
        try In_channel.with_open_text jobs_file In_channel.input_all
        with Sys_error e -> die "%s" e
      in
      let c = connect listen tenant token in
      let r = Server.Client.run c ~dataset ?seed:seed_opt ~jobs () in
      Server.Client.close c;
      finish r
    in
    let jobs_file =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"JOBS_FILE" ~doc:"Jobs file shipped to the daemon (same format as batch).")
    in
    let seed_opt =
      Arg.(
        value
        & opt (some int) None
        & info [ "seed" ]
            ~doc:
              "Batch RNG base: with a fixed seed the verdicts are deterministic no matter how \
               clients interleave.")
    in
    Cmd.v
      (Cmd.info "run" ~doc:"Run a jobs file on the daemon (exit 3 if the request was shed)")
      Term.(
        const run $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ dataset_arg
        $ jobs_file $ seed_opt)
  in
  let simple name doc req =
    Cmd.v
      (Cmd.info name ~doc)
      Term.(
        const (fun () listen tenant token ->
            let c = connect listen tenant token in
            let r = Server.Client.request c req in
            Server.Client.close c;
            finish r)
        $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg)
  in
  let ledger_cmd =
    Cmd.v
      (Cmd.info "ledger"
         ~doc:"Fetch a dataset's privacy ledger (with attribution when the daemon traces)")
      Term.(
        const (fun () listen tenant token dataset ->
            let c = connect listen tenant token in
            let r = Server.Client.ledger c ~dataset in
            Server.Client.close c;
            finish r)
        $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ dataset_arg)
  in
  let append_cmd =
    let run () listen tenant token dataset n seed frac radius =
      let c = connect listen tenant token in
      let r = Server.Client.append c ~dataset ~n ~seed ~frac ~radius () in
      Server.Client.close c;
      finish r
    in
    let n = Arg.(value & opt int 500 & info [ "n"; "points" ] ~doc:"Points to append.") in
    let frac = Arg.(value & opt float 0.5 & info [ "frac" ] ~doc:"Planted cluster fraction.") in
    let radius = Arg.(value & opt float 0.05 & info [ "radius" ] ~doc:"Planted cluster radius.") in
    Cmd.v
      (Cmd.info "append"
         ~doc:
           "Append synthetic planted-ball points to a dataset, advancing its epoch (standing \
            queries tick; cached answers for older epochs stay valid for replays)")
      Term.(
        const run $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ dataset_arg
        $ n $ seed $ frac $ radius)
  in
  let retire_cmd =
    let run () listen tenant token dataset from_ count =
      let c = connect listen tenant token in
      let r = Server.Client.retire c ~dataset ~from_ ~count in
      Server.Client.close c;
      finish r
    in
    let from_ = Arg.(required & opt (some int) None & info [ "from" ] ~docv:"INDEX" ~doc:"First point index to retire (current-epoch numbering).") in
    let count = Arg.(required & opt (some int) None & info [ "count" ] ~docv:"N" ~doc:"How many consecutive points to retire.") in
    Cmd.v
      (Cmd.info "retire"
         ~doc:"Retire a contiguous range of points from a dataset, advancing its epoch")
      Term.(
        const run $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ dataset_arg
        $ from_ $ count)
  in
  let epoch_cmd =
    Cmd.v
      (Cmd.info "epoch"
         ~doc:"Show a dataset's current epoch, size, index backend and cache statistics")
      Term.(
        const (fun () listen tenant token dataset ->
            let c = connect listen tenant token in
            let r = Server.Client.epoch c ~dataset in
            Server.Client.close c;
            finish r)
        $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ dataset_arg)
  in
  let standing_cmd =
    let run () listen tenant token dataset id t_fraction eps delta periods seed_opt =
      let c = connect listen tenant token in
      let r =
        Server.Client.standing c ~dataset ~id ~t_fraction ~eps ~delta ~periods ?seed:seed_opt ()
      in
      Server.Client.close c;
      finish r
    in
    let id = Arg.(value & opt string "standing" & info [ "id" ] ~docv:"ID" ~doc:"Query id; tick k reports under ID#k.") in
    let t_fraction = Arg.(value & opt float 0.4 & info [ "t-fraction" ] ~doc:"Target cluster size as a fraction of n.") in
    let eps = Arg.(value & opt float 2.0 & info [ "eps" ] ~doc:"TOTAL ε over all periods (each tick charges eps/periods).") in
    let delta = Arg.(value & opt float delta_default & info [ "delta" ] ~doc:"TOTAL δ over all periods.") in
    let periods = Arg.(value & opt int 4 & info [ "periods" ] ~doc:"Number of answers: one now, then one per epoch transition.") in
    let seed_opt = Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Batch RNG base for the registration tick.") in
    Cmd.v
      (Cmd.info "standing"
         ~doc:
           "Register a standing 1-cluster query: the total budget is reserved up front as equal \
            per-period slices and one slice is committed per answer")
      Term.(
        const run $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ dataset_arg
        $ id $ t_fraction $ eps $ delta $ periods $ seed_opt)
  in
  let settle_cmd =
    let run () listen tenant token dataset action_s label =
      let action =
        match Server.Wire.settle_action_of_string action_s with
        | Some a -> a
        | None -> die "--action: want commit or release, got %S" action_s
      in
      let c = connect listen tenant token in
      let r = Server.Client.settle c ~dataset ~action ?label () in
      Server.Client.close c;
      match r with
      | Ok reply ->
          List.iter
            (fun (s : Server.Wire.settled_reservation) ->
              Printf.printf "%s %s (%g, %g)\n"
                (Server.Wire.settle_action_name reply.Server.Wire.action)
                s.Server.Wire.label s.Server.Wire.eps s.Server.Wire.delta)
            reply.Server.Wire.settled;
          Printf.printf "settled %d, %d orphan%s remaining\n"
            (List.length reply.Server.Wire.settled)
            reply.Server.Wire.remaining
            (if reply.Server.Wire.remaining = 1 then "" else "s")
      | Error (`Server e)
        when (match e.Server.Wire.code with Server.Wire.Rejected _ -> true | _ -> false) ->
          prerr_endline ("client: " ^ Server.Client.fail_message (`Server e));
          Stdlib.exit 3
      | Error f ->
          prerr_endline ("client: " ^ Server.Client.fail_message f);
          Stdlib.exit 1
    in
    let action =
      Arg.(
        required
        & opt (some string) None
        & info [ "action" ] ~docv:"commit|release"
            ~doc:
              "What to do with the orphans: $(b,commit) counts them as spent (safe — the \
               fallback may have drawn noise before the crash); $(b,release) returns the \
               headroom (only when the operator knows no noise was drawn).")
    in
    let label =
      Arg.(
        value
        & opt (some string) None
        & info [ "label" ] ~docv:"LABEL" ~doc:"Settle only the reservation(s) with this label.")
    in
    Cmd.v
      (Cmd.info "settle"
         ~doc:
           "Commit or release reservations orphaned by a crash (held after WAL replay); nothing \
            settles them automatically")
      Term.(
        const run $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ dataset_arg
        $ action $ label)
  in
  let print_table rows =
    (* Pad every column but the last to the widest cell in that column. *)
    let widths =
      List.fold_left
        (fun acc row ->
          List.mapi
            (fun i cell ->
              let prev = try List.nth acc i with _ -> 0 in
              max prev (String.length cell))
            row)
        [] rows
    in
    List.iter
      (fun row ->
        let n = List.length row in
        List.iteri
          (fun i cell ->
            if i = n - 1 then print_string cell
            else Printf.printf "%-*s  " (List.nth widths i) cell)
          row;
        print_newline ())
      rows
  in
  let metrics_cmd =
    let run () listen tenant token table =
      let c = connect listen tenant token in
      let r = Server.Client.metrics c in
      Server.Client.close c;
      match r with
      | Ok text when not table -> print_string text
      | Ok text ->
          (* Sample lines are "name{labels} value"; comments start with '#'. *)
          let rows =
            String.split_on_char '\n' text
            |> List.filter_map (fun line ->
                   if line = "" || line.[0] = '#' then None
                   else
                     match String.rindex_opt line ' ' with
                     | Some i ->
                         Some
                           [
                             String.sub line 0 i;
                             String.sub line (i + 1) (String.length line - i - 1);
                           ]
                     | None -> Some [ line ])
          in
          print_table ([ "METRIC"; "VALUE" ] :: rows)
      | Error f ->
          prerr_endline ("client: " ^ Server.Client.fail_message f);
          Stdlib.exit 1
    in
    let table =
      Arg.(
        value & flag
        & info [ "table" ]
            ~doc:"Render the samples as an aligned table instead of raw exposition text.")
    in
    Cmd.v
      (Cmd.info "metrics" ~doc:"Scrape this tenant's Prometheus text exposition")
      Term.(const run $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg $ table)
  in
  let health_cmd =
    let run () listen tenant token =
      let c = connect listen tenant token in
      let r = Server.Client.health c in
      Server.Client.close c;
      match r with
      | Error f ->
          prerr_endline ("client: " ^ Server.Client.fail_message f);
          Stdlib.exit 1
      | Ok (status, verdicts, payload) ->
          let draining =
            match Obs.Json.member "draining" payload with
            | Some (Obs.Json.Bool b) -> b
            | _ -> false
          in
          Printf.printf "status: %s%s\n"
            (Obs.Slo.status_to_string status)
            (if draining then " (draining)" else "");
          (match verdicts with
          | [] -> ()
          | _ ->
              print_table
                ([ "STATUS"; "SUBJECT"; "REASON"; "RULE" ]
                :: List.map
                     (fun (v : Obs.Slo.verdict) ->
                       [ Obs.Slo.status_to_string v.status; v.subject; v.reason; v.rule ])
                     verdicts));
          if status = Obs.Slo.Firing then Stdlib.exit 4
    in
    Cmd.v
      (Cmd.info "health"
         ~doc:
           "Evaluate the daemon's SLO rules: one verdict per rule and subject (exit 4 when any \
            rule is firing; answers while draining)")
      Term.(const run $ setup_logs $ listen_term "Connect" $ tenant_arg $ token_arg)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running privclusterd")
    [
      register_cmd;
      run_cmd;
      append_cmd;
      retire_cmd;
      epoch_cmd;
      standing_cmd;
      settle_cmd;
      ledger_cmd;
      simple "datasets" "List this tenant's datasets" Server.Wire.Datasets;
      metrics_cmd;
      health_cmd;
      simple "stats"
        "Dump the daemon's serving-telemetry snapshot (histograms, burn rates, sheds) as JSON"
        Server.Wire.Stats;
      simple "ping" "Liveness probe (also answers while draining)" Server.Wire.Ping;
    ]

let () =
  let doc = "differentially private location of a small cluster (PODS 2016)" in
  let info = Cmd.info "privcluster-cli" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd;
            batch_cmd;
            experiments_cmd;
            params_cmd;
            outliers_cmd;
            interior_cmd;
            quantile_cmd;
            domain_cmd;
            check_cmd;
            metrics_cmd;
            validate_trace_cmd;
            serve_cmd;
            client_cmd;
          ]))
