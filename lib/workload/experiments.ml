type cfg = { quick : bool; seed : int }

let default_cfg = { quick = false; seed = 20160626 (* PODS'16 *) }

let delta = Harness.default_delta
let beta = Harness.default_beta

let trials cfg ~full = if cfg.quick then max 1 (full / 3) else full

let fresh_rng cfg tag = Prim.Rng.create ~seed:(cfg.seed + Hashtbl.hash tag) ()

let status s =
  match s.Harness.failure with None -> "ok" | Some f -> f

(* ------------------------------------------------------------------ *)
(* E1: Table 1 head-to-head                                            *)
(* ------------------------------------------------------------------ *)

let e1_table1 cfg =
  Report.kv "what" "Table 1: methods vs cluster fraction and dimension";
  let axis = 256 in
  let eps = 2.0 in
  let n = if cfg.quick then 1200 else 2500 in
  let n_trials = trials cfg ~full:3 in
  let dims = if cfg.quick then [ 1; 2 ] else [ 1; 2; 8 ] in
  let fracs = if cfg.quick then [ 0.3; 0.8 ] else [ 0.15; 0.3; 0.55; 0.8 ] in
  let rows = ref [] in
  let add_row d f method_ (s : Harness.scored) =
    rows :=
      [
        string_of_int d;
        Report.pct f;
        method_;
        Printf.sprintf "%.0f" s.Harness.time_ms;
        (if s.Harness.delta_measured = max_int then "-" else string_of_int s.Harness.delta_measured);
        Report.f2 s.Harness.w_private;
        Report.f2 s.Harness.w_tight;
        status s;
      ]
      :: !rows
  in
  List.iter
    (fun d ->
      let grid = Geometry.Grid.create ~axis_size:axis ~dim:d in
      (* The center-stage noise scales with d/(ε·t) (see E5), so the d = 8
         rows need proportionally more data to be in-regime. *)
      let n = if d >= 8 then 2 * n else n in
      List.iter
        (fun f ->
          let rng = fresh_rng cfg ("e1", d, f) in
          let per_trial =
            List.init n_trials (fun _ ->
                let w =
                  Synth.adversarial_minority rng ~grid ~n ~cluster_fraction:f
                    ~cluster_radius:0.05
                in
                let t = int_of_float (0.9 *. float_of_int w.Synth.cluster_size) in
                let ps = Geometry.Pointset.create w.Synth.points in
                let idx = Geometry.Pointset.build_index ps in
                let _, r_hi = Metrics.r_opt_bounds_indexed idx ~t in
                let r_hi = Float.min r_hi w.Synth.cluster_radius in
                (w, t, ps, idx, r_hi))
          in
          let collect name run =
            let scores = List.map run per_trial in
            add_row d f name (Harness.median_scores scores)
          in
          (* This work. *)
          collect "this-work" (fun (_, t, _, idx, r_hi) ->
              fst
                (Harness.run_one_cluster rng Privcluster.Profile.practical ~grid ~eps ~delta
                   ~beta ~t ~r_hi idx));
          (* Exponential mechanism: candidate set |X|^d must stay sane. *)
          if Baselines.Exp_mech_cluster.candidate_count grid <= Baselines.Exp_mech_cluster.max_candidates
          then
            collect "exp-mech" (fun (_, t, ps, idx, r_hi) ->
                let r, ms =
                  Harness.time (fun () -> Baselines.Exp_mech_cluster.run rng ~grid ~eps ~t ps)
                in
                Harness.score_center ~idx ~t ~r_hi ~time_ms:ms
                  ~center:r.Baselines.Exp_mech_cluster.center
                  ~radius:r.Baselines.Exp_mech_cluster.radius);
          (* Threshold query release: d = 1 only. *)
          if d = 1 then
            collect "thresholds" (fun (w, t, _, idx, r_hi) ->
                let values = Array.map (fun p -> p.(0)) w.Synth.points in
                let r, ms =
                  Harness.time (fun () ->
                      Baselines.Threshold_release.run rng ~grid ~eps ~beta ~t values)
                in
                Harness.score_center ~idx ~t ~r_hi ~time_ms:ms
                  ~center:r.Baselines.Threshold_release.center
                  ~radius:r.Baselines.Threshold_release.radius);
          (* Private aggregation: works only for majority clusters. *)
          collect "private-agg" (fun (_, t, ps, idx, r_hi) ->
              let r, ms =
                Harness.time (fun () -> Baselines.Private_agg.run rng ~grid ~eps ~t ps)
              in
              Harness.score_center ~idx ~t ~r_hi ~time_ms:ms
                ~center:r.Baselines.Private_agg.center ~radius:r.Baselines.Private_agg.radius);
          (* Local model (LDP): its Ω(√n/ε) count noise is out of regime at
             this n — by design; the crossover subsection below shows where
             it comes back in. *)
          collect "local-model" (fun (_, t, ps, idx, r_hi) ->
              let r, ms =
                Harness.time (fun () ->
                    Privcluster.Local_cluster.run rng ~grid ~eps ~beta ~t ps)
              in
              match r with
              | Error f ->
                  Harness.failed ~time_ms:ms
                    (Format.asprintf "%a" Privcluster.Local_cluster.pp_failure f)
              | Ok r ->
                  Harness.score_center ~idx ~t ~r_hi ~time_ms:ms
                    ~center:r.Privcluster.Local_cluster.center
                    ~radius:r.Privcluster.Local_cluster.radius);
          (* Coreset MEB: centers well on majority clusters, drifts on
             minorities (the noisy average sees every point). *)
          collect "meb-fptas" (fun (_, t, ps, idx, r_hi) ->
              let r, ms =
                Harness.time (fun () ->
                    Baselines.Meb_fptas.run rng ~grid ~eps ~delta ~t ps)
              in
              match r with
              | Error f ->
                  Harness.failed ~time_ms:ms
                    (Format.asprintf "%a" Baselines.Meb_fptas.pp_failure f)
              | Ok r ->
                  Harness.score_center ~idx ~t ~r_hi ~time_ms:ms
                    ~center:r.Baselines.Meb_fptas.center ~radius:r.Baselines.Meb_fptas.radius);
          (* Non-private reference. *)
          collect "non-private" (fun (_, t, ps, idx, r_hi) ->
              let a, ms = Harness.time (fun () -> Baselines.Nonprivate.solve ps ~t) in
              Harness.score_center ~idx ~t ~r_hi ~time_ms:ms ~center:a.Baselines.Nonprivate.center
                ~radius:a.Baselines.Nonprivate.radius))
        fracs)
    dims;
  Report.table ~csv:"e1_table1"
    ~header:[ "d"; "frac"; "method"; "ms"; "dMeas"; "wPriv"; "wTight"; "status" ]
    (List.rev !rows);
  Report.kv "read as"
    "thresholds/exp-mech: w~1 but d<=2 only; private-agg/meb-fptas: fail below 55%; \
     local-model: needs n in the tens of thousands (see crossover); this-work: all d, \
     minority ok, w pays the capture-ball constant (wTight shows the center quality)";
  (* The centralized-vs-local crossover: the LDP pipeline pays Ω(√n/ε)
     count noise where the centralized one pays O(1/ε).  A 35% planted
     cluster that the centralized solver finds at n = 2000 takes the
     local protocol an order of magnitude more users before any scale's
     certificate is non-vacuous — and more again before a scale finer
     than the whole domain qualifies. *)
  Report.subhead "centralized vs local (d=2, 35% cluster, eps=2): the sqrt(n) crossover";
  let grid = Geometry.Grid.create ~axis_size:axis ~dim:2 in
  let ns_x = if cfg.quick then [ 2_000; 32_000 ] else [ 2_000; 8_000; 32_000 ] in
  let xrows =
    List.concat_map
      (fun n ->
        let rng = fresh_rng cfg ("e1x", n) in
        let w = Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.35 ~cluster_radius:0.05 in
        let t = int_of_float (0.8 *. float_of_int w.Synth.cluster_size) in
        let ps = Geometry.Pointset.create w.Synth.points in
        let idx = Geometry.Pointset.build_index ps in
        (* The planted radius is a valid r_opt upper bound for
           t ≤ cluster size — no O(n·t) sandwich at the larger n. *)
        let r_hi = w.Synth.cluster_radius in
        let row method_ (s : Harness.scored) =
          [
            string_of_int n;
            method_;
            Printf.sprintf "%.0f" s.Harness.time_ms;
            (if s.Harness.delta_measured = max_int then "-"
             else string_of_int s.Harness.delta_measured);
            Report.f2 s.Harness.w_private;
            status s;
          ]
        in
        let central =
          fst
            (Harness.run_one_cluster rng Privcluster.Profile.practical ~grid ~eps ~delta ~beta
               ~t ~r_hi idx)
        in
        let local =
          let r, ms =
            Harness.time (fun () -> Privcluster.Local_cluster.run rng ~grid ~eps ~beta ~t ps)
          in
          match r with
          | Error f ->
              Harness.failed ~time_ms:ms
                (Format.asprintf "%a" Privcluster.Local_cluster.pp_failure f)
          | Ok r ->
              Harness.score_center ~idx ~t ~r_hi ~time_ms:ms
                ~center:r.Privcluster.Local_cluster.center
                ~radius:r.Privcluster.Local_cluster.radius
        in
        [ row "this-work" central; row "local-model" local ])
      ns_x
  in
  Report.table ~csv:"e1_crossover" ~header:[ "n"; "method"; "ms"; "dMeas"; "wPriv"; "status" ]
    xrows;
  Report.kv "read as"
    "local-model fails outright at n=2000 (every certificate vacuous), returns the \
     whole-domain ball mid-range, and only at the largest n lands a block a few planted \
     radii wide — while the centralized solver is already in-regime at n=2000; the \
     sqrt(n)/eps vs 1/eps separation made concrete"

(* ------------------------------------------------------------------ *)
(* E2: radius approximation vs n                                       *)
(* ------------------------------------------------------------------ *)

let e2_radius_vs_n cfg =
  Report.kv "what" "Theorem 3.2: w vs n (practical identity path; paper-constant JL path)";
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let eps = 2.0 in
  let ns = if cfg.quick then [ 500; 2000 ] else [ 500; 1000; 2000; 4000 ] in
  let n_trials = trials cfg ~full:3 in
  let rows =
    List.map
      (fun n ->
        let rng = fresh_rng cfg ("e2", n) in
        let scores =
          List.init n_trials (fun _ ->
              let w =
                Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.55 ~cluster_radius:0.05
              in
              let t = int_of_float (0.9 *. float_of_int w.Synth.cluster_size) in
              let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Synth.points) in
              let _, r_hi = Metrics.r_opt_bounds_indexed idx ~t in
              let r_hi = Float.min r_hi w.Synth.cluster_radius in
              fst
                (Harness.run_one_cluster rng Privcluster.Profile.practical ~grid ~eps ~delta
                   ~beta ~t ~r_hi idx))
        in
        let s = Harness.median_scores scores in
        [
          string_of_int n;
          Report.f2 (sqrt (log (float_of_int n)));
          Report.f2 s.Harness.w_private;
          Report.f2 s.Harness.w_tight;
          Printf.sprintf "%.0f" s.Harness.time_ms;
          status s;
        ])
      ns
  in
  Report.table ~csv:"e2_identity" ~header:[ "n"; "sqrt(ln n)"; "wPriv"; "wTight"; "ms"; "status" ] rows;
  (* The genuine JL path: the private radius is (√2·300·r·√k) + noise with
     k = ⌈c·ln(2n/β)⌉.  The paper's c = 46 needs d in the hundreds before
     k < d, so we run c = 2 at d = 64 (the paper's box constant 300 is
     kept): k then grows like ln n while staying below d, and wPriv must
     track √k — i.e. √log n. *)
  Report.subhead "JL path (d=64, box constant 300, k = 2·ln(2n/b); the √log n radius law)";
  let d_jl = 64 in
  let grid_jl = Geometry.Grid.create ~axis_size:64 ~dim:d_jl in
  let jl_profile =
    {
      Privcluster.Profile.paper with
      Privcluster.Profile.jl_constant = 2.;
      max_rounds = Some 400;
    }
  in
  let ns_jl = if cfg.quick then [ 2000 ] else [ 2000; 6000; 12000 ] in
  let jl_rows =
    List.map
      (fun n ->
        let rng = fresh_rng cfg ("e2jl", n) in
        let w =
          Synth.planted_ball rng ~grid:grid_jl ~n ~cluster_fraction:0.8 ~cluster_radius:0.1
        in
        let t = int_of_float (0.7 *. float_of_int w.Synth.cluster_size) in
        let points = w.Synth.points in
        let result, ms =
          Harness.time (fun () ->
              Privcluster.Good_center.run rng jl_profile ~eps:16.0 ~delta ~beta ~t
                ~radius:w.Synth.cluster_radius points)
        in
        match result with
        | Error f ->
            [ string_of_int n; "-"; "-"; "-"; "-"; Printf.sprintf "%.0f" ms;
              Format.asprintf "%a" Privcluster.Good_center.pp_failure f ]
        | Ok c ->
            let k = c.Privcluster.Good_center.jl_dim in
            (* The data-independent part of the private radius: the D
               diameter bound √2·(box side)·√k — the Θ(r·√k) floor. *)
            let w_floor = sqrt 2. *. 300. *. sqrt (float_of_int k) in
            let w_priv = c.Privcluster.Good_center.private_radius /. w.Synth.cluster_radius in
            [
              string_of_int n;
              string_of_int k;
              Report.f2 w_priv;
              Report.f2 w_floor;
              Report.pct (1. -. (w_floor /. w_priv));
              string_of_int c.Privcluster.Good_center.axis_fallbacks;
              Printf.sprintf "%.0f" ms;
              "ok";
            ])
      ns_jl
  in
  Report.table ~csv:"e2_jl"
    ~header:[ "n"; "k"; "wPriv"; "wFloor=424sqrt(k)"; "noiseShare"; "axisFallbacks"; "ms"; "status" ]
    jl_rows;
  Report.kv "read as"
    "the private radius has a deterministic floor Θ(r·√k) with k = Θ(log n) — the paper's \
     headline √log n law — plus an averaging-noise share that decays as t grows; the pipeline \
     (JL, box search, rotated capture, noisy average) completes with zero axis fallbacks"

(* ------------------------------------------------------------------ *)
(* E3: Δ vs ε                                                          *)
(* ------------------------------------------------------------------ *)

let e3_delta_vs_eps cfg =
  Report.kv "what" "Theorem 3.2: cluster-size loss vs eps (certified bound and measured)";
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let n = if cfg.quick then 1500 else 3000 in
  let epss = if cfg.quick then [ 0.5; 2.0 ] else [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let n_trials = trials cfg ~full:3 in
  let rows =
    List.map
      (fun eps ->
        let rng = fresh_rng cfg ("e3", eps) in
        let certified =
          (* The certified Δ of the radius stage plus the center stage losses
             (as reported by One_cluster).  Computed on any run below. *)
          ref Float.nan
        in
        let radius_losses = ref [] and capture_losses = ref [] and tights = ref [] in
        for _ = 1 to n_trials do
          let w = Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.55 ~cluster_radius:0.05 in
          let t = int_of_float (0.9 *. float_of_int w.Synth.cluster_size) in
          let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Synth.points) in
          let _, r_hi = Metrics.r_opt_bounds_indexed idx ~t in
          let r_hi = Float.min r_hi w.Synth.cluster_radius in
          let score, result =
            Harness.run_one_cluster rng Privcluster.Profile.practical ~grid ~eps ~delta ~beta
              ~t ~r_hi idx
          in
          match result with
          | None -> ()
          | Some r ->
              certified := r.Privcluster.One_cluster.delta_bound;
              (* Measured radius-stage loss: t − (max points any ball of the
                 found radius holds). *)
              let z = r.Privcluster.One_cluster.radius_stage.Privcluster.Good_radius.radius in
              let counts = Geometry.Pointset.counts_within idx ~radius:z in
              let best = Array.fold_left max 0 counts in
              radius_losses := float_of_int (max 0 (t - best)) :: !radius_losses;
              (match r.Privcluster.One_cluster.center_stage with
              | Some c ->
                  capture_losses :=
                    Float.max 0. (float_of_int t -. c.Privcluster.Good_center.noisy_count)
                    :: !capture_losses
              | None -> ());
              tights := score.Harness.w_tight :: !tights
        done;
        [
          Report.g eps;
          Printf.sprintf "%.0f" !certified;
          Report.f2 (Metrics.median !radius_losses);
          Report.f2 (Metrics.median !capture_losses);
          Report.f2 (Metrics.median !tights);
        ])
      epss
  in
  Report.table ~csv:"e3_delta_vs_eps"
    ~header:[ "eps"; "deltaCert"; "radiusLoss"; "captureLoss"; "wTight" ] rows;
  Report.kv "read as"
    "deltaCert scales as 1/eps (the theorem); measured losses are far below it and shrink with \
     eps; wTight improves as noise ~ 1/eps falls"

(* ------------------------------------------------------------------ *)
(* E4: GoodRadius quality + ablations                                  *)
(* ------------------------------------------------------------------ *)

let e4_goodradius cfg =
  Report.kv "what" "Lemma 4.6: GoodRadius ratio r/r_opt; backend and radius-grid ablations";
  let eps = 2.0 in
  let n = if cfg.quick then 1200 else 2500 in
  let n_trials = trials cfg ~full:6 in
  let variants =
    [
      ("rc+geometric", { Privcluster.Profile.practical with backend = Rec_concave; radius_grid = Geometric });
      ("rc+linear", { Privcluster.Profile.practical with backend = Rec_concave; radius_grid = Linear });
      ("bin+geometric", { Privcluster.Profile.practical with backend = Binary_search; radius_grid = Geometric });
      ("bin+linear", { Privcluster.Profile.practical with backend = Binary_search; radius_grid = Linear });
    ]
  in
  let dims = if cfg.quick then [ 2 ] else [ 1; 2; 4 ] in
  let rows = ref [] in
  List.iter
    (fun d ->
      let grid = Geometry.Grid.create ~axis_size:256 ~dim:d in
      List.iter
        (fun (name, profile) ->
          let rng = fresh_rng cfg ("e4", d, name) in
          let ratios = ref [] and zeros = ref 0 and gammas = ref Float.nan and ms = ref [] in
          for _ = 1 to n_trials do
            let w = Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.3 ~cluster_radius:0.04 in
            let t = int_of_float (0.9 *. float_of_int w.Synth.cluster_size) in
            let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Synth.points) in
            let _, r_hi = Metrics.r_opt_bounds_indexed idx ~t in
            let r_hi = Float.min r_hi w.Synth.cluster_radius in
            let r, elapsed =
              Harness.time (fun () ->
                  Privcluster.Good_radius.run rng profile ~grid ~eps ~delta ~beta ~t idx)
            in
            ms := elapsed :: !ms;
            gammas := r.Privcluster.Good_radius.gamma;
            if r.Privcluster.Good_radius.zero_shortcut then incr zeros
            else ratios := (r.Privcluster.Good_radius.radius /. r_hi) :: !ratios
          done;
          rows :=
            [
              string_of_int d;
              name;
              Printf.sprintf "%.0f" !gammas;
              Report.f2 (Metrics.median !ratios);
              Report.f2 (Metrics.quantile !ratios ~q:0.9);
              string_of_int !zeros;
              Printf.sprintf "%.0f" (Metrics.median !ms);
            ]
            :: !rows)
        variants)
    dims;
  Report.table ~csv:"e4_goodradius"
    ~header:[ "d"; "variant"; "Gamma"; "ratio p50"; "ratio p90"; "zeroHits"; "ms" ]
    (List.rev !rows);
  Report.kv "read as"
    "geometric grids cut Gamma by an order of magnitude, keeping the run in-regime (certified \
     loss below t) with ratios inside the 5.7x guarantee; the linear-grid variants are \
     out-of-regime at this (t, eps) - their certified Gamma exceeds t, so they return radii \
     covering only t - Theta(Gamma) points (ratios below 1), exactly as Lemma 3.6 prices it; \
     the binary-search backend is the cheapest"

(* ------------------------------------------------------------------ *)
(* E5: minimum workable t vs dimension                                 *)
(* ------------------------------------------------------------------ *)

let e5_min_t_vs_d cfg =
  Report.kv "what" "Theorem 3.2: smallest cluster size the solver handles, vs dimension";
  let eps = 2.0 in
  let dims = if cfg.quick then [ 2; 8 ] else [ 1; 2; 4; 8; 16 ] in
  let ts = if cfg.quick then [ 250; 1000 ] else [ 125; 250; 500; 1000; 2000 ] in
  let n_trials = trials cfg ~full:3 in
  let rows =
    List.map
      (fun d ->
        let grid = Geometry.Grid.create ~axis_size:256 ~dim:d in
        let rng = fresh_rng cfg ("e5", d) in
        let works t =
          let ok = ref 0 in
          for _ = 1 to n_trials do
            let n = max 1000 (5 * t / 2) in
            let frac = float_of_int t /. float_of_int n /. 0.9 in
            let w = Synth.planted_ball rng ~grid ~n ~cluster_fraction:frac ~cluster_radius:0.05 in
            let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Synth.points) in
            let _, r_hi = Metrics.r_opt_bounds_indexed idx ~t in
            let r_hi = Float.min r_hi w.Synth.cluster_radius in
            let s, _ =
              Harness.run_one_cluster rng Privcluster.Profile.practical ~grid ~eps ~delta ~beta
                ~t ~r_hi idx
            in
            if s.Harness.failure = None && s.Harness.w_tight <= 4.0 then incr ok
          done;
          2 * !ok > n_trials
        in
        let t_min = List.find_opt works ts in
        let recommended =
          Privcluster.One_cluster.recommended_min_t Privcluster.Profile.practical ~grid ~eps
            ~delta ~beta ~n:4000
        in
        [
          string_of_int d;
          (match t_min with Some t -> string_of_int t | None -> Printf.sprintf ">%d" (List.fold_left max 0 ts));
          Printf.sprintf "%.0f" recommended;
          Report.f2 (sqrt (float_of_int d));
          string_of_int d;
        ])
      dims
  in
  Report.table ~csv:"e5_min_t" ~header:[ "d"; "tMin(measured)"; "tMin(cert)"; "sqrt(d)"; "d" ] rows;
  Report.kv "read as"
    "the identity path pays ~d in t (noise ~ d/(eps t)); the paper's JL path pays sqrt(d) \
     asymptotically but its constants only win for d >> log n (see E2's JL table)"

(* ------------------------------------------------------------------ *)
(* E6: domain size |X|                                                 *)
(* ------------------------------------------------------------------ *)

let e6_domain_size cfg =
  Report.kv "what" "Remark 3.4: accuracy vs |X| (log* vs log vs polylog)";
  let eps = 2.0 in
  let n = if cfg.quick then 1500 else 3000 in
  let axes = if cfg.quick then [ 64; 4096 ] else [ 16; 64; 256; 1024; 4096; 16384; 65536 ] in
  let n_trials = trials cfg ~full:3 in
  let rows =
    List.map
      (fun axis ->
        let grid = Geometry.Grid.create ~axis_size:axis ~dim:1 in
        let g_of profile =
          Privcluster.Good_radius.gamma profile ~grid ~eps:(eps /. 2.) ~delta:(delta /. 2.) ~beta
        in
        let g_geom = g_of Privcluster.Profile.practical in
        let g_lin = g_of { Privcluster.Profile.practical with radius_grid = Linear } in
        let g_bin =
          g_of { Privcluster.Profile.practical with backend = Binary_search; radius_grid = Linear }
        in
        let paper_gamma =
          Recconcave.Rec_concave.paper_promise ~eps:(eps /. 4.) ~beta ~delta:(delta /. 2.)
            ~domain_size:(2. *. float_of_int axis)
        in
        let tree_slack = Baselines.Threshold_release.query_error_bound ~grid ~eps ~beta in
        (* Measured: radius-stage loss with the practical profile. *)
        let rng = fresh_rng cfg ("e6", axis) in
        let losses = ref [] in
        for _ = 1 to n_trials do
          let w = Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.55 ~cluster_radius:0.03 in
          let t = int_of_float (0.9 *. float_of_int w.Synth.cluster_size) in
          let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Synth.points) in
          let r =
            Privcluster.Good_radius.run rng Privcluster.Profile.practical ~grid ~eps ~delta
              ~beta ~t idx
          in
          if not r.Privcluster.Good_radius.zero_shortcut then begin
            let counts =
              Geometry.Pointset.counts_within idx ~radius:r.Privcluster.Good_radius.radius
            in
            let best = Array.fold_left max 0 counts in
            losses := float_of_int (max 0 (t - best)) :: !losses
          end
        done;
        [
          string_of_int axis;
          Printf.sprintf "%.0f" g_geom;
          Printf.sprintf "%.0f" g_lin;
          Printf.sprintf "%.0f" g_bin;
          Printf.sprintf "%.1e" paper_gamma;
          Printf.sprintf "%.0f" tree_slack;
          Report.f2 (Metrics.median !losses);
        ])
      axes
  in
  Report.table ~csv:"e6_domain_size"
    ~header:
      [ "|X|"; "G(geom)"; "G(linear)"; "G(binsearch)"; "G(paper formula)"; "treeSlack"; "measLoss" ]
    rows;
  Report.kv "read as"
    "all private columns grow at most logarithmically in |X| (the paper formula is flat in |X| \
     but its 8^log* constant dwarfs everything at these scales); the measured loss is flat"

(* ------------------------------------------------------------------ *)
(* E7: sample and aggregate                                            *)
(* ------------------------------------------------------------------ *)

let e7_sample_aggregate cfg =
  Report.kv "what" "Theorem 6.3 vs 6.2: aggregators as the good-run fraction alpha falls";
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let eps = 2.0 in
  let k = if cfg.quick then 1500 else 3000 in
  let alphas = if cfg.quick then [ 0.9; 0.4 ] else [ 0.9; 0.6; 0.4; 0.25 ] in
  let n_trials = trials cfg ~full:3 in
  let good_center = [| 0.3; 0.7 |] in
  let good_radius = 0.03 in
  let rows = ref [] in
  List.iter
    (fun alpha ->
      let rng = fresh_rng cfg ("e7", alpha) in
      let errs_avg = ref [] and errs_med = ref [] and errs_1c = ref [] and fails = ref 0 in
      for _ = 1 to n_trials do
        let y =
          Synth.estimator_outputs rng ~grid ~k ~good_fraction:alpha ~good_center ~good_radius
        in
        let dist c = Geometry.Vec.dist c good_center in
        (* (a) GUPT-style noisy averaging. *)
        errs_avg := dist (Baselines.Private_agg.gupt_average rng ~grid ~eps ~delta y) :: !errs_avg;
        (* (b) coordinatewise private median. *)
        let med =
          Baselines.Private_agg.run rng ~grid ~eps ~t:(int_of_float (alpha *. float_of_int k /. 2.))
            (Geometry.Pointset.create y)
        in
        errs_med := dist med.Baselines.Private_agg.center :: !errs_med;
        (* (c) the 1-cluster aggregator (Algorithm 4's step 3). *)
        let t = max 1 (int_of_float (alpha *. float_of_int k /. 2.)) in
        match
          Privcluster.One_cluster.run rng Privcluster.Profile.practical ~grid ~eps ~delta ~beta
            ~t y
        with
        | Error _ -> incr fails
        | Ok r -> errs_1c := dist r.Privcluster.One_cluster.center :: !errs_1c
      done;
      rows :=
        [
          Report.pct alpha;
          Report.f3 (Metrics.median !errs_avg);
          Report.f3 (Metrics.median !errs_med);
          Report.f3 (Metrics.median !errs_1c);
          string_of_int !fails;
        ]
        :: !rows)
    alphas;
  Report.table ~csv:"e7_aggregators"
    ~header:[ "alpha"; "gupt-avg err"; "priv-median err"; "1-cluster err"; "1c fails" ]
    (List.rev !rows);
  Report.kv "read as"
    "averaging and medians drift once junk outweighs the stable mode (alpha < 50%); the \
     1-cluster aggregator stays on the mode down to alpha·k/2 ~ its minimum cluster size";
  (* End-to-end Algorithm 4 vs GUPT on a genuinely unstable analysis: a
     mode-seeking estimator (the denser of two k-means centers) on bimodal
     data with a 55/45 split.  Per-block sampling noise flips which mode
     looks denser, so the block outputs are themselves bimodal (the
     majority mode holds alpha ~ 0.6-0.7 of them): GUPT's average lands
     between the modes, the 1-cluster aggregation sits on the majority
     mode - the regime Theorem 6.3 is for.  (On analyses whose outputs
     concentrate, GUPT is simpler and at least as accurate - Theorem 6.2's
     home turf; the table above quantifies the crossover.) *)
  Report.subhead
    "end-to-end: Algorithm 4 vs GUPT (f = dominant-mode estimator, 55/45 bimodal data)";
  let rng = fresh_rng cfg "e7b" in
  let n_raw = if cfg.quick then 90_000 else 180_000 in
  let major = [| 0.3; 0.3 |] and minor = [| 0.7; 0.7 |] in
  let raw =
    Array.init n_raw (fun _ ->
        let c = if Prim.Rng.bernoulli rng ~p:0.55 then major else minor in
        Array.map
          (fun x -> Float.max 0. (Float.min 1. (x +. Prim.Rng.gaussian rng ~sigma:0.015 ())))
          c)
  in
  let lloyd_rng = Prim.Rng.split rng in
  let dominant_mode block =
    let km = Geometry.Kmeans.lloyd lloyd_rng ~k:2 block in
    let centers = km.Geometry.Kmeans.centers in
    let counts = Array.make 2 0 in
    Array.iter
      (fun p ->
        let j = Geometry.Kmeans.assign centers p in
        counts.(j) <- counts.(j) + 1)
      block;
    if counts.(0) >= counts.(1) then centers.(0) else centers.(1)
  in
  (* Block arithmetic: k_blocks = n/(9·m) outputs, of which the majority
     mode holds ~60-75%; alpha = 0.7 targets t = 0.35·k_blocks, which must
     clear the radius stage's regime threshold 2·Gamma (~100 at eps 2). *)
  let m_block = 25 in
  (match
     Privcluster.Sample_aggregate.run rng Privcluster.Profile.practical ~grid ~eps ~delta ~beta
       ~m:m_block ~alpha:0.7 ~f:dominant_mode raw
   with
  | Error e ->
      Report.kv "SA run" (Format.asprintf "failed: %a" Privcluster.One_cluster.pp_failure e)
  | Ok r ->
      Report.kv "SA blocks k" (string_of_int r.Privcluster.Sample_aggregate.blocks);
      Report.kv "SA t = alpha*k/2" (string_of_int r.Privcluster.Sample_aggregate.t_used);
      Report.kv "SA stable point error (to majority mode)"
        (Report.f3 (Geometry.Vec.dist r.Privcluster.Sample_aggregate.stable_point major));
      Report.kv "SA stable radius" (Report.f3 r.Privcluster.Sample_aggregate.stable_radius);
      let amp = Privcluster.Sample_aggregate.amplified ~eps ~delta in
      Report.kv "SA amplified params" (Prim.Dp.to_string amp));
  let gupt = Baselines.Gupt.run rng ~grid ~eps ~delta ~m:m_block ~f:dominant_mode raw in
  Report.kv "GUPT estimate error (to majority mode)"
    (Report.f3 (Geometry.Vec.dist gupt.Baselines.Gupt.estimate major));
  Report.kv "mode separation (for scale)" (Report.f3 (Geometry.Vec.dist major minor))

(* ------------------------------------------------------------------ *)
(* E8: outlier screening                                               *)
(* ------------------------------------------------------------------ *)

let e8_outliers cfg =
  Report.kv "what" "Section 1.1: accuracy of a private mean with vs without 1-cluster screening";
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let eps = 2.0 in
  let n = if cfg.quick then 1500 else 3000 in
  let n_trials = trials cfg ~full:5 in
  let fractions = if cfg.quick then [ 0.1 ] else [ 0.02; 0.1; 0.25 ] in
  let rows =
    List.map
      (fun outlier_fraction ->
        let rng = fresh_rng cfg ("e8", outlier_fraction) in
        let errs_raw = ref [] and errs_scr = ref [] and excluded = ref [] and fails = ref 0 in
        for _ = 1 to n_trials do
          let w = Synth.with_outliers rng ~grid ~n ~outlier_fraction ~inlier_radius:0.04 in
          let inliers =
            Array.of_list
              (List.filteri
                 (fun i _ -> not (Array.mem i w.Synth.outlier_indices))
                 (Array.to_list w.Synth.data))
          in
          let truth = Geometry.Vec.mean inliers in
          let dist = function
            | Prim.Noisy_avg.Average a -> Some (Geometry.Vec.dist a.Prim.Noisy_avg.average truth)
            | Prim.Noisy_avg.Bottom -> None
          in
          (match
             Privcluster.Outlier.domain_mean rng ~eps:(eps /. 2.) ~delta:(delta /. 2.) ~grid
               w.Synth.data
           with
          | m -> ( match dist m with Some e -> errs_raw := e :: !errs_raw | None -> ()));
          match
            Privcluster.Outlier.detect rng Privcluster.Profile.practical ~grid ~eps:(eps /. 2.)
              ~delta:(delta /. 2.) ~beta
              ~inlier_fraction:(0.95 *. (1. -. outlier_fraction))
              w.Synth.data
          with
          | Error _ -> incr fails
          | Ok det -> (
              let out_total = Array.length w.Synth.outlier_indices in
              let out_excluded =
                Array.fold_left
                  (fun acc i -> if det.Privcluster.Outlier.inlier w.Synth.data.(i) then acc else acc + 1)
                  0 w.Synth.outlier_indices
              in
              if out_total > 0 then
                excluded := (float_of_int out_excluded /. float_of_int out_total) :: !excluded;
              match
                dist
                  (Privcluster.Outlier.screened_mean rng ~eps:(eps /. 2.) ~delta:(delta /. 2.)
                     det w.Synth.data)
              with
              | Some e -> errs_scr := e :: !errs_scr
              | None -> incr fails)
        done;
        [
          Report.pct outlier_fraction;
          Report.f3 (Metrics.median !errs_raw);
          Report.f3 (Metrics.median !errs_scr);
          Report.pct (Metrics.median !excluded);
          string_of_int !fails;
        ])
      fractions
  in
  Report.table ~csv:"e8_outliers"
    ~header:[ "outliers"; "mean err (domain)"; "mean err (screened)"; "outliers excluded"; "fails" ]
    rows;
  Report.kv "read as"
    "screening shrinks the averaging sensitivity from the domain diameter to the found ball's \
     and removes the outlier bias; both effects show in the error column"

(* ------------------------------------------------------------------ *)
(* E9: k-clustering heuristic                                          *)
(* ------------------------------------------------------------------ *)

let e9_k_clustering cfg =
  Report.kv "what" "Observation 3.5: covering k planted balls by iterating the solver";
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let n = if cfg.quick then 2400 else 4500 in
  let n_trials = trials cfg ~full:3 in
  let ks = if cfg.quick then [ 3 ] else [ 2; 3; 5 ] in
  let rows =
    List.map
      (fun k ->
        let rng = fresh_rng cfg ("e9", k) in
        let coverages = ref [] and found = ref [] and ms = ref [] in
        for _ = 1 to n_trials do
          let w = Synth.planted_balls rng ~grid ~n ~k ~cluster_radius:0.04 ~noise_fraction:0.1 in
          let r, elapsed =
            Harness.time (fun () ->
                Privcluster.K_cluster.run rng Privcluster.Profile.practical ~grid
                  ~eps:(2.0 *. float_of_int k) ~delta ~beta ~k
                  ~t_fraction:(0.7 /. float_of_int k)
                  w.Synth.all_points)
          in
          ms := elapsed :: !ms;
          found := float_of_int (List.length r.Privcluster.K_cluster.balls) :: !found;
          coverages :=
            (float_of_int (Privcluster.K_cluster.coverage r.Privcluster.K_cluster.balls w.Synth.all_points)
            /. float_of_int (Array.length w.Synth.all_points))
            :: !coverages
        done;
        [
          string_of_int k;
          Report.f2 (Metrics.median !found);
          Report.pct (Metrics.median !coverages);
          Printf.sprintf "%.0f" (Metrics.median !ms);
        ])
      ks
  in
  Report.table ~csv:"e9_kcluster" ~header:[ "k"; "balls found"; "coverage"; "ms" ] rows;
  Report.kv "read as" "iterated 1-cluster recovers the planted balls and covers ~90% of the data"

(* ------------------------------------------------------------------ *)
(* E10: interior point via the reduction                               *)
(* ------------------------------------------------------------------ *)

let e10_interior_point cfg =
  Report.kv "what" "Theorem 5.3: interior point from a 1-cluster oracle";
  let grid = Geometry.Grid.create ~axis_size:4096 ~dim:1 in
  let ms_sizes = if cfg.quick then [ 4000 ] else [ 2000; 4000; 8000 ] in
  let n_trials = trials cfg ~full:5 in
  let rows =
    List.map
      (fun m ->
        let rng = fresh_rng cfg ("e10", m) in
        let successes = ref 0 and elapsed = ref [] and radii = ref [] in
        for _ = 1 to n_trials do
          (* Bimodal data: interior points live in [0.2, 0.8]. *)
          let values =
            Array.init m (fun i ->
                let base = if i mod 2 = 0 then 0.2 else 0.8 in
                let v = base +. Prim.Rng.gaussian rng ~sigma:0.01 () in
                Float.max 0. (Float.min 1. v))
          in
          let inner_n = m / 2 in
          let r, t_ms =
            Harness.time (fun () ->
                Privcluster.Interior_point.run rng Privcluster.Profile.practical ~grid ~eps:2.0
                  ~delta ~beta ~inner_n ~w:16. values)
          in
          elapsed := t_ms :: !elapsed;
          match r with
          | Error _ -> ()
          | Ok ip ->
              radii := ip.Privcluster.Interior_point.oracle_radius :: !radii;
              let lo = Array.fold_left Float.min infinity values in
              let hi = Array.fold_left Float.max neg_infinity values in
              if ip.Privcluster.Interior_point.point >= lo && ip.Privcluster.Interior_point.point <= hi
              then incr successes
        done;
        [
          string_of_int m;
          Printf.sprintf "%d/%d" !successes n_trials;
          Report.f3 (Metrics.median !radii);
          Printf.sprintf "%.0f" (Metrics.median !elapsed);
        ])
      ms_sizes
  in
  Report.table ~csv:"e10_interior" ~header:[ "m"; "interior hits"; "oracle radius"; "ms" ] rows;
  Report.kv "theorem 5.3 m for w=16, eps=2"
    (Printf.sprintf "%.0f (n=100)"
       (Privcluster.Interior_point.required_m ~n:100 ~w:16. ~eps:2. ~delta:1e-6 ~beta:0.1));
  Report.kv "read as"
    "the reduction converts every successful 1-cluster call into an interior point; the \
     required sample size depends on |X| only through log* (Theorem 5.2's lower bound)"

(* ------------------------------------------------------------------ *)
(* E11: geometric substrate tails                                      *)
(* ------------------------------------------------------------------ *)

let e11_geometry_tails cfg =
  Report.kv "what" "Lemmas 4.9/4.10: measured JL distortion and rotation projections vs bounds";
  let rng = fresh_rng cfg "e11" in
  let d = 64 in
  let n = if cfg.quick then 100 else 200 in
  let points = Array.init n (fun _ -> Prim.Rng.gaussian_vector rng ~dim:d ~sigma:1.0) in
  let ks = if cfg.quick then [ 16; 64 ] else [ 8; 16; 32; 64; 128 ] in
  let jl_rows =
    List.map
      (fun k ->
        let f = Geometry.Jl.make rng ~input_dim:d ~output_dim:k in
        let proj = Geometry.Jl.apply_all f points in
        let worst = ref 0. in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let orig = Geometry.Vec.dist_sq points.(i) points.(j) in
            let new_ = Geometry.Vec.dist_sq proj.(i) proj.(j) in
            if orig > 0. then worst := Float.max !worst (Float.abs ((new_ /. orig) -. 1.))
          done
        done;
        let eta_bound = sqrt (8. /. float_of_int k *. log (2. *. float_of_int (n * n) /. beta)) in
        [ string_of_int k; Report.f3 !worst; Report.f3 eta_bound ])
      ks
  in
  Report.subhead "JL transform (Lemma 4.10): worst pairwise squared-distance distortion";
  Report.table ~csv:"e11_jl" ~header:[ "k"; "measured eta"; "bound eta (beta=10%)" ] jl_rows;
  Report.subhead "random rotation (Lemma 4.9): worst |<x-y, z_i>| / ||x-y||";
  let rot = Geometry.Rotation.make rng ~dim:d in
  let worst = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let diff = Geometry.Vec.sub points.(i) points.(j) in
      let norm = Geometry.Vec.norm2 diff in
      if norm > 0. then
        for axis = 0 to d - 1 do
          worst :=
            Float.max !worst (Float.abs (Geometry.Rotation.project rot diff axis) /. norm)
        done
    done
  done;
  Report.kv "measured worst projection" (Report.f3 !worst);
  Report.kv "Lemma 4.9 bound"
    (Report.f3 (Geometry.Rotation.projection_bound ~dim:d ~n_points:n ~beta));
  Report.kv "read as" "both measured tails sit inside their stated bounds"

(* ------------------------------------------------------------------ *)
(* E12: design-choice ablations                                        *)
(* ------------------------------------------------------------------ *)

let e12_ablations cfg =
  Report.kv "what" "ablations of the DESIGN.md design choices: projection path, box side factor";
  let eps = 2.0 in
  let delta' = delta and beta' = beta in
  let d = 8 in
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:d in
  let n = if cfg.quick then 1500 else 3000 in
  let n_trials = trials cfg ~full:4 in
  let run_with profile tag rows =
    let rng = fresh_rng cfg ("e12", tag) in
    let scores =
      List.init n_trials (fun _ ->
          let w = Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.6 ~cluster_radius:0.06 in
          let t = int_of_float (0.9 *. float_of_int w.Synth.cluster_size) in
          let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Synth.points) in
          let _, r_hi = Metrics.r_opt_bounds_indexed idx ~t in
          let r_hi = Float.min r_hi w.Synth.cluster_radius in
          fst
            (Harness.run_one_cluster rng profile ~grid ~eps ~delta:delta' ~beta:beta' ~t ~r_hi
               idx))
    in
    let s = Harness.median_scores scores in
    [
      tag;
      Report.f2 s.Harness.w_private;
      Report.f2 s.Harness.w_tight;
      Printf.sprintf "%.0f" s.Harness.time_ms;
      status s;
    ]
    :: rows
  in
  Report.subhead "projection path at d = 8 (identity vs forced JL, same data law)";
  let identity = Privcluster.Profile.practical in
  let forced_jl =
    { Privcluster.Profile.practical with jl_cap_at_dim = false; jl_constant = 0.5 }
  in
  let rows = run_with identity "identity (k = d)" [] in
  let rows = run_with forced_jl "JL (k ~ 5 < d)" rows in
  Report.table ~csv:"e12_projection" ~header:[ "projection"; "wPriv"; "wTight"; "ms"; "status" ] (List.rev rows);
  Report.subhead "box side factor (practical profile, d = 2)";
  let grid2 = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let factors = if cfg.quick then [ 4.; 10. ] else [ 3.; 4.; 6.; 10.; 20. ] in
  let rows =
    List.map
      (fun box_side_factor ->
        let profile = { Privcluster.Profile.practical with box_side_factor } in
        let rng = fresh_rng cfg ("e12b", box_side_factor) in
        let scores =
          List.init n_trials (fun _ ->
              let w =
                Synth.planted_ball rng ~grid:grid2 ~n ~cluster_fraction:0.6 ~cluster_radius:0.05
              in
              let t = int_of_float (0.9 *. float_of_int w.Synth.cluster_size) in
              let idx = Geometry.Pointset.build_index (Geometry.Pointset.create w.Synth.points) in
              let _, r_hi = Metrics.r_opt_bounds_indexed idx ~t in
              let r_hi = Float.min r_hi w.Synth.cluster_radius in
              fst
                (Harness.run_one_cluster rng profile ~grid:grid2 ~eps ~delta:delta' ~beta:beta'
                   ~t ~r_hi idx))
        in
        let rounds =
          (* Rounds used is in the one-cluster detail; approximate via time
             variance is noisy — report failure share instead. *)
          match (Harness.median_scores scores).Harness.failure with
          | None -> "0"
          | Some s -> s
        in
        let s = Harness.median_scores scores in
        [
          Report.g box_side_factor;
          Report.f2 s.Harness.w_private;
          Report.f2 s.Harness.w_tight;
          Printf.sprintf "%.0f" s.Harness.time_ms;
          rounds;
        ])
      factors
  in
  Report.table ~csv:"e12_box_factor" ~header:[ "factor"; "wPriv"; "wTight"; "ms"; "failed" ] rows;
  Report.kv "read as"
    "identity beats forced-JL whenever d <= k (the JL path pays its ln-factor capture ball); \
     small box factors shrink the private radius until the per-round capture probability, and \
     then the sparse-vector retries, give out"

(* ------------------------------------------------------------------ *)
(* E13: private quantiles (RecConcave application)                     *)
(* ------------------------------------------------------------------ *)

let e13_quantiles cfg =
  Report.kv "what" "private quantiles via RecConcave (the machinery behind IntPoint step 4)";
  let grid = Geometry.Grid.create ~axis_size:1024 ~dim:1 in
  let n = if cfg.quick then 2000 else 5000 in
  let n_trials = trials cfg ~full:10 in
  let epss = if cfg.quick then [ 1.0 ] else [ 0.25; 1.0; 4.0 ] in
  let rows =
    List.concat_map
      (fun eps ->
        let rng = fresh_rng cfg ("e13", eps) in
        List.map
          (fun q ->
            let errs = ref [] in
            for _ = 1 to n_trials do
              (* Beta-ish skewed data via squaring uniforms. *)
              let values = Array.init n (fun _ -> Prim.Rng.float rng 1.0 ** 2.) in
              let res = Privcluster.Quantile.quantile rng ~grid ~eps ~q values in
              let rank =
                Array.fold_left
                  (fun acc x -> if x <= res.Privcluster.Quantile.value then acc + 1 else acc)
                  0 values
              in
              errs :=
                Float.abs (float_of_int rank -. res.Privcluster.Quantile.target_rank) :: !errs
            done;
            let bound =
              Privcluster.Quantile.rank_error_bound ~grid ~eps ~beta:Harness.default_beta ()
            in
            [
              Report.g eps;
              Report.g q;
              Report.f2 (Metrics.median !errs);
              Report.f2 (Metrics.quantile !errs ~q:0.9);
              Printf.sprintf "%.0f" bound;
            ])
          [ 0.25; 0.5; 0.9 ])
      epss
  in
  Report.table ~csv:"e13_quantiles" ~header:[ "eps"; "q"; "rank err p50"; "rank err p90"; "bound" ] rows;
  Report.kv "read as"
    "measured rank errors scale as 1/eps and sit far inside the certified whp bound"

(* ------------------------------------------------------------------ *)
(* E14: scalability of the k-d tree index                              *)
(* ------------------------------------------------------------------ *)

let e14_scalability cfg =
  Report.kv "what" "end-to-end time and answer quality vs n on the k-d tree index";
  let grid = Geometry.Grid.create ~axis_size:256 ~dim:2 in
  let eps = 2.0 in
  let ns = if cfg.quick then [ 2000; 16000 ] else [ 2000; 8000; 32000; 64000 ] in
  let rows =
    List.map
      (fun n ->
        let rng = fresh_rng cfg ("e14", n) in
        let w = Synth.planted_ball rng ~grid ~n ~cluster_fraction:0.55 ~cluster_radius:0.05 in
        let t = int_of_float (0.9 *. float_of_int w.Synth.cluster_size) in
        let ps = Geometry.Pointset.create w.Synth.points in
        let idx, build_ms = Harness.time (fun () -> Geometry.Pointset.build_index ps) in
        let result, solve_ms =
          Harness.time (fun () ->
              Privcluster.One_cluster.run_indexed rng Privcluster.Profile.practical ~grid ~eps
                ~delta ~beta ~t idx)
        in
        let tight =
          match result with
          | Ok r ->
              Report.f2
                (Metrics.tight_radius ps ~center:r.Privcluster.One_cluster.center ~t
                /. w.Synth.cluster_radius)
          | Error _ -> "-"
        in
        [ string_of_int n; Printf.sprintf "%.0f" build_ms; Printf.sprintf "%.0f" solve_ms; tight ])
      ns
  in
  Report.table ~csv:"e14_scalability" ~header:[ "n"; "build ms"; "solve ms"; "w" ] rows;
  Report.kv "read as"
    "the k-d tree keeps the whole pipeline running to 64k+ points in O(n) memory with the \
     same answer quality (its per-probe cost grows only mildly with n)"

(* ------------------------------------------------------------------ *)

let all =
  [
    ("E1", "Table 1: method comparison", e1_table1);
    ("E2", "Radius approximation vs n", e2_radius_vs_n);
    ("E3", "Cluster loss vs eps", e3_delta_vs_eps);
    ("E4", "GoodRadius ratio + ablations", e4_goodradius);
    ("E5", "Minimum cluster size vs dimension", e5_min_t_vs_d);
    ("E6", "Accuracy vs domain size |X|", e6_domain_size);
    ("E7", "Sample and aggregate", e7_sample_aggregate);
    ("E8", "Outlier screening", e8_outliers);
    ("E9", "k-clustering heuristic", e9_k_clustering);
    ("E10", "Interior point reduction", e10_interior_point);
    ("E11", "Geometric substrate tails", e11_geometry_tails);
    ("E12", "Design-choice ablations", e12_ablations);
    ("E13", "Private quantiles", e13_quantiles);
    ("E14", "Index scalability", e14_scalability);
  ]

let run_one cfg (id, title, f) =
  Report.headline (Printf.sprintf "%s - %s" id title);
  Report.kv "mode" (if cfg.quick then "quick" else "full");
  Report.kv "seed" (string_of_int cfg.seed);
  f cfg

let run ?only cfg =
  let selected =
    match only with
    | None -> all
    | Some ids -> List.filter (fun (id, _, _) -> List.mem id ids) all
  in
  List.iter (run_one cfg) selected
