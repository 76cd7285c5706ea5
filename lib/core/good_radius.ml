let src = Logs.Src.create "privcluster.good-radius" ~doc:"Algorithm 1 (GoodRadius)"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  radius : float;
  radius_index : int;
  gamma : float;
  delta_bound : float;
  zero_shortcut : bool;
  score_evals : int;
}

(* The candidate radius set, per the profile: the paper's linear grid or the
   geometric alternative.  [half i] is the index whose radius is (at least)
   half of candidate [i]'s — exact for linear ([i/2]) and for geometric
   ([i − 2], since consecutive radii differ by √2). *)
type candidates = { size : int; radius_of : int -> float; half : int -> int }

let candidates (profile : Profile.t) grid =
  match profile.Profile.radius_grid with
  | Profile.Linear ->
      {
        size = Geometry.Grid.radius_candidates grid;
        radius_of = Geometry.Grid.radius_of_index grid;
        half = (fun i -> i / 2);
      }
  | Profile.Geometric ->
      {
        size = Geometry.Grid.geometric_candidates grid;
        radius_of = Geometry.Grid.geometric_radius_of_index grid;
        half = (fun i -> max 0 (i - 2));
      }

let pp_result ppf r =
  Format.fprintf ppf "{radius=%.5f; index=%d; gamma=%.1f; delta<=%.1f; zero=%b; evals=%d}"
    r.radius r.radius_index r.gamma r.delta_bound r.zero_shortcut r.score_evals

let gamma (profile : Profile.t) ~grid ~eps ~delta:_ ~beta =
  let size = (candidates profile grid).size in
  match profile.Profile.backend with
  | Profile.Rec_concave ->
      2.
      *. Recconcave.Rec_concave.loss_bound ~base:profile.Profile.rc_base ~size
           ~eps:(eps /. 2.) ~beta:(beta /. 2.) ()
  | Profile.Binary_search ->
      Recconcave.Monotone_search.accuracy_bound ~size ~eps:(eps /. 2.) ~sensitivity:2.0
        ~beta:(beta /. 2.)

let run rng (profile : Profile.t) ~grid ~eps ~delta ~beta ~t ?(zero_floor = 0.) index =
  if not (eps > 0.) then invalid_arg "Good_radius.run: eps must be positive";
  if t < 1 || t > Geometry.Pointset.n (Geometry.Pointset.index_pointset index) then
    invalid_arg "Good_radius.run: t must be in [1, n]";
  (* Stage span carrying GoodRadius's budgeted share (the invocation
     (ε, δ)); the mechanism children — zero-test Laplace at ε/2 and the
     RecConcave / binary-search run at ε/2 — consume exactly ε of it. *)
  Obs.Span.with_charged ~cat:"stage"
    ~attrs:(fun () -> [ ("t", Obs.Span.I t) ])
    ~eps ~delta "good_radius"
  @@ fun () ->
  let cand = candidates profile grid in
  let g = gamma profile ~grid ~eps ~delta ~beta in
  let tf = float_of_int t in
  let score =
    match profile.Profile.backend with
    | Profile.Rec_concave ->
        (* RecConcave's covering cells evaluate L at every candidate index
           (twice over, memoized), so the eager batched sweep does exactly
           the work the lazy path would — with each pair's distance
           computed at most once for all radii, and none past the first
           radius where L saturates ([Pointset.score_l_many]).  Values are
           bit-identical to per-radius [score_l]; [Quality]'s memo/evals
           bookkeeping is unchanged. *)
        let radii = Array.init cand.size cand.radius_of in
        let l_all = Geometry.Pointset.score_l_many index ~cap:t ~radii in
        Recconcave.Quality.create ~size:cand.size ~f:(Array.get l_all)
    | Profile.Binary_search ->
        (* The monotone search touches O(log size) radii; stay lazy. *)
        Recconcave.Quality.create ~size:cand.size ~f:(fun i ->
            Geometry.Pointset.score_l index ~cap:t ~radius:(cand.radius_of i))
  in
  let l i = Recconcave.Quality.eval score i in
  (* Step 2: radius-zero shortcut.  L has sensitivity 2, budget ε/2.  The
     paper's threshold t − 2Γ − slack is floored: when t < 2Γ the paper's
     test is vacuously true (its guarantee is out of regime) and would fire
     on incidental duplication far below the requested cluster size.  The
     floor max(2·slack, t/2) keeps the shortcut meaning "a radius-0 cluster
     of size comparable to the request exists"; raising the threshold never
     hurts utility because the main search covers radius 0 too (index 0 is
     a candidate). *)
  let slack = 4. /. eps *. log (2. /. beta) in
  (* Sensitivity-2 release at ε/2: scale 2/(ε/2) = 4/ε, bit-identical to
     the former direct [Rng.laplace] draw. *)
  let l0_noisy = Prim.Laplace.scalar rng ~eps:(eps /. 2.) ~sensitivity:2.0 (l 0) in
  let zero_threshold =
    Float.max (tf -. (2. *. g) -. slack)
      (Float.max zero_floor (Float.max (2. *. slack) (tf /. 2.)))
  in
  let delta_bound = (4. *. g) +. slack in
  Log.debug (fun m ->
      m "gamma=%.1f candidates=%d L(0)~%.1f zero-threshold=%.1f" g cand.size l0_noisy
        zero_threshold);
  if tf < 2. *. g then
    Log.warn (fun m ->
        m
          "t = %d is below the certified regime (t < 2*Gamma = %.0f at this eps/profile): the \
           returned radius is best-effort only"
          t (2. *. g));
  if l0_noisy > zero_threshold then
    {
      radius = 0.;
      radius_index = 0;
      gamma = g;
      delta_bound;
      zero_shortcut = true;
      score_evals = Recconcave.Quality.evals score;
    }
  else begin
    let idx =
      match profile.Profile.backend with
      | Profile.Rec_concave ->
          (* Steps 3–4: Q(r) = ½·min(t − L(r/2), L(r) − t + 4Γ), searched by
             RecConcave with budget ε/2. *)
          let q =
            Recconcave.Quality.create ~size:cand.size ~f:(fun i ->
                0.5 *. Float.min (tf -. l (cand.half i)) (l i -. tf +. (4. *. g)))
          in
          let report =
            Recconcave.Rec_concave.solve rng ~eps:(eps /. 2.) ~base:profile.Profile.rc_base q
          in
          report.Recconcave.Rec_concave.chosen
      | Profile.Binary_search ->
          (* Footnote alternative: smallest radius whose (noisy) L clears
             t − 2Γ; L is monotone in the radius. *)
          let r =
            Recconcave.Monotone_search.solve rng ~eps:(eps /. 2.) ~sensitivity:2.0
              ~target:(tf -. (2. *. g))
              score
          in
          r.Recconcave.Monotone_search.index
    in
    Log.debug (fun m ->
        m "chose index %d -> radius %.5f (L evals %d)" idx (cand.radius_of idx)
          (Recconcave.Quality.evals score));
    {
      radius = cand.radius_of idx;
      radius_index = idx;
      gamma = g;
      delta_bound;
      zero_shortcut = false;
      score_evals = Recconcave.Quality.evals score;
    }
  end
