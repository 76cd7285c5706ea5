let src = Logs.Src.create "privcluster.good-center" ~doc:"Algorithm 2 (GoodCenter)"

module Log = (val Logs.src_log src : Logs.LOG)

type failure = No_heavy_box | Box_selection_failed | Averaging_bottom

type success = {
  center : Geometry.Vec.t;
  private_radius : float;
  jl_dim : int;
  identity_projection : bool;
  rounds_used : int;
  axis_fallbacks : int;
  capture_radius : float;
  noisy_count : float;
}

let pp_failure ppf = function
  | No_heavy_box -> Format.fprintf ppf "no heavy box found within the round budget"
  | Box_selection_failed -> Format.fprintf ppf "stability histogram released no box"
  | Averaging_bottom -> Format.fprintf ppf "noisy average returned bottom"

let pp_success ppf s =
  Format.fprintf ppf
    "{center=%a; private_radius=%.4f; k=%d; identity=%b; rounds=%d; fallbacks=%d; capture=%.4f; \
     m_hat=%.1f}"
    Geometry.Vec.pp s.center s.private_radius s.jl_dim s.identity_projection s.rounds_used
    s.axis_fallbacks s.capture_radius s.noisy_count

(* Steps 2–6: repeatedly draw a randomly shifted box partition of the
   projected space and ask AboveThreshold whether some box is heavy.
   [proj] is the (already projected) pointset; occupancies are computed
   over its flat rows. *)
let find_heavy_boxing rng (profile : Profile.t) ~eps ~beta ~t ~side ~k proj =
  let n = Geometry.Pointset.n proj in
  let rounds = Profile.rounds profile ~n ~beta in
  Obs.Span.with_span ~cat:"phase"
    ~attrs:(fun () -> [ ("rounds_max", Obs.Span.I rounds) ])
    "good_center.above_threshold"
  @@ fun () ->
  let slack = Prim.Sparse_vector.accuracy_bound ~eps:(eps /. 4.) ~k:rounds ~beta in
  let sv =
    Prim.Sparse_vector.create rng ~eps:(eps /. 4.) ~threshold:(float_of_int t -. slack)
  in
  let rec loop round =
    if round > rounds then None
    else begin
      let boxing = Geometry.Boxing.make rng ~dim:k ~len:side in
      let cells = Geometry.Boxing.occupancy boxing proj in
      let q = float_of_int (List.fold_left (fun acc (_, c) -> Int.max acc c) 0 cells) in
      match Prim.Sparse_vector.query sv q with
      | Prim.Sparse_vector.Above -> Some (boxing, cells, round)
      | Prim.Sparse_vector.Below -> loop (round + 1)
    end
  in
  loop 1

(* Steps 8–10 (JL path): deterministically bound D in a rotated frame.
   Returns the center of the bounding ball C and the per-run count of axes
   that needed the data-independent fallback. *)
let rotated_capture rng ~eps ~delta ~beta ~d ~k ~r ~axis_factor captured =
  (* The d per-axis histograms run at (ε_axis, δ_axis); their advanced
     composition is certified ≤ (ε/4, δ/4) (Lemma 4.11), which is what
     this phase charges.  The [composition] attribute marks that the
     children's {e basic} sum may legitimately exceed the phase charge. *)
  Obs.Span.with_charged ~cat:"phase"
    ~attrs:(fun () ->
      [ ("axes", Obs.Span.I d); ("composition", Obs.Span.S "advanced") ])
    ~eps:(eps /. 4.) ~delta:(delta /. 4.) "good_center.rotated_capture"
  @@ fun () ->
  let n_captured = Geometry.Pointset.n captured in
  let cst = Geometry.Pointset.storage captured in
  let coffs = Geometry.Pointset.row_offsets captured in
  let rotation = Geometry.Rotation.make rng ~dim:d in
  let df = float_of_int d in
  let nf = float_of_int (max 2 n_captured) in
  let p = axis_factor *. r *. sqrt (float_of_int k *. log (df *. nf /. beta) /. df) in
  let eps_axis = eps /. (10. *. sqrt (df *. log (8. /. delta))) in
  let delta_axis = delta /. (8. *. df) in
  let fallbacks = ref 0 in
  (* Data-independent fallback when an axis's histogram releases nothing:
     the interval containing the domain center's projection (points live in
     the unit cube by convention). *)
  let cube_center = Array.make d 0.5 in
  let centers =
    Array.init d (fun i ->
        let part = Geometry.Interval.make rng ~len:p in
        let coords =
          Array.map (fun off -> Geometry.Rotation.project_row rotation cst ~off i) coffs
        in
        let chosen =
          Prim.Stability_hist.select_by rng ~eps:eps_axis ~delta:delta_axis
            ~key:(Geometry.Interval.index_of part) coords
        in
        let j =
          match chosen with
          | Some cell -> cell.Prim.Stability_hist.key
          | None ->
              incr fallbacks;
              Geometry.Interval.index_of part (Geometry.Rotation.project rotation cube_center i)
        in
        let lo, hi = Geometry.Interval.bounds part j in
        0.5 *. (lo +. hi))
  in
  let center = Geometry.Rotation.from_coords rotation centers in
  (* Î_i has length 3p, so the box has half-diagonal (3p/2)·√d; C doubles it
     (the paper's 2700 = 2 × 1350 slack). *)
  let capture_radius = 3. *. p *. sqrt df in
  (center, capture_radius, !fallbacks)

let run_ps rng (profile : Profile.t) ~eps ~delta ~beta ~t ~radius:r ps =
  if not (r > 0.) then invalid_arg "Good_center.run: radius must be positive";
  if not (eps > 0.) then invalid_arg "Good_center.run: eps must be positive";
  let n = Geometry.Pointset.n ps in
  if n = 0 then invalid_arg "Good_center.run: empty input";
  let d = Geometry.Pointset.dim ps in
  let k = Profile.jl_dim profile ~n ~d ~beta in
  let identity_projection = k >= d in
  let k = if identity_projection then d else k in
  (* Stage span carrying GoodCenter's budgeted share.  Its four mechanism
     phases consume ε/4 + (ε/4, δ/4) + (ε/4, δ/4) + (ε/4, δ/4) ≤ (ε, δ)
     (the rotated-capture phase runs only off the JL path). *)
  Obs.Span.with_charged ~cat:"stage"
    ~attrs:(fun () ->
      [ ("t", Obs.Span.I t); ("jl_dim", Obs.Span.I k);
        ("identity_projection", Obs.Span.B identity_projection) ])
    ~eps ~delta "good_center"
  @@ fun () ->
  let proj =
    if identity_projection then ps
    else begin
      Obs.Span.with_span ~cat:"phase"
        ~attrs:(fun () -> [ ("d", Obs.Span.I d); ("k", Obs.Span.I k) ])
        "good_center.jl_project"
        (fun () ->
          let jl = Geometry.Jl.make rng ~input_dim:d ~output_dim:k in
          Geometry.Jl.project jl ps)
    end
  in
  let pst = Geometry.Pointset.storage proj in
  let poffs = Geometry.Pointset.row_offsets proj in
  let side = profile.Profile.box_side_factor *. r in
  match find_heavy_boxing rng profile ~eps ~beta ~t ~side ~k proj with
  | None -> Error No_heavy_box
  | Some (boxing, cells, rounds_used) ->
      Log.debug (fun m ->
          m "heavy boxing after %d rounds (k=%d, identity=%b, side=%.4f)" rounds_used k
            identity_projection side);
      (
      (* Step 7: pick the heavy box privately. *)
      match
        Obs.Span.with_span ~cat:"phase" "good_center.box_select" (fun () ->
            Prim.Stability_hist.select rng ~eps:(eps /. 4.) ~delta:(delta /. 4.) cells)
      with
      | None -> Error Box_selection_failed
      | Some cell ->
          let key = cell.Prim.Stability_hist.key in
          Log.debug (fun m ->
              m "box selected: true count %d, noisy %.1f" cell.Prim.Stability_hist.count
                cell.Prim.Stability_hist.noisy_count);
          (* Membership is decided on the precomputed projected rows —
             bit-identical to re-projecting the original point. *)
          let in_box i = Geometry.Boxing.row_in_box boxing pst ~off:poffs.(i) key in
          let capture_center, capture_radius, axis_fallbacks =
            if identity_projection then begin
              (* The box itself bounds D deterministically: C is its
                 bounding ball.  (Practical-profile shortcut; see .mli.) *)
              let center = Geometry.Boxing.center boxing key in
              (center, 0.5 *. side *. sqrt (float_of_int d), 0)
            end
            else begin
              let kept = ref [] in
              for i = n - 1 downto 0 do
                if in_box i then kept := i :: !kept
              done;
              let captured =
                Geometry.Pointset.subset ps ~indices:(Array.of_list !kept)
              in
              rotated_capture rng ~eps ~delta ~beta ~d ~k ~r
                ~axis_factor:(Profile.axis_interval_factor profile)
                captured
            end
          in
          let st = Geometry.Pointset.storage ps in
          let offs = Geometry.Pointset.row_offsets ps in
          let pred i =
            in_box i
            && Geometry.Vec.dist_to_row st ~off:offs.(i) ~dim:d capture_center
               <= capture_radius
          in
          (* Step 11: noisy average of D ∩ C. *)
          let avg =
            Obs.Span.with_span ~cat:"phase" "good_center.noisy_average" (fun () ->
                Prim.Noisy_avg.run_rows rng ~eps:(eps /. 4.) ~delta:(delta /. 4.)
                  ~diameter:(2. *. capture_radius) ~pred ~dim:d ~offs st)
          in
          (match avg with
          | Prim.Noisy_avg.Bottom -> Error Averaging_bottom
          | Prim.Noisy_avg.Average { average; m_hat; sigma } ->
              (* Diameter bound on D: box diagonal, inflated by √2 when the
                 JL distortion (η = 1/2) separates the projected and the
                 original metric. *)
              let diam_d =
                let diag = side *. sqrt (float_of_int k) in
                if identity_projection then diag else sqrt 2. *. diag
              in
              let noise_tail =
                sqrt (float_of_int d)
                *. Prim.Gaussian_mech.coordinate_tail_bound ~sigma ~dim:d ~beta
              in
              Ok
                {
                  center = average;
                  private_radius = diam_d +. noise_tail;
                  jl_dim = k;
                  identity_projection;
                  rounds_used;
                  axis_fallbacks;
                  capture_radius;
                  noisy_count = m_hat;
                }))

let run rng profile ~eps ~delta ~beta ~t ~radius points =
  if not (radius > 0.) then invalid_arg "Good_center.run: radius must be positive";
  if not (eps > 0.) then invalid_arg "Good_center.run: eps must be positive";
  if Array.length points = 0 then invalid_arg "Good_center.run: empty input";
  run_ps rng profile ~eps ~delta ~beta ~t ~radius (Geometry.Pointset.create points)
