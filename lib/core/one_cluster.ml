type failure = Center_failure of Good_center.failure | Zero_cluster_not_found

type result = {
  center : Geometry.Vec.t;
  radius : float;
  t_requested : int;
  delta_bound : float;
  radius_stage : Good_radius.result;
  center_stage : Good_center.success option;
}

let pp_failure ppf = function
  | Center_failure f -> Format.fprintf ppf "center stage: %a" Good_center.pp_failure f
  | Zero_cluster_not_found -> Format.fprintf ppf "zero-radius cluster not re-found"

let center_stage_loss (profile : Profile.t) ~eps ~beta ~n =
  let eps_c = eps /. 2. in
  let rounds = Profile.rounds profile ~n ~beta in
  let sv = Prim.Sparse_vector.accuracy_bound ~eps:(eps_c /. 4.) ~k:rounds ~beta in
  let hist = Prim.Stability_hist.utility_loss ~eps:(eps_c /. 4.) ~n ~beta in
  (2. *. sv) +. hist

let run_indexed rng (profile : Profile.t) ~grid ~eps ~delta ~beta ~t index =
  (* End-to-end span.  Deliberately uncharged: its attribution is the sum
     of its stage children — GoodRadius at (ε/2, δ/2) plus either
     GoodCenter at (ε/2, δ/2) or the zero-path histogram at (ε/2, δ/2) —
     which totals exactly (ε, δ). *)
  Obs.Span.with_span ~cat:"stage"
    ~attrs:(fun () -> [ ("t", Obs.Span.I t); ("eps", Obs.Span.F eps); ("delta", Obs.Span.F delta) ])
    "one_cluster"
  @@ fun () ->
  let ps = Geometry.Pointset.index_pointset index in
  let n = Geometry.Pointset.n ps in
  (* The zero path is completed by a stability-histogram query at
     (ε/2, δ/2); only let the shortcut fire when that query can succeed. *)
  let zero_floor =
    Prim.Stability_hist.utility_requirement ~eps:(eps /. 2.) ~delta:(delta /. 2.)
      ~n:(Geometry.Pointset.n ps) ~beta
  in
  let radius_stage =
    Good_radius.run rng profile ~grid ~eps:(eps /. 2.) ~delta:(delta /. 2.) ~beta ~t ~zero_floor
      index
  in
  let loss = radius_stage.Good_radius.delta_bound +. center_stage_loss profile ~eps ~beta ~n in
  if radius_stage.Good_radius.zero_shortcut || radius_stage.Good_radius.radius = 0. then begin
    (* Radius 0 (via the step-2 shortcut or the search itself landing on
       candidate 0): some exact grid point is heavy; one histogram query
       finds it.  The histogram is keyed on snapped flat rows — same keys
       in the same order as snapping boxed points. *)
    let st = Geometry.Pointset.storage ps and offs = Geometry.Pointset.row_offsets ps in
    match
      Prim.Stability_hist.select_by rng ~eps:(eps /. 2.) ~delta:(delta /. 2.)
        ~key:(fun i -> Geometry.Grid.snap_row grid st ~off:offs.(i))
        (Array.init n Fun.id)
    with
    | Some cell ->
        Ok
          {
            center = cell.Prim.Stability_hist.key;
            radius = 0.;
            t_requested = t;
            delta_bound = loss;
            radius_stage;
            center_stage = None;
          }
    | None -> Error Zero_cluster_not_found
  end
  else begin
    match
      Good_center.run_ps rng profile ~eps:(eps /. 2.) ~delta:(delta /. 2.) ~beta ~t
        ~radius:radius_stage.Good_radius.radius ps
    with
    | Error f -> Error (Center_failure f)
    | Ok success ->
        (* Clamping the center to the domain cube is post-processing and can
           only help: every input point is inside the cube, so projecting
           the center onto it never increases any point's distance to it. *)
        let clamped =
          Array.map (fun c -> Float.max 0. (Float.min 1. c)) success.Good_center.center
        in
        Ok
          {
            center = clamped;
            radius = success.Good_center.private_radius;
            t_requested = t;
            delta_bound = loss;
            radius_stage;
            center_stage = Some success;
          }
  end

let run_ps rng profile ~grid ~eps ~delta ~beta ~t ps =
  run_indexed rng profile ~grid ~eps ~delta ~beta ~t (Geometry.Pointset.build_index ps)

let run rng profile ~grid ~eps ~delta ~beta ~t points =
  run_ps rng profile ~grid ~eps ~delta ~beta ~t (Geometry.Pointset.create points)

let budget_breakdown (profile : Profile.t) ~eps ~delta ~d =
  ignore profile;
  let er = eps /. 2. in
  let ec = eps /. 2. and dc = delta /. 2. in
  let df = float_of_int d in
  (* The d per-axis histograms each run at (eps_c/(10*sqrt(d*ln(8/delta_c))),
     delta_c/(8d)); report their advanced-composition total, which
     Lemma 4.11 bounds by (eps_c/4, delta_c/4). *)
  let eps_axis = ec /. (10. *. sqrt (df *. log (8. /. dc))) in
  let axes_total =
    Prim.Composition.advanced
      (Prim.Dp.v ~eps:eps_axis ~delta:(dc /. (8. *. df)))
      ~k:d
      ~delta':(dc /. 8.)
  in
  [
    ("good-radius/zero-test (Laplace)", Prim.Dp.pure ~eps:(er /. 2.));
    ("good-radius/search (RecConcave or binary search)", Prim.Dp.pure ~eps:(er /. 2.));
    ("good-center/above-threshold", Prim.Dp.pure ~eps:(ec /. 4.));
    ("good-center/box-histogram", Prim.Dp.v ~eps:(ec /. 4.) ~delta:(dc /. 4.));
    (Printf.sprintf "good-center/%d-axis-histograms (advanced comp.)" d, axes_total);
    ("good-center/noisy-average", Prim.Dp.v ~eps:(ec /. 4.) ~delta:(dc /. 4.));
  ]

let recommended_min_t (profile : Profile.t) ~grid ~eps ~delta ~beta ~n =
  let radius_delta =
    (4. *. Good_radius.gamma profile ~grid ~eps:(eps /. 2.) ~delta:(delta /. 2.) ~beta)
    +. (8. /. eps *. log (2. /. beta))
  in
  let eps_c = eps /. 2. in
  let hist_req =
    Prim.Stability_hist.utility_requirement ~eps:(eps_c /. 4.) ~delta:(delta /. 8.) ~n ~beta
  in
  let navg_offset = 2. /. (eps_c /. 4.) *. log (2. /. (delta /. 8.)) in
  radius_delta +. center_stage_loss profile ~eps ~beta ~n +. hist_req +. navg_offset

module For_testing = struct
  let pp_result ppf r =
    Format.fprintf ppf "{center=%a; radius=%.4f; t=%d; delta<=%.1f; radius_stage=%a%a}"
      Geometry.Vec.pp r.center r.radius r.t_requested r.delta_bound Good_radius.pp_result
      r.radius_stage
      (fun ppf -> function
        | None -> Format.fprintf ppf "; zero-path"
        | Some c -> Format.fprintf ppf "; center_stage=%a" Good_center.pp_success c)
      r.center_stage
end
