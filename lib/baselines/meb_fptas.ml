type result = {
  center : Geometry.Vec.t;
  radius : float;
  coreset_size : int;
  refinement_rounds : int;
}

type failure = Center_bottom

let pp_failure ppf = function
  | Center_bottom -> Format.fprintf ppf "noisy-average bottom: coreset count bound non-positive"

let default_coreset = 400
let default_rounds = 6

(* The coreset stage runs NoisyAVG on an m-of-n sample with replacement;
   secrecy of the subsample (Prim.Subsample, valid for ε₀ ≤ 1, n ≥ 2m)
   amplifies its (ε₀, δ₀) into (6·ε₀·m/n, e^ε̃·4·(m/n)·δ₀).  Given the
   stage budget we invert: spend the largest ε₀ ≤ 1 whose amplified cost
   stays within it, and pick δ₀ so the amplified δ stays within [delta].
   When n < 2m the lemma does not apply and the stage runs on the full
   data at the un-amplified budget (still DP, just not cheaper). *)
let coreset_budget ~eps_stage ~delta ~n ~coreset =
  let m = max 1 (min coreset n) in
  if n >= 2 * m then begin
    let eps0 = Float.min 1.0 (eps_stage *. float_of_int n /. (6. *. float_of_int m)) in
    let ratio = float_of_int m /. float_of_int n in
    let eps_eff = 6. *. eps0 *. ratio in
    let delta0 = Float.min 0.25 (delta /. (exp eps_eff *. 4. *. ratio)) in
    let eff = Prim.Subsample.amplify ~eps:eps0 ~delta:delta0 ~m ~n in
    (m, eps0, delta0, eff)
  end
  else (m, eps_stage, delta, Prim.Dp.v ~eps:eps_stage ~delta)

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

let run rng ~grid ~eps ~delta ?(coreset = default_coreset) ?(rounds = default_rounds) ~t ps =
  let d = Geometry.Pointset.dim ps in
  if d <> Geometry.Grid.dim grid then invalid_arg "Meb_fptas.run: dimension mismatch";
  if t <= 0 then invalid_arg "Meb_fptas.run: t must be positive";
  let n = Geometry.Pointset.n ps in
  let diameter = Geometry.Grid.diameter grid in
  (* Stage 1: amplified NoisyAVG of the sampled coreset. *)
  let m, eps0, delta0, _eff = coreset_budget ~eps_stage:(eps /. 4.) ~delta ~n ~coreset in
  let indices = Prim.Rng.sample_with_replacement rng ~k:m (Array.init n (fun i -> i)) in
  let sample = Array.map (fun i -> Geometry.Pointset.point ps i) indices in
  match
    Prim.Noisy_avg.run rng ~eps:eps0 ~delta:delta0 ~diameter ~pred:(fun _ -> true) ~dim:d sample
  with
  | Prim.Noisy_avg.Bottom -> Error Center_bottom
  | Prim.Noisy_avg.Average a ->
      let center = ref (Array.map clamp01 a.Prim.Noisy_avg.average) in
      (* Stage 2: private coordinate descent.  Each round asks the
         exponential mechanism to pick, among staying put and the 2d
         single-axis steps, the candidate whose step-radius ball holds the
         most points (capped at t, so the quality has sensitivity 1). *)
      let rounds = max 0 rounds in
      if rounds > 0 then begin
        let eps_round = eps /. 4. /. float_of_int rounds in
        let step = ref (diameter /. 4.) in
        for _ = 1 to rounds do
          let candidates =
            Array.init
              ((2 * d) + 1)
              (fun i ->
                if i = 0 then Array.copy !center
                else
                  let axis = (i - 1) / 2 in
                  let dir = if i land 1 = 1 then +1. else -1. in
                  let c = Array.copy !center in
                  c.(axis) <- clamp01 (c.(axis) +. (dir *. !step));
                  c)
          in
          let qualities =
            Array.map
              (fun c ->
                float_of_int (Geometry.Pointset.capped_ball_count ps ~cap:t ~center:c ~radius:!step))
              candidates
          in
          let pick = Prim.Exp_mech.select rng ~eps:eps_round ~sensitivity:1.0 ~qualities in
          center := candidates.(pick);
          step := !step /. 2.
        done
      end;
      let center = !center in
      (* Stage 3: the in-ball count around the (now public) center is a
         monotone sensitivity-1 function of the radius. *)
      let size = Geometry.Grid.radius_candidates grid in
      let count =
        Recconcave.Quality.create ~size ~f:(fun i ->
            float_of_int
              (Geometry.Pointset.ball_count ps ~center
                 ~radius:(Geometry.Grid.radius_of_index grid i)))
      in
      let slack =
        Recconcave.Monotone_search.accuracy_bound ~size ~eps:(eps /. 2.) ~sensitivity:1.0
          ~beta:0.1
      in
      let search =
        Recconcave.Monotone_search.solve rng ~eps:(eps /. 2.) ~sensitivity:1.0
          ~target:(float_of_int t -. slack)
          count
      in
      Ok
        {
          center;
          radius = Geometry.Grid.radius_of_index grid search.Recconcave.Monotone_search.index;
          coreset_size = m;
          refinement_rounds = rounds;
        }

module For_testing = struct
  let pp_result ppf r =
    Format.fprintf ppf "center %a radius %.4f (coreset %d, %d refinement rounds)" Geometry.Vec.pp
      r.center r.radius r.coreset_size r.refinement_rounds

  let budget_breakdown ~eps ~delta ~n ~coreset =
    let _, _, _, eff = coreset_budget ~eps_stage:(eps /. 4.) ~delta ~n ~coreset in
    [
      ("coreset noisy-average (amplified)", eff);
      ("center refinement (exp-mech rounds)", Prim.Dp.pure ~eps:(eps /. 4.));
      ("radius monotone search", Prim.Dp.pure ~eps:(eps /. 2.));
    ]

  let default_coreset = default_coreset
  let default_rounds = default_rounds
end
