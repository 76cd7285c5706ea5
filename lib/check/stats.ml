(* Special functions: the standard series / continued-fraction evaluations
   (Lanczos log-gamma; Numerical-Recipes-style gser/gcf and betacf). *)

let lanczos =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection: Γ(x)Γ(1−x) = π / sin(πx). *)
    log (Float.pi /. Float.abs (sin (Float.pi *. x))) -. log_gamma (1. -. x)
  else
    let x = x -. 1. in
    let a = ref lanczos.(0) in
    let g = 7. in
    for i = 1 to 8 do
      a := !a +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. g +. 0.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Lower incomplete gamma by series (converges fast for x < a + 1). *)
let gamma_p_series ~a ~x =
  let rec go ap del sum iter =
    if iter > 500 || Float.abs del < Float.abs sum *. 1e-15 then sum
    else
      let ap = ap +. 1. in
      let del = del *. x /. ap in
      go ap del (sum +. del) (iter + 1)
  in
  let start = 1. /. a in
  let sum = go a start start 0 in
  sum *. exp ((a *. log x) -. x -. log_gamma a)

(* Upper incomplete gamma by Lentz continued fraction (for x ≥ a + 1). *)
let gamma_q_cf ~a ~x =
  let tiny = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. tiny) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  (try
     for i = 1 to 500 do
       let an = -.float_of_int i *. (float_of_int i -. a) in
       b := !b +. 2.;
       d := (an *. !d) +. !b;
       if Float.abs !d < tiny then d := tiny;
       c := !b +. (an /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1. /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.) < 1e-15 then raise Exit
     done
   with Exit -> ());
  !h *. exp ((a *. log x) -. x -. log_gamma a)

let gamma_q ~a ~x =
  if not (a > 0.) then invalid_arg "Stats.gamma_q: a must be positive";
  if x < 0. then invalid_arg "Stats.gamma_q: x must be non-negative";
  if x = 0. then 1.
  else if x < a +. 1. then 1. -. gamma_p_series ~a ~x
  else gamma_q_cf ~a ~x

let erfc x =
  if x >= 0. then gamma_q ~a:0.5 ~x:(x *. x) else 2. -. gamma_q ~a:0.5 ~x:(x *. x)

let normal_cdf ?(mu = 0.) ~sigma x =
  if not (sigma > 0.) then invalid_arg "Stats.normal_cdf: sigma must be positive";
  0.5 *. erfc (-.(x -. mu) /. (sigma *. sqrt 2.))

let chi2_sf ~df x =
  if df <= 0 then invalid_arg "Stats.chi2_sf: df must be positive";
  if x <= 0. then 1. else gamma_q ~a:(float_of_int df /. 2.) ~x:(x /. 2.)

(* Incomplete beta: continued fraction (Lentz), standard symmetry split. *)
let betacf a b x =
  let tiny = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if Float.abs !d < tiny then d := tiny;
  d := 1. /. !d;
  let h = ref !d in
  (try
     for m = 1 to 300 do
       let mf = float_of_int m in
       let m2 = 2. *. mf in
       let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
       d := 1. +. (aa *. !d);
       if Float.abs !d < tiny then d := tiny;
       c := 1. +. (aa /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1. /. !d;
       h := !h *. !d *. !c;
       let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
       d := 1. +. (aa *. !d);
       if Float.abs !d < tiny then d := tiny;
       c := 1. +. (aa /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1. /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.) < 1e-15 then raise Exit
     done
   with Exit -> ());
  !h

let reg_inc_beta ~a ~b x =
  if not (a > 0. && b > 0.) then invalid_arg "Stats.reg_inc_beta: a, b must be positive";
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let bt =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b
        +. (a *. log x)
        +. (b *. log1p (-.x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then bt *. betacf a b x /. a
    else 1. -. (bt *. betacf b a (1. -. x) /. b)

(* Beta quantile by bisection — monotone CDF, 80 halvings ≈ 1e-24. *)
let beta_inv ~a ~b p =
  if p <= 0. then 0.
  else if p >= 1. then 1.
  else begin
    let lo = ref 0. and hi = ref 1. in
    for _ = 1 to 80 do
      let mid = 0.5 *. (!lo +. !hi) in
      if reg_inc_beta ~a ~b mid < p then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

type interval = { lo : float; hi : float }

let clopper_pearson ~alpha ~k ~n =
  if n <= 0 then invalid_arg "Stats.clopper_pearson: n must be positive";
  if k < 0 || k > n then invalid_arg "Stats.clopper_pearson: k must be in [0, n]";
  if not (alpha > 0. && alpha < 1.) then
    invalid_arg "Stats.clopper_pearson: alpha must be in (0, 1)";
  let kf = float_of_int k and nf = float_of_int n in
  let lo =
    if k = 0 then 0. else beta_inv ~a:kf ~b:(nf -. kf +. 1.) (alpha /. 2.)
  in
  let hi =
    if k = n then 1. else beta_inv ~a:(kf +. 1.) ~b:(nf -. kf) (1. -. (alpha /. 2.))
  in
  { lo; hi }

(* Kolmogorov asymptotic survival function Q(λ) = 2 Σ (−1)^{j−1} e^{−2j²λ²}. *)
let kolmogorov_sf lambda =
  if lambda <= 0. then 1.
  else begin
    let sum = ref 0. in
    (try
       for j = 1 to 100 do
         let sign = if j land 1 = 1 then 1. else -1. in
         let term = sign *. exp (-2. *. float_of_int (j * j) *. lambda *. lambda) in
         sum := !sum +. term;
         if Float.abs term < 1e-12 then raise Exit
       done
     with Exit -> ());
    Float.max 0. (Float.min 1. (2. *. !sum))
  end

type ks = { d : float; p_value : float; n : int }

let sorted_copy samples =
  let xs = Array.copy samples in
  Array.sort Float.compare xs;
  xs

let ks_test ~cdf samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.ks_test: empty sample";
  let xs = sorted_copy samples in
  let fn = float_of_int n in
  let d = ref 0. in
  Array.iteri
    (fun i x ->
      let f = cdf x in
      let above = (float_of_int (i + 1) /. fn) -. f in
      let below = f -. (float_of_int i /. fn) in
      d := Float.max !d (Float.max above below))
    xs;
  let sq = sqrt fn in
  (* Stephens' finite-n correction to the asymptotic law. *)
  let lambda = (sq +. 0.12 +. (0.11 /. sq)) *. !d in
  { d = !d; p_value = kolmogorov_sf lambda; n }

(* Asymptotic upper-tail table for the case-0 Anderson–Darling statistic
   (all parameters known): (significance, critical A²). *)
let ad_table =
  [| (0.25, 1.248); (0.15, 1.610); (0.10, 1.933); (0.05, 2.492); (0.025, 3.070); (0.01, 3.857); (0.005, 4.620) |]

let ad_critical ~significance =
  let s = Float.max 0.005 (Float.min 0.25 significance) in
  let n = Array.length ad_table in
  let rec find i =
    if i >= n - 1 then n - 2
    else
      let s_hi, _ = ad_table.(i) and s_lo, _ = ad_table.(i + 1) in
      if s <= s_hi && s >= s_lo then i else find (i + 1)
  in
  let i = find 0 in
  let s1, a1 = ad_table.(i) and s2, a2 = ad_table.(i + 1) in
  (* Linear in ln(significance) between table points. *)
  let w = (log s -. log s1) /. (log s2 -. log s1) in
  a1 +. (w *. (a2 -. a1))

let ad_p_value a2 =
  let n = Array.length ad_table in
  let _, a_min = ad_table.(0) and _, a_max = ad_table.(n - 1) in
  if a2 <= a_min then 0.25
  else if a2 >= a_max then 0.005
  else begin
    let i = ref 0 in
    while snd ad_table.(!i + 1) < a2 do
      incr i
    done;
    let s1, a_1 = ad_table.(!i) and s2, a_2 = ad_table.(!i + 1) in
    let w = (a2 -. a_1) /. (a_2 -. a_1) in
    exp (log s1 +. (w *. (log s2 -. log s1)))
  end

type ad = { a2 : float; p_value : float; n : int }

let ad_test ~cdf samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.ad_test: empty sample";
  let xs = sorted_copy samples in
  let fn = float_of_int n in
  (* Clamp the CDF away from {0, 1}: a single sample in the extreme tail
     must register as a large statistic, not a NaN. *)
  let u i = Float.max 1e-300 (Float.min (1. -. 1e-16) (cdf xs.(i))) in
  let s = ref 0. in
  for i = 0 to n - 1 do
    let w = float_of_int ((2 * (i + 1)) - 1) in
    s := !s +. (w *. (log (u i) +. log1p (-.u (n - 1 - i))))
  done;
  let a2 = -.fn -. (!s /. fn) in
  { a2; p_value = ad_p_value a2; n }

type chi2 = { stat : float; df : int; p_value : float; pooled_cells : int }

let chi2_test ~expected ~observed =
  let k = Array.length expected in
  if k = 0 || Array.length observed <> k then
    invalid_arg "Stats.chi2_test: expected/observed length mismatch";
  let total_w = Array.fold_left ( +. ) 0. expected in
  if not (total_w > 0.) then invalid_arg "Stats.chi2_test: all-zero expectation";
  let n = float_of_int (Array.fold_left ( + ) 0 observed) in
  if n <= 0. then invalid_arg "Stats.chi2_test: empty observation";
  (* Expected counts; pool the < 5 cells into one so the asymptotic
     chi-square approximation stays valid. *)
  let cells = ref [] in
  let pool_e = ref 0. and pool_o = ref 0 and pooled = ref 0 in
  for i = 0 to k - 1 do
    let e = expected.(i) /. total_w *. n in
    if e >= 5. then cells := (e, observed.(i)) :: !cells
    else begin
      pool_e := !pool_e +. e;
      pool_o := !pool_o + observed.(i);
      incr pooled
    end
  done;
  if !pooled > 0 && !pool_e > 0. then cells := (!pool_e, !pool_o) :: !cells;
  let cells = Array.of_list !cells in
  let m = Array.length cells in
  if m < 2 then
    (* Everything pooled into one cell: the test is vacuous. *)
    { stat = 0.; df = 1; p_value = 1.; pooled_cells = !pooled }
  else begin
    let stat =
      Array.fold_left
        (fun acc (e, o) ->
          let d = float_of_int o -. e in
          acc +. (d *. d /. e))
        0. cells
    in
    let df = m - 1 in
    { stat; df; p_value = chi2_sf ~df stat; pooled_cells = !pooled }
  end

module For_testing = struct
  let chi2_sf = chi2_sf
  let erfc = erfc
  let log_gamma = log_gamma
  let reg_inc_beta = reg_inc_beta
end
