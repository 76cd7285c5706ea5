type answer = Above | Below

type mode = Plain | Numeric

type t = {
  rng : Rng.t;
  eps_each : float;  (** Budget of each single-firing instance. *)
  threshold : float;
  mode : mode;
  mutable noisy_threshold : float;
  mutable firings_left : int;
  mutable asked : int;
}

(* Plain mode splits each instance's ε as: ε/2 to the threshold perturbation
   (scale 2/ε) and ε/2 shared by the per-query noise (scale 4/ε); one Above
   answer per instance.  Numeric mode halves both (scales 4/ε and 8/ε) to
   reserve ε/2 for the released value. *)
let threshold_scale t =
  match t.mode with Plain -> 2. /. t.eps_each | Numeric -> 4. /. t.eps_each

let query_scale t =
  match t.mode with Plain -> 4. /. t.eps_each | Numeric -> 8. /. t.eps_each

let arm t = t.noisy_threshold <- t.threshold +. Rng.laplace t.rng ~scale:(threshold_scale t) ()

(* The whole ε is charged here at creation: it pays for the threshold
   perturbation and every later query/release draw of this instance. *)
let make rng ~eps ~threshold ~firings ~mode =
  if not (eps > 0.) then invalid_arg "Sparse_vector.create: eps must be positive";
  if firings < 1 then invalid_arg "Sparse_vector.create_multi: firings must be >= 1";
  Obs.Span.with_charged
    ~attrs:(fun () -> [ ("firings", Obs.Span.I firings) ])
    ~eps ~delta:0. "sparse_vector"
    (fun () ->
      let t =
        {
          rng;
          eps_each = eps /. float_of_int firings;
          threshold;
          mode;
          noisy_threshold = 0.;
          firings_left = firings;
          asked = 0;
        }
      in
      arm t;
      t)

let create_multi rng ~eps ~threshold ~firings = make rng ~eps ~threshold ~firings ~mode:Plain
let create rng ~eps ~threshold = create_multi rng ~eps ~threshold ~firings:1
let create_numeric rng ~eps ~threshold = make rng ~eps ~threshold ~firings:1 ~mode:Numeric

let query t value =
  if t.firings_left <= 0 then invalid_arg "Sparse_vector.query: mechanism already halted";
  t.asked <- t.asked + 1;
  let noisy = value +. Rng.laplace t.rng ~scale:(query_scale t) () in
  if noisy >= t.noisy_threshold then begin
    t.firings_left <- t.firings_left - 1;
    if t.firings_left > 0 then arm t;
    Above
  end
  else Below

let query_numeric t value =
  if t.mode <> Numeric then
    invalid_arg "Sparse_vector.query_numeric: mechanism not built by create_numeric";
  match query t value with
  | Below -> None
  | Above ->
      (* The ε/2 reserved at creation pays for this one Laplace release. *)
      Some (value +. Rng.laplace t.rng ~scale:(2. /. t.eps_each) ())

let accuracy_bound ~eps ~k ~beta =
  if k <= 0 then invalid_arg "Sparse_vector.accuracy_bound: k must be positive";
  if not (beta > 0. && beta <= 1.) then
    invalid_arg "Sparse_vector.accuracy_bound: beta in (0, 1]";
  8. /. eps *. log (2. *. float_of_int k /. beta)

module For_testing = struct
  let halted t = t.firings_left <= 0
  let firings_left t = t.firings_left
  let queries_asked t = t.asked
end
