type estimate = {
  event : string;
  p_hat : float;
  q_hat : float;
  p_ci : Stats.interval;
  q_ci : Stats.interval;
  eps_lb : float;
  violation : bool;
}

type verdict = {
  claimed : Prim.Dp.params;
  slack : float;
  alpha : float;
  trials : int;
  estimates : estimate list;
  eps_lb : float;
  violation : bool;
}

let count rng ~trials ~events mech =
  let k = Array.length events in
  let counts = Array.make k 0 in
  for _ = 1 to trials do
    let o = mech rng in
    for i = 0 to k - 1 do
      if events.(i) o then counts.(i) <- counts.(i) + 1
    done
  done;
  counts

(* One direction of the DP inequality for one event: does the CP lower
   bound on P beat e^ε(1+slack)·(CP upper bound on Q) + δ?  And what loss
   does it certify? *)
let direction ~eps ~delta ~slack (p : Stats.interval) (q : Stats.interval) =
  let lb =
    if p.Stats.lo -. delta > 0. && q.Stats.hi > 0. then
      log ((p.Stats.lo -. delta) /. q.Stats.hi)
    else neg_infinity
  in
  let violated = p.Stats.lo > (exp eps *. (1. +. slack) *. q.Stats.hi) +. delta in
  (lb, violated)

let verdict ~claimed ?(slack = 0.1) ?(alpha = 0.05) ~events ~left ~right () =
  let n_left, counts_left = left and n_right, counts_right = right in
  let k = List.length events in
  if Array.length counts_left <> k || Array.length counts_right <> k then
    invalid_arg "Distinguisher.verdict: counts/events length mismatch";
  let eps = claimed.Prim.Dp.eps and delta = claimed.Prim.Dp.delta in
  let estimates =
    List.mapi
      (fun i event ->
        let kp = counts_left.(i) and kq = counts_right.(i) in
        let p_ci = Stats.clopper_pearson ~alpha ~k:kp ~n:n_left in
        let q_ci = Stats.clopper_pearson ~alpha ~k:kq ~n:n_right in
        let lb1, v1 = direction ~eps ~delta ~slack p_ci q_ci in
        let lb2, v2 = direction ~eps ~delta ~slack q_ci p_ci in
        {
          event;
          p_hat = float_of_int kp /. float_of_int n_left;
          q_hat = float_of_int kq /. float_of_int n_right;
          p_ci;
          q_ci;
          eps_lb = Float.max lb1 lb2;
          violation = v1 || v2;
        })
      events
  in
  {
    claimed;
    slack;
    alpha;
    trials = min n_left n_right;
    estimates;
    eps_lb =
      List.fold_left (fun acc (e : estimate) -> Float.max acc e.eps_lb) neg_infinity estimates;
    violation = List.exists (fun (e : estimate) -> e.violation) estimates;
  }

let thresholds ~lo ~hi ~count =
  if count < 1 then invalid_arg "Distinguisher.thresholds: count must be positive";
  List.init count (fun i ->
      let c =
        if count = 1 then 0.5 *. (lo +. hi)
        else lo +. (float_of_int i *. (hi -. lo) /. float_of_int (count - 1))
      in
      (Printf.sprintf "x>=%g" c, fun x -> x >= c))

let categories ~k =
  if k < 1 then invalid_arg "Distinguisher.categories: k must be positive";
  List.init k (fun i -> (Printf.sprintf "o=%d" i, fun o -> o = i))
  @ [ ("other", fun o -> o < 0 || o >= k) ]

let pp_verdict ppf v =
  Format.fprintf ppf "claimed (%g, %g), slack %g, alpha %g, %d trials/side: %s (eps_lb %s)"
    v.claimed.Prim.Dp.eps v.claimed.Prim.Dp.delta v.slack v.alpha v.trials
    (if v.violation then "VIOLATION" else "no violation")
    (if v.eps_lb = neg_infinity then "-inf" else Printf.sprintf "%.3f" v.eps_lb)

module For_testing = struct
  let run rng ~claimed ?slack ?alpha ~trials ~events ~left ~right () =
    let names = List.map fst events in
    let preds = Array.of_list (List.map snd events) in
    let counts_left = count (Prim.Rng.derive rng ~stream:0) ~trials ~events:preds left in
    let counts_right = count (Prim.Rng.derive rng ~stream:1) ~trials ~events:preds right in
    verdict ~claimed ?slack ?alpha ~events:names ~left:(trials, counts_left)
      ~right:(trials, counts_right) ()
end
