type t = { state : Random.State.t; seed : int }

let create ?seed () =
  let seed =
    match seed with
    | Some s -> s
    | None -> Random.State.bits (Random.State.make_self_init ())
  in
  { state = Random.State.make [| seed; seed lxor 0x9e3779b9; 0x2545f491 |]; seed }

let split t = create ~seed:(Random.State.bits t.state lxor 0x5deece66) ()

(* SplitMix64 finalizer — the avalanche is what makes nearby (seed, stream)
   pairs land on unrelated streams. *)
let splitmix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let derive t ~stream =
  if stream < 0 then invalid_arg "Rng.derive: stream must be non-negative";
  let open Int64 in
  let h =
    splitmix64
      (add (of_int t.seed) (mul (of_int (stream + 1)) 0x9e3779b97f4a7c15L))
  in
  create ~seed:(to_int h land Stdlib.max_int) ()

let float t b = Random.State.float t.state b

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. Random.State.float t.state (hi -. lo)

let int t n = Random.State.int t.state n

let bernoulli t ~p =
  let p = Float.max 0. (Float.min 1. p) in
  Random.State.float t.state 1.0 < p

(* Box–Muller.  We discard the second variate to keep the generator
   stateless with respect to callers; the cost is negligible next to the
   surrounding linear algebra. *)
let gaussian t ?(mu = 0.) ~sigma () =
  assert (sigma >= 0.);
  if sigma = 0. then mu
  else
    let rec nonzero () =
      let u = Random.State.float t.state 1.0 in
      if u > 0. then u else nonzero ()
    in
    let u1 = nonzero () and u2 = Random.State.float t.state 1.0 in
    mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let laplace t ?(mu = 0.) ~scale () =
  assert (scale > 0.);
  (* Inverse CDF on u uniform in (−1/2, 1/2). *)
  let rec draw () =
    let u = Random.State.float t.state 1.0 -. 0.5 in
    if u = -0.5 then draw ()
    else mu -. (scale *. Float.of_int (compare u 0.) *. log (1. -. (2. *. Float.abs u)))
  in
  draw ()

let gumbel t ~scale =
  let rec nonzero () =
    let u = Random.State.float t.state 1.0 in
    if u > 0. then u else nonzero ()
  in
  -.scale *. log (-.log (nonzero ()))

let gaussian_vector t ~dim ~sigma = Array.init dim (fun _ -> gaussian t ~sigma ())

let categorical_log t ~log_weights =
  let n = Array.length log_weights in
  assert (n > 0);
  let best = ref 0 and best_v = ref neg_infinity in
  for i = 0 to n - 1 do
    let v = log_weights.(i) +. gumbel t ~scale:1.0 in
    if v > !best_v then begin
      best_v := v;
      best := i
    end
  done;
  !best

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Random.State.int t.state (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_with_replacement t ~k a =
  let n = Array.length a in
  assert (n > 0);
  Array.init k (fun _ -> a.(Random.State.int t.state n))

module For_testing = struct
  let copy t = { t with state = Random.State.copy t.state }
  let seed_of t = t.seed

  let exponential t ~rate =
    assert (rate > 0.);
    let rec nonzero () =
      let u = Random.State.float t.state 1.0 in
      if u > 0. then u else nonzero ()
    in
    -.log (nonzero ()) /. rate

  let sample_without_replacement t ~k a =
    let n = Array.length a in
    assert (k <= n);
    let idx = Array.init n (fun i -> i) in
    shuffle t idx;
    Array.init k (fun i -> a.(idx.(i)))

  let gumbel = gumbel
  let shuffle = shuffle
end
