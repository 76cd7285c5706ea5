type result = { value : float; target_rank : float }

(* The values sorted once, NaNs dropped (they are [<=] nothing); along
   the sorted array [x <= v] holds on a prefix, so its length is the
   rank, found by bisection. *)
let rank_count values =
  let sorted = Array.of_seq (Seq.filter (fun x -> not (Float.is_nan x)) (Array.to_seq values)) in
  Array.sort Float.compare sorted;
  fun v ->
    let lo = ref 0 and hi = ref (Array.length sorted) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    !lo

let quantile rng ?(profile = Profile.practical) ~grid ~eps ~q values =
  if Geometry.Grid.dim grid <> 1 then invalid_arg "Quantile.quantile: grid must be 1-D";
  if not (q >= 0. && q <= 1.) then invalid_arg "Quantile.quantile: q must be in [0, 1]";
  if not (eps > 0.) then invalid_arg "Quantile.quantile: eps must be positive";
  let n = Array.length values in
  let target = q *. float_of_int n in
  let axis = Geometry.Grid.axis_size grid in
  let step = Geometry.Grid.step grid in
  Obs.Span.with_charged ~cat:"stage"
    ~attrs:(fun () -> [ ("q", Obs.Span.F q); ("axis", Obs.Span.I axis) ])
    ~eps ~delta:0. "quantile"
  @@ fun () ->
  let rank = rank_count values in
  let quality =
    Recconcave.Quality.create ~size:axis ~f:(fun i ->
        -.Float.abs (float_of_int (rank (float_of_int i *. step)) -. target))
  in
  let report = Recconcave.Rec_concave.solve rng ~eps ~base:profile.Profile.rc_base quality in
  { value = float_of_int report.Recconcave.Rec_concave.chosen *. step; target_rank = target }

let median rng ?profile ~grid ~eps values = quantile rng ?profile ~grid ~eps ~q:0.5 values

let interquartile_range rng ?profile ~grid ~eps values =
  let lo = quantile rng ?profile ~grid ~eps:(eps /. 2.) ~q:0.25 values in
  let hi = quantile rng ?profile ~grid ~eps:(eps /. 2.) ~q:0.75 values in
  (lo.value, hi.value)

let rank_error_bound ?(profile = Profile.practical) ~grid ~eps ~beta () =
  Recconcave.Rec_concave.loss_bound ~base:profile.Profile.rc_base
    ~size:(Geometry.Grid.axis_size grid) ~eps ~beta ()
