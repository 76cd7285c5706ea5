type result = { value : float; target_rank : float }

(* Ascending sort of a NaN-free float array, with unboxed [<=] and no
   comparison closure: bottom-up merges through one scratch array.
   Returns whichever of the two arrays holds the result. *)
let sort_floats (a : float array) =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.create_float n) and width = ref 1 in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) and hi = min n (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || s.(!i) <= s.(!j)) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

(* The values sorted once, NaNs dropped (they are [<=] nothing); along
   the sorted array [x <= v] holds on a prefix, so its length is the
   rank, found by bisection. *)
let rank_count (values : float array) =
  let n = Array.length values in
  let kept = Array.create_float n and m = ref 0 in
  for i = 0 to n - 1 do
    let x = values.(i) in
    if not (Float.is_nan x) then begin
      kept.(!m) <- x;
      incr m
    end
  done;
  let sorted = sort_floats (if !m = n then kept else Array.sub kept 0 !m) in
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

let rank_error_bound ?(profile = Profile.practical) ~grid ~eps ~beta () =
  Recconcave.Rec_concave.loss_bound ~base:profile.Profile.rc_base
    ~size:(Geometry.Grid.axis_size grid) ~eps ~beta ()

module For_testing = struct
  let median rng ?profile ~grid ~eps values = quantile rng ?profile ~grid ~eps ~q:0.5 values

  let interquartile_range rng ?profile ~grid ~eps values =
    let lo = quantile rng ?profile ~grid ~eps:(eps /. 2.) ~q:0.25 values in
    let hi = quantile rng ?profile ~grid ~eps:(eps /. 2.) ~q:0.75 values in
    (lo.value, hi.value)

  let rank_count = rank_count
end
