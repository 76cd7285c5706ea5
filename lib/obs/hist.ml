(* Log-bucketed latency histograms with lock-free shards.

   Hot path contract: [observe_ns] performs a handful of
   [Atomic.fetch_and_add] / CAS operations and allocates nothing, so it
   is safe from any domain or systhread concurrently.  All floating
   point lives on the scrape side; the recording side is exact integer
   arithmetic, which is what makes shard merging loss-free. *)

let n_bounds = 52

let bucket_bounds_ns =
  (* 1 µs doubling every two buckets: b_i = round (1000 * 2^(i/2)). *)
  Array.init n_bounds (fun i ->
      let v = 1000. *. Float.pow 2. (float_of_int i /. 2.) in
      int_of_float (Float.round v))

let () =
  (* The quantile scan and merge both assume strict ascent. *)
  for i = 1 to n_bounds - 1 do
    assert (bucket_bounds_ns.(i) > bucket_bounds_ns.(i - 1))
  done

let n_buckets = n_bounds + 1 (* + overflow *)

(* Smallest bucket whose bound is >= v; [n_bounds] for overflow. *)
let bucket_of_ns v =
  if v <= bucket_bounds_ns.(0) then 0
  else if v > bucket_bounds_ns.(n_bounds - 1) then n_bounds
  else begin
    let lo = ref 0 and hi = ref (n_bounds - 1) in
    (* invariant: bounds.(lo) < v <= bounds.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if bucket_bounds_ns.(mid) >= v then hi := mid else lo := mid
    done;
    !hi
  end

type shard = {
  counts : int Atomic.t array;
  s_count : int Atomic.t;
  s_sum : int Atomic.t;
  s_min : int Atomic.t;
  s_max : int Atomic.t;
}

type t = { shards : shard array }

let make_shard () =
  {
    counts = Array.init n_buckets (fun _ -> Atomic.make 0);
    s_count = Atomic.make 0;
    s_sum = Atomic.make 0;
    s_min = Atomic.make max_int;
    s_max = Atomic.make 0;
  }

let create ?(shards = 8) () =
  let shards = max 1 (min 64 shards) in
  { shards = Array.init shards (fun _ -> make_shard ()) }

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let observe_ns ?shard t v =
  let v = max 0 v in
  let i =
    match shard with
    | Some s -> s mod Array.length t.shards
    | None -> (Domain.self () :> int) mod Array.length t.shards
  in
  let s = t.shards.(i) in
  ignore (Atomic.fetch_and_add s.counts.(bucket_of_ns v) 1);
  ignore (Atomic.fetch_and_add s.s_count 1);
  ignore (Atomic.fetch_and_add s.s_sum v);
  atomic_min s.s_min v;
  atomic_max s.s_max v

type snapshot = {
  counts : int array;
  count : int;
  sum_ns : int;
  min_ns : int;
  max_ns : int;
}

let empty =
  { counts = Array.make n_buckets 0; count = 0; sum_ns = 0; min_ns = max_int; max_ns = 0 }

let snapshot_shard (s : shard) =
  {
    counts = Array.map Atomic.get s.counts;
    count = Atomic.get s.s_count;
    sum_ns = Atomic.get s.s_sum;
    min_ns = Atomic.get s.s_min;
    max_ns = Atomic.get s.s_max;
  }

let merge a b =
  {
    counts = Array.init n_buckets (fun i -> a.counts.(i) + b.counts.(i));
    count = a.count + b.count;
    sum_ns = a.sum_ns + b.sum_ns;
    min_ns = min a.min_ns b.min_ns;
    max_ns = max a.max_ns b.max_ns;
  }

let snapshot t =
  Array.fold_left (fun acc s -> merge acc (snapshot_shard s)) empty t.shards

let quantile_ns s ~q =
  if s.count = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int s.count in
    (* First bucket whose cumulative count reaches the target rank. *)
    let b = ref 0 and below = ref 0 in
    let stop = ref false in
    while not !stop do
      let here = s.counts.(!b) in
      if (here > 0 && float_of_int (!below + here) >= target) || !b >= n_buckets - 1
      then stop := true
      else begin
        below := !below + here;
        incr b
      end
    done;
    let lo = if !b = 0 then 0. else float_of_int bucket_bounds_ns.(!b - 1) in
    let hi =
      if !b >= n_bounds then Float.max (float_of_int s.max_ns) lo
      else float_of_int bucket_bounds_ns.(!b)
    in
    let here = s.counts.(!b) in
    let frac =
      if here = 0 then 1.
      else Float.max 0. (Float.min 1. ((target -. float_of_int !below) /. float_of_int here))
    in
    let v = lo +. (frac *. (hi -. lo)) in
    (* Clamping to the observed range keeps singletons exact and never
       breaks monotonicity (the clamp bounds are constants in q). *)
    Float.max (float_of_int s.min_ns) (Float.min (float_of_int s.max_ns) v)
  end

let to_prom s =
  {
    Prom.bounds = Array.map (fun b -> float_of_int b /. 1e9) bucket_bounds_ns;
    counts = Array.sub s.counts 0 n_bounds;
    sum = float_of_int s.sum_ns /. 1e9;
    count = s.count;
  }

let default_quantiles = [ 0.5; 0.9; 0.99 ]

let to_json s =
  let buckets =
    List.filter_map
      (fun i ->
        if s.counts.(i) = 0 then None
        else
          let le =
            if i >= n_bounds then max_int else bucket_bounds_ns.(i)
          in
          Some (Json.List [ Json.Int le; Json.Int s.counts.(i) ]))
      (List.init n_buckets Fun.id)
  in
  let qs =
    List.map
      (fun q ->
        ( Printf.sprintf "p%g" (q *. 100.),
          Json.Float (quantile_ns s ~q /. 1e9) ))
      default_quantiles
  in
  Json.Obj
    ([
       ("count", Json.Int s.count);
       ("sum_ns", Json.Int s.sum_ns);
       ("min_ns", Json.Int (if s.count = 0 then 0 else s.min_ns));
       ("max_ns", Json.Int s.max_ns);
     ]
    @ qs
    @ [ ("buckets_ns", Json.List buckets) ])

let snapshot_of_json j =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let int_field name =
    let* v = field name in
    match v with Json.Int i -> Ok i | _ -> Error (name ^ " is not an integer")
  in
  let* count = int_field "count" in
  let* sum_ns = int_field "sum_ns" in
  let* min_ns = int_field "min_ns" in
  let* max_ns = int_field "max_ns" in
  let* buckets = field "buckets_ns" in
  let* buckets =
    match buckets with Json.List l -> Ok l | _ -> Error "buckets_ns is not a list"
  in
  let counts = Array.make n_buckets 0 in
  let add = function
    | Json.List [ Json.Int le; Json.Int c ] when c >= 0 ->
        let i = bucket_of_ns le in
        if (i = n_bounds && le = max_int) || (i < n_bounds && bucket_bounds_ns.(i) = le)
        then Ok (counts.(i) <- counts.(i) + c)
        else Error (Printf.sprintf "buckets_ns: %d is not a bucket bound" le)
    | _ -> Error "buckets_ns: an entry is not an [le_ns, count] pair"
  in
  let* () = List.fold_left (fun acc b -> Result.bind acc (fun () -> add b)) (Ok ()) buckets in
  let total = Array.fold_left ( + ) 0 counts in
  if total <> count then
    Error (Printf.sprintf "buckets_ns counts sum to %d but count is %d" total count)
  else
    (* [to_json] writes an empty histogram's [max_int] minimum as 0. *)
    Ok { counts; count; sum_ns; min_ns = (if count = 0 then max_int else min_ns); max_ns }

module For_testing = struct
  let mean_ns s =
    if s.count = 0 then Float.nan else float_of_int s.sum_ns /. float_of_int s.count

  let bucket_bounds_ns = bucket_bounds_ns
end
