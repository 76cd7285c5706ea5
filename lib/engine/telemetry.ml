module Json = Obs.Json

let log_src = Logs.Src.create "privcluster.engine" ~doc:"Concurrent private-query engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Upper bounds (ms) of the latency buckets; the last bucket is +inf. *)
let bucket_bounds =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.; 15_000.; 60_000. |]

let n_buckets = Array.length bucket_bounds + 1

let bucket_of ms =
  let rec find i = if i = Array.length bucket_bounds || ms <= bucket_bounds.(i) then i else find (i + 1) in
  find 0

type kind_stats = {
  by_status : (string, int) Hashtbl.t;
  hist : int array;
  mutable count : int;
  mutable sum_ms : float;
  mutable min_ms : float;
  mutable max_ms : float;
}

type t = {
  mutex : Mutex.t;
  kinds : (string, kind_stats) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
}

let create () =
  { mutex = Mutex.create (); kinds = Hashtbl.create 8; counters = Hashtbl.create 8 }

let incr t name =
  Mutex.lock t.mutex;
  Hashtbl.replace t.counters name (1 + Option.value ~default:0 (Hashtbl.find_opt t.counters name));
  Mutex.unlock t.mutex

let counter t name =
  Mutex.lock t.mutex;
  let v = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
  Mutex.unlock t.mutex;
  v

let counters t =
  Mutex.lock t.mutex;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters [] in
  Mutex.unlock t.mutex;
  List.sort compare l

let stats_for t kind =
  match Hashtbl.find_opt t.kinds kind with
  | Some s -> s
  | None ->
      let s =
        {
          by_status = Hashtbl.create 4;
          hist = Array.make n_buckets 0;
          count = 0;
          sum_ms = 0.;
          min_ms = Float.infinity;
          max_ms = Float.neg_infinity;
        }
      in
      Hashtbl.replace t.kinds kind s;
      s

let record t ~kind ~status ~latency_ms =
  Mutex.lock t.mutex;
  let s = stats_for t kind in
  Hashtbl.replace s.by_status status
    (1 + Option.value ~default:0 (Hashtbl.find_opt s.by_status status));
  let b = bucket_of latency_ms in
  s.hist.(b) <- s.hist.(b) + 1;
  s.count <- s.count + 1;
  s.sum_ms <- s.sum_ms +. latency_ms;
  s.min_ms <- Float.min s.min_ms latency_ms;
  s.max_ms <- Float.max s.max_ms latency_ms;
  Mutex.unlock t.mutex;
  Log.debug (fun m -> m "job kind=%s status=%s latency=%.2fms" kind status latency_ms)

let fold t f init =
  Mutex.lock t.mutex;
  let r = Hashtbl.fold f t.kinds init in
  Mutex.unlock t.mutex;
  r

let total t = fold t (fun _ s acc -> acc + s.count) 0

let count t ?kind ?status () =
  fold t
    (fun k s acc ->
      if kind <> None && kind <> Some k then acc
      else
        match status with
        | None -> acc + s.count
        | Some st -> acc + Option.value ~default:0 (Hashtbl.find_opt s.by_status st))
    0

(* Quantile by linear interpolation inside the bucket holding rank q·count.
   The open-ended last bucket interpolates toward the observed max. *)
let quantile_of_hist s ~q =
  if s.count = 0 then Float.nan
  else begin
    let target = q *. float_of_int s.count in
    let rec scan b acc =
      if b = n_buckets - 1 then b
      else
        let acc' = acc + s.hist.(b) in
        if float_of_int acc' >= target then b else scan (b + 1) acc'
    in
    let b = scan 0 0 in
    let lo = if b = 0 then 0. else bucket_bounds.(b - 1) in
    let hi = if b = Array.length bucket_bounds then Float.max s.max_ms lo else bucket_bounds.(b) in
    let below = ref 0 in
    for i = 0 to b - 1 do
      below := !below + s.hist.(i)
    done;
    let in_bucket = s.hist.(b) in
    if in_bucket = 0 then lo
    else
      let frac = (target -. float_of_int !below) /. float_of_int in_bucket in
      lo +. (Float.max 0. (Float.min 1. frac) *. (hi -. lo))
  end

let quantile_of_buckets ?(max_ms = bucket_bounds.(Array.length bucket_bounds - 1))
    ~buckets ~observations ~q () =
  let hist = Array.make n_buckets 0 in
  Array.iteri (fun i c -> if i < n_buckets then hist.(i) <- c) buckets;
  quantile_of_hist
    {
      by_status = Hashtbl.create 1;
      hist;
      count = observations;
      sum_ms = 0.;
      min_ms = 0.;
      max_ms;
    }
    ~q

let quantile_ms t ~kind ~q =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.kinds kind with
    | None -> Float.nan
    | Some s -> quantile_of_hist s ~q
  in
  Mutex.unlock t.mutex;
  r

type export_stats = {
  kind : string;
  statuses : (string * int) list;
  buckets : int array;
  observations : int;
  total_ms : float;
}

let bucket_upper_bounds = Array.copy bucket_bounds

let export t =
  fold t
    (fun kind s acc ->
      {
        kind;
        statuses =
          Hashtbl.fold (fun st c acc -> (st, c) :: acc) s.by_status [] |> List.sort compare;
        buckets = Array.copy s.hist;
        observations = s.count;
        total_ms = s.sum_ms;
      }
      :: acc)
    []
  |> List.sort (fun a b -> compare a.kind b.kind)

let kind_json kind s =
  let statuses =
    Hashtbl.fold (fun st c acc -> (st, Json.Int c) :: acc) s.by_status []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let buckets =
    Json.List
      (List.init n_buckets (fun i ->
           let le =
             if i = Array.length bucket_bounds then Json.Null else Json.Float bucket_bounds.(i)
           in
           Json.Obj [ ("le_ms", le); ("count", Json.Int s.hist.(i)) ]))
  in
  ( kind,
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("by_status", Json.Obj statuses);
        ("min_ms", Json.Float (if s.count = 0 then Float.nan else s.min_ms));
        ("mean_ms", Json.Float (if s.count = 0 then Float.nan else s.sum_ms /. float_of_int s.count));
        ("max_ms", Json.Float (if s.count = 0 then Float.nan else s.max_ms));
        ("p50_ms", Json.Float (quantile_of_hist s ~q:0.5));
        ("p90_ms", Json.Float (quantile_of_hist s ~q:0.9));
        ("p99_ms", Json.Float (quantile_of_hist s ~q:0.99));
        ("latency_buckets", buckets);
      ] )

let to_json t =
  let kinds =
    fold t (fun k s acc -> kind_json k s :: acc) []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Json.Obj
    [
      ("total_jobs", Json.Int (total t));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("kinds", Json.Obj kinds);
    ]

let pp_summary ppf t =
  let rows =
    fold t (fun k s acc -> (k, s) :: acc) [] |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (k, s) ->
      let st name = Option.value ~default:0 (Hashtbl.find_opt s.by_status name) in
      Format.fprintf ppf
        "%s: %d jobs (ok %d, refused %d, timeout %d, failed %d, degraded %d) p50 %.1fms p99 %.1fms@."
        k s.count (st "ok") (st "refused") (st "timeout") (st "failed") (st "degraded")
        (quantile_of_hist s ~q:0.5) (quantile_of_hist s ~q:0.99))
    rows;
  match counters t with
  | [] -> ()
  | cs ->
      Format.fprintf ppf "counters: %s@."
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) cs))
