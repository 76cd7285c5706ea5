module Json = Obs.Json

let log_src = Logs.Src.create "privcluster.engine" ~doc:"Concurrent private-query engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type kind_stats = { by_status : (string, int) Hashtbl.t; latency : Obs.Hist.t }

type t = {
  mutex : Mutex.t;
  kinds : (string, kind_stats) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
}

let create () =
  { mutex = Mutex.create (); kinds = Hashtbl.create 8; counters = Hashtbl.create 8 }

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let incr t name =
  Mutex.lock t.mutex;
  bump t.counters name;
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

let record t ~kind ~status ~latency_ms =
  Mutex.lock t.mutex;
  let s =
    match Hashtbl.find_opt t.kinds kind with
    | Some s -> s
    | None ->
        let s = { by_status = Hashtbl.create 4; latency = Obs.Hist.create () } in
        Hashtbl.replace t.kinds kind s;
        s
  in
  bump s.by_status status;
  (* Under the lock, so a [kinds] snapshot's status counts always sum to
     its histogram's count. *)
  Obs.Hist.observe_ns s.latency (Float.to_int (latency_ms *. 1e6));
  Mutex.unlock t.mutex;
  Log.debug (fun m -> m "job kind=%s status=%s latency=%.2fms" kind status latency_ms)

let kinds t =
  Mutex.lock t.mutex;
  let l =
    Hashtbl.fold
      (fun kind s acc ->
        let statuses = Hashtbl.fold (fun st c acc -> (st, c) :: acc) s.by_status [] in
        (kind, List.sort compare statuses, Obs.Hist.snapshot s.latency) :: acc)
      t.kinds []
  in
  Mutex.unlock t.mutex;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) l

let to_json t =
  let kinds = kinds t in
  Json.Obj
    [
      ( "total_jobs",
        Json.Int (List.fold_left (fun acc (_, _, (s : Obs.Hist.snapshot)) -> acc + s.count) 0 kinds)
      );
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ( "kinds",
        Json.Obj
          (List.map
             (fun (kind, statuses, (snap : Obs.Hist.snapshot)) ->
               ( kind,
                 Json.Obj
                   [
                     ("count", Json.Int snap.count);
                     ("by_status", Json.Obj (List.map (fun (st, c) -> (st, Json.Int c)) statuses));
                     ("latency", Obs.Hist.to_json snap);
                   ] ))
             kinds) );
    ]

let pp_summary ppf t =
  List.iter
    (fun (k, statuses, (snap : Obs.Hist.snapshot)) ->
      let st name = Option.value ~default:0 (List.assoc_opt name statuses) in
      let ms q = Obs.Hist.quantile_ns snap ~q /. 1e6 in
      Format.fprintf ppf
        "%s: %d jobs (ok %d, refused %d, timeout %d, failed %d, degraded %d) p50 %.1fms p99 %.1fms@."
        k snap.count (st "ok") (st "refused") (st "timeout") (st "failed") (st "degraded")
        (ms 0.5) (ms 0.99))
    (kinds t);
  match counters t with
  | [] -> ()
  | cs ->
      Format.fprintf ppf "counters: %s@."
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) cs))

module For_testing = struct
  let count t ?kind ?status () =
    List.fold_left
      (fun acc (k, statuses, (snap : Obs.Hist.snapshot)) ->
        if kind <> None && kind <> Some k then acc
        else
          match status with
          | None -> acc + snap.count
          | Some st -> acc + Option.value ~default:0 (List.assoc_opt st statuses))
      0 (kinds t)
end
