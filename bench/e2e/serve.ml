(* The three workloads that drive a real privclusterd process over its
   Unix socket: serve-dense, serve-cached and churn-window.  Every loop is
   closed — a client sends its next request only after the reply to the
   previous one — with at most two client threads and two connections. *)

open Common
module Client = Server.Client

let dataset = "d"
let taus = [| 0.3; 0.4; 0.5 |]
let query ~eps tau = Printf.sprintf "one_cluster t_fraction=%g eps=%g delta=1e-7\n" tau eps
let rpc what = function Ok v -> v | Error f -> fail "%s: %s" what (Client.fail_message f)

type inst = { d : Proc.daemon; conns : Client.t list }

(* Spawn a daemon on the journal in [dir], open [conns] connections and
   register the workload's dataset on the first — on a journal that
   already holds it, registering replays it. *)
let attach ctx ~dir ~conns ~n ?trace () =
  let d = match Proc.spawn ~cli:ctx.cli ~dir ?trace () with Ok d -> d | Error e -> fail "%s" e in
  let conns =
    List.init conns (fun _ ->
        rpc "connect" (Client.connect d.Proc.listen ~tenant:Proc.tenant ~token:Proc.token))
  in
  ignore
    (rpc "register"
       (Client.register (List.hd conns) ~dataset ~n ~dim:2 ~axis:256 ~frac:0.5 ~radius:0.05
          ~seed:(synth_seed ctx) ~budget ()));
  { d; conns }

(* The same in a fresh [dir]. *)
let start ctx ~dir ~conns ~n ?trace () =
  Proc.rm_rf dir;
  Unix.mkdir dir 0o755;
  attach ctx ~dir ~conns ~n ?trace ()

let stop i =
  List.iter Client.close i.conns;
  match Proc.stop i.d with Ok () -> () | Error e -> fail "%s" e

let run c ~eps ~tau ~seed = Client.run c ~dataset ~seed ~jobs:(query ~eps tau) ()

(* The result of a one-job [run] reply that completed. *)
let answer = function
  | Ok payload -> (
      match list "results" payload with
      | [ r ] when str "status" r = Some "ok" -> Some r
      | _ -> None)
  | Error _ -> None

(* One query per τ: the first query for each target also computes the
   epoch's r_opt bounds, so measured requests find them cached. *)
let warm c ~eps ~seeds =
  Array.mapi
    (fun k seed ->
      let r = run c ~eps ~tau:taus.(k) ~seed in
      match answer r with
      | Some res -> res
      | None ->
          fail "warm-up query %d failed: %s" k
            (match r with
            | Ok p -> Json.to_string ~indent:false p
            | Error f -> Client.fail_message f))
    seeds

let reply_bytes = function
  | Ok payload -> String.length (Json.to_string ~indent:false payload)
  | Error _ -> 0

(* Closed loops, one thread per connection, of [requests] requests per
   client.  [body c ~client ~i] sends request [i] of [client] and records
   it in that client's own slots; it returns [false] when the connection
   is dead. *)
let closed_loop conns ~requests body =
  let worker client c () =
    let i = ref 0 in
    while !i < requests && body c ~client ~i:!i do
      incr i
    done
  in
  List.mapi (fun client c -> Thread.create (worker client c) ()) conns |> List.iter Thread.join

(* Per-client request log: queries and writes (churn-window's appends
   and retires) apart, as start and round-trip ms. *)
type log = {
  mutable samples : (int64 * float) list;
  mutable writes : (int64 * float) list;
  mutable bytes : int;
  mutable bad : int;
  mutable first_bad : string option;  (* the first failed reply, for the report *)
}

let new_log () = { samples = []; writes = []; bytes = 0; bad = 0; first_bad = None }

let bad log r =
  log.bad <- log.bad + 1;
  if log.first_bad = None then
    log.first_bad <-
      Some
        (match r with
        | Ok p -> Json.to_string ~indent:false (Json.List (list "results" p))
        | Error f -> Client.fail_message f)

let timed ?(write = false) log f =
  let t0 = now () in
  let r = f () in
  let s = (t0, since_ms t0) in
  if write then log.writes <- s :: log.writes else log.samples <- s :: log.samples;
  log.bytes <- log.bytes + reply_bytes r;
  r

let merge logs = Array.of_list (List.concat_map (fun l -> l.samples) logs)

(* Record the measured phase's end-to-end figures and failure counts:
   latency over the queries, throughput over every request. *)
let account o logs ~wall_s =
  let samples = merge logs in
  let n = Array.length samples + List.fold_left (fun a l -> a + List.length l.writes) 0 logs in
  latency o samples ~requests:n ~wall_s;
  o.attempted <- o.attempted + n;
  o.failed <- o.failed + List.fold_left (fun a l -> a + l.bad) 0 logs;
  Option.iter
    (fun m -> info o "first_failure" (Json.String m))
    (List.find_map (fun l -> l.first_bad) logs);
  set o "wire.reply_bytes_mean"
    (float_of_int (List.fold_left (fun a l -> a + l.bytes) 0 logs) /. float_of_int (max 1 n));
  samples

(* Layer figures the daemon reports about itself: the [stats], [epoch]
   and [ledger] verbs.  Returns the ledger reply. *)
let observe o i ~client_p50 =
  let c = List.hd i.conns in
  let stats = rpc "stats" (Client.stats c) in
  let row key = List.find_opt (fun r -> str "verb" r = Some "run") (list key stats) in
  let ms q r = Option.value ~default:0. (Option.bind r (num q)) *. 1e3 in
  let req = row "requests" and wait = row "queue_wait" in
  set o "daemon.request_p50_ms" (ms "p50" req);
  set o "wire.client_overhead_p50_ms" (client_p50 -. ms "p50" req);
  set o "admission.queue_wait_p50_ms" (ms "p50" wait);
  set o "admission.queue_wait_p90_ms" (ms "p90" wait);
  set o "admission.shed_count"
    (match Json.member "sheds" stats with
    | Some (Json.Obj fs) ->
        float_of_int
          (List.fold_left (fun a (_, v) -> a + Option.value ~default:0 (Json.to_int v)) 0 fs)
    | _ -> 0.);
  let ep = rpc "epoch" (Client.epoch c ~dataset) in
  let count k =
    Option.value ~default:0. (Option.bind (path [ "result_cache"; k ] ep) Json.to_float)
  in
  set o "result_cache.hit_ratio" (count "hits" /. Float.max 1. (count "hits" +. count "misses"));
  let backend = Option.value ~default:"?" (str "index_backend" ep) in
  info o "index_backend" (Json.String backend);
  let led = rpc "ledger" (Client.ledger c ~dataset) in
  set o "accountant.charges_end"
    (float_of_int
       (List.length (Option.fold ~none:[] ~some:(list "charges") (Json.member "ledger" led))));
  set o "peak_rss_mb" (Proc.peak_rss_mb ~pid:i.d.Proc.pid ());
  led

let spent led = Option.bind (path [ "ledger"; "spent"; "eps" ] led) Json.to_float

(* The journal after the daemon stopped: its size, and the cost of
   loading it and replaying its budget operations into fresh accountants
   (the journal-bound part of a restart; re-applying mutations is timed
   by the registry metrics). *)
let wal_metrics o wal =
  let loaded, load_s = time_s (fun () -> Server.Wal.load wal) in
  let records = match loaded with Ok (r, _) -> r | Error e -> fail "WAL load: %s" e in
  let (), replay_s =
    time_s (fun () ->
        List.iter
          (fun (_, ops) ->
            match Server.Wal.opening ops with
            | Some (mode, budget, _) -> (
                match Server.Wal.replay ops (Engine.Accountant.create ~mode ~budget ()) with
                | Ok _ -> ()
                | Error e -> fail "WAL replay: %s" e)
            | None -> ())
          (Server.Wal.histories records))
  in
  set o "wal.records_end" (float_of_int (List.length records));
  set o "wal.bytes_end" (float_of_int (Unix.stat wal).Unix.st_size);
  set o "wal.replay_s" (load_s +. replay_s)

(* The durable-append cost on this disk: [count] fsync'd appends of one
   charge record through the daemon's own journal code. *)
let fsync_metric o ~dir ~count =
  let file = Filename.concat dir "fsync.wal" in
  let w = match Server.Wal.open_ ~sync:true file with Ok w -> w | Error e -> fail "%s" e in
  let r =
    {
      Server.Wal.tenant = Proc.tenant;
      dataset;
      op = Server.Wal.Charge { label = "j1"; cost = Prim.Dp.v ~eps:1. ~delta:1e-7 };
    }
  in
  let us =
    Array.init count (fun _ -> snd (time_ms (fun () -> Server.Wal.append w r)) *. 1e3)
  in
  Server.Wal.close w;
  Sys.remove file;
  set o "wal.append_fsync_us" (median us)

(* The traced run: a fresh daemon under [--trace FILE --trace-sample 1],
   set up like the measured one, then [measure] (a shorter phase).  The
   span trees of the measured requests are folded per request; the
   register and warm-up requests are the first request roots and are
   dropped.  Overhead compares the traced median with the median of the
   first requests of the untraced phase, the same point in the history. *)
let traced o ctx ~n ~eps ~conns ~warm_seeds ~untraced measure =
  let dir = "traced" in
  let file = Filename.concat dir "trace.json" in
  let i = start ctx ~dir ~conns ~n ~trace:file () in
  ignore (warm (List.hd i.conns) ~eps ~seeds:warm_seeds);
  let logs = measure i in
  stop i;
  let samples = merge logs in
  let all = Array.append samples (Array.of_list (List.concat_map (fun l -> l.writes) logs)) in
  let spans = match Spans.of_trace_file file with Ok s -> s | Error e -> fail "trace: %s" e in
  let roots =
    List.filter (fun (s : Spans.span) -> s.parent = None && s.cat = "request") spans
    |> List.sort (fun (a : Spans.span) b -> compare a.id b.id)
    |> List.filteri (fun k _ -> k > Array.length warm_seeds)
  in
  let ids = Hashtbl.create 1024 in
  List.iter (fun (s : Spans.span) -> Hashtbl.replace ids s.id ()) roots;
  let m = Array.length all in
  if List.length roots <> m then
    fail "trace holds %d measured request trees for %d requests" (List.length roots) m;
  fold_trace o
    ~spans:(Spans.trees ~root:(fun s -> Hashtbl.mem ids s.id) spans)
    ~requests:m
    ~wall_ms:(sum (Array.map snd all));
  let first =
    let a = Array.copy untraced in
    Array.sort (fun (x, _) (y, _) -> Int64.compare x y) a;
    Array.sub a 0 (min (Array.length samples) (Array.length a))
  in
  let p50 s = median (Array.map snd s) in
  set o "trace.overhead_pct" (100. *. ((p50 samples /. p50 first) -. 1.))

(* Layer timings that need no daemon: fsync'd appends in the run
   directory, and the registry on an in-process copy of the dataset. *)
let in_process_layers o ctx ~n ~step =
  let seed = synth_seed ctx in
  fsync_metric o ~dir:"." ~count:(if ctx.smoke then 20 else 1000);
  registry_timings o (service ()) ~name:"timing" (points ~n ~seed) ~taus ~step ~seed

(* --- serve-dense ---------------------------------------------------------- *)

(* Every request is a fresh (τ, seed) pair: each misses the result cache,
   is charged 1 ε and journaled, and its reply carries the whole ledger. *)
let serve_dense o ctx =
  let n = 3000 and eps = 1.0 in
  let base = seed_base ctx in
  let warm_seeds = Array.init 3 (fun k -> base + 900_000 + k) in
  let setup k =
    time_s (fun () ->
        let i = start ctx ~dir:(Printf.sprintf "setup%d" k) ~conns:2 ~n () in
        ignore (warm (List.hd i.conns) ~eps ~seeds:warm_seeds);
        i)
  in
  let i = repeated_setup o ctx ~setup ~teardown:stop in
  let measure ~requests i =
    let logs = [| new_log (); new_log () |] and kept = [| []; [] |] in
    let t0 = now () in
    closed_loop i.conns ~requests (fun c ~client ~i ->
        let tau = taus.((i + client) mod 3) and seed = base + (client * 400_000) + i in
        let log = logs.(client) in
        match timed log (fun () -> run c ~eps ~tau ~seed) with
        | Error (`Transport _) as r ->
            bad log r;
            false
        | r ->
            (match answer r with
            | Some res when int "attempts" res = Some 1 ->
                if i mod 100 = 0 then kept.(client) <- (tau, seed, res) :: kept.(client)
            | _ -> bad log r);
            true);
    (Array.to_list logs, Array.to_list kept |> List.concat, since_ms t0 /. 1e3)
  in
  let logs, kept, wall_s = measure ~requests:(count ctx ~full:500 ~smoke:10) i in
  let samples = account o logs ~wall_s in
  let led = observe o i ~client_p50:(median (Array.map snd samples)) in
  let charged = float_of_int (Array.length warm_seeds + Array.length samples) in
  check o "ledger spend = 1 eps per charged request"
    (spent led = Some charged)
    (Printf.sprintf "spent %s, expected %g"
       (Option.fold ~none:"?" ~some:string_of_float (spent led))
       charged);
  stop i;
  (* Every 100th request again, in-process on a copy of the dataset: the
     daemon must have answered exactly what the engine computes. *)
  let svc = service () in
  let ds =
    Engine.Service.register svc ~name:dataset ~grid ~budget (points ~n ~seed:(synth_seed ctx))
  in
  let render j = Json.to_string ~indent:false (strip [ "latency_ms" ] j) in
  let mismatches =
    List.filter
      (fun (tau, seed, remote) ->
        let specs = Result.get_ok (Engine.Job.parse (query ~eps tau)) in
        match Engine.Service.run_batch svc ~dataset:ds ~seed specs with
        | [ r ] -> render (Engine.Job.result_to_json r) <> render remote
        | _ -> true)
      kept
  in
  check o "every 100th reply equals the in-process answer" (mismatches = [] && kept <> [])
    (Printf.sprintf "%d of %d replayed requests differ" (List.length mismatches)
       (List.length kept));
  info o "replayed_in_process" (Json.Int (List.length kept));
  if ctx.trace then begin
    wal_metrics o i.d.Proc.wal;
    in_process_layers o ctx ~n ~step:(if ctx.smoke then 30 else 150);
    traced o ctx ~n ~eps ~conns:2 ~warm_seeds ~untraced:samples (fun i ->
        let logs, _, _ = measure ~requests:(count ctx ~full:75 ~smoke:5) i in
        logs)
  end

(* --- serve-cached --------------------------------------------------------- *)

(* Every request repeats one of the three (spec, seed) pairs the warm-up
   answered, so each is a result-cache hit: free, unjournaled, and
   bit-identical to the first answer. *)
let serve_cached o ctx =
  let n = 3000 and eps = 1.0 in
  let warm_seeds = Array.init 3 (fun k -> seed_base ctx + 900_000 + k) in
  let first = ref [||] in
  let setup k =
    time_s (fun () ->
        let i = start ctx ~dir:(Printf.sprintf "setup%d" k) ~conns:2 ~n () in
        let answers = warm (List.hd i.conns) ~eps ~seeds:warm_seeds in
        first := Array.map (strip [ "latency_ms"; "attempts" ]) answers;
        i)
  in
  let i = repeated_setup o ctx ~setup ~teardown:stop in
  (* A reply that is not a completed answer is a failed request; one
     that is, but is not the recorded hit, fails the check below. *)
  let measure ~requests i =
    let logs = [| new_log (); new_log () |] and differ = [| 0; 0 |] in
    let t0 = now () in
    closed_loop i.conns ~requests (fun c ~client ~i ->
        let k = (i + client) mod 3 in
        let log = logs.(client) in
        match timed log (fun () -> run c ~eps ~tau:taus.(k) ~seed:warm_seeds.(k)) with
        | Error (`Transport _) as r ->
            bad log r;
            false
        | r ->
            (match answer r with
            | Some res ->
                if
                  not
                    (int "attempts" res = Some 0
                    && same (strip [ "latency_ms"; "attempts" ] res) !first.(k))
                then differ.(client) <- differ.(client) + 1
            | None -> bad log r);
            true);
    (Array.to_list logs, differ.(0) + differ.(1), since_ms t0 /. 1e3)
  in
  let before = spent (rpc "ledger" (Client.ledger (List.hd i.conns) ~dataset)) in
  let logs, differ, wall_s = measure ~requests:(count ctx ~full:75_000 ~smoke:10) i in
  let samples = account o logs ~wall_s in
  let led = observe o i ~client_p50:(median (Array.map snd samples)) in
  check o "cache hits charge nothing" (before <> None && spent led = before)
    (Printf.sprintf "spent %s before the measured phase, %s after"
       (Option.fold ~none:"?" ~some:string_of_float before)
       (Option.fold ~none:"?" ~some:string_of_float (spent led)));
  check o "every hit equals its warm-up answer" (differ = 0)
    (Printf.sprintf "%d replies differ from the warm-up answer" differ);
  stop i;
  if ctx.trace then begin
    wal_metrics o i.d.Proc.wal;
    in_process_layers o ctx ~n ~step:(if ctx.smoke then 30 else 150);
    traced o ctx ~n ~eps ~conns:2 ~warm_seeds ~untraced:samples (fun i ->
        let logs, _, _ = measure ~requests:(count ctx ~full:1000 ~smoke:10) i in
        logs)
  end

(* --- churn-window --------------------------------------------------------- *)

(* Each cycle appends [step] points, asks one query, retires the appended
   rows and asks four more: every write publishes an epoch, rebuilds the
   dense index and is journaled.  Then a restart replays the whole
   history.  The retire keeps the registered rows: retiring the oldest
   rows instead replaces the whole dataset after n / step cycles with
   appended batches, each planted around a center of its own, and
   one_cluster then fails honestly ("noisy average returned bottom").  The
   queries spend ε = 2: at n = 2000 and ε = 1 about one query in 1100
   fails that way even on the registered rows. *)
let churn_window o ctx =
  let n = 2000 and eps = 2.0 and step = if ctx.smoke then 30 else 150 in
  let base = seed_base ctx in
  let warm_seeds = Array.init 3 (fun k -> base + 900_000 + k) in
  let setup k =
    time_s (fun () ->
        let i = start ctx ~dir:(Printf.sprintf "setup%d" k) ~conns:1 ~n () in
        ignore (warm (List.hd i.conns) ~eps ~seeds:warm_seeds);
        i)
  in
  let i = repeated_setup o ctx ~setup ~teardown:stop in
  (* One cycle on connection [c]; queries are numbered globally by [q].
     Epoch turnaround: from sending the append to the first answer on the
     epoch it published. *)
  let cycle c log ~j ~q ~turnaround ~last =
    let query () =
      let tau = taus.(!q mod 3) and seed = base + !q in
      incr q;
      let r = timed log (fun () -> run c ~eps ~tau ~seed) in
      match answer r with
      | Some res -> last := Some (tau, seed, strip [ "latency_ms"; "attempts" ] res)
      | None -> bad log r
    in
    let write f =
      match timed ~write:true log f with
      | Ok p when int "epoch" p <> None -> ()
      | r -> bad log r
    in
    let t0 = now () in
    write (fun () -> Client.append c ~dataset ~n:step ~seed:(base + 700_000 + j) ());
    query ();
    turnaround := since_ms t0 :: !turnaround;
    write (fun () -> Client.retire c ~dataset ~from_:n ~count:step);
    for _ = 1 to 4 do
      query ()
    done
  in
  let measure ~cycles i =
    let c = List.hd i.conns and log = new_log () in
    let turnaround = ref [] and last = ref None and q = ref 0 in
    let t0 = now () in
    for j = 0 to cycles - 1 do
      cycle c log ~j ~q ~turnaround ~last
    done;
    (log, !turnaround, !last, since_ms t0 /. 1e3)
  in
  let cycles = count ctx ~full:24 ~smoke:2 in
  let log, turnaround, last, wall_s = measure ~cycles i in
  let samples = account o [ log ] ~wall_s in
  set o "churn.write_p50_ms" (median (Array.of_list (List.map snd log.writes)));
  set o "churn.epoch_turnaround_ms" (median (Array.of_list turnaround));
  info o "cycles" (Json.Int cycles);
  let led = observe o i ~client_p50:(median (Array.map snd samples)) in
  let ep = rpc "epoch" (Client.epoch (List.hd i.conns) ~dataset) in
  (* Restart: SIGTERM, a new daemon on the same WAL, re-register (replay),
     and the first answer — the last query again, now a cache hit. *)
  let tau, seed, answer_before =
    match last with Some l -> l | None -> fail "no query completed before the restart"
  in
  let (i, again), restart_s =
    time_s (fun () ->
        stop i;
        let i = attach ctx ~dir:(Filename.dirname i.d.Proc.wal) ~conns:1 ~n () in
        (i, run (List.hd i.conns) ~eps ~tau ~seed))
  in
  set o "daemon.restart_s" restart_s;
  let c = List.hd i.conns in
  check o "the repeated query returns the identical cached answer"
    (match answer again with
    | Some r ->
        int "attempts" r = Some 0 && same (strip [ "latency_ms"; "attempts" ] r) answer_before
    | None -> false)
    "answer after the restart differs from the answer before it";
  check o "ledger after the restart equals the ledger before it"
    (same
       (Json.member "ledger" (rpc "ledger" (Client.ledger c ~dataset)))
       (Json.member "ledger" led))
    "replayed ledger differs";
  let state e = List.map (fun k -> Json.member k e) [ "epoch"; "n"; "dim"; "index_backend" ] in
  check o "epoch after the restart equals the epoch before it"
    (same (state (rpc "epoch" (Client.epoch c ~dataset))) (state ep))
    "replayed epoch differs";
  stop i;
  if ctx.trace then begin
    wal_metrics o i.d.Proc.wal;
    in_process_layers o ctx ~n ~step;
    traced o ctx ~n ~eps ~conns:1 ~warm_seeds ~untraced:samples (fun i ->
        let log, _, _, _ = measure ~cycles:(count ctx ~full:3 ~smoke:1) i in
        [ log ])
  end
