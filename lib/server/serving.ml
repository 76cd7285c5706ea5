module Json = Obs.Json
module Hist = Obs.Hist
module Slo = Obs.Slo

(* Sliding ε-spend window for one (tenant, dataset). *)
type burn_window = {
  mutable budget_eps : float;
  mutable samples : (int64 * float) list;  (* (t_ns, composed spend), newest first *)
}

type t = {
  mu : Mutex.t;
  requests : (string * string, Hist.t) Hashtbl.t;  (* (verb, tenant) *)
  waits : (string, Hist.t) Hashtbl.t;  (* verb *)
  burns : (string * string, burn_window) Hashtbl.t;  (* (tenant, dataset) *)
  mutable submitted : int;
  mutable shed_queue_full : int;
  mutable shed_tenant_cap : int;
  mutable shed_draining : int;
  shards : int;
  sample_every : int;
  slow_threshold_ns : int;
  slow_log : string option;
  slow_keep : int;
  rules : Slo.rule list;
}

let burn_window_ns = 3_600_000_000_000L (* 1 h *)
let burn_floor_ns = 300_000_000_000L (* 5 min: pace of a fresh burst *)

let burn_spacing_ns = 1_000_000_000L
(* Samples younger than this coalesce into the newest one, which caps a
   window at [burn_window_ns / burn_spacing_ns] (+1 baseline) entries no
   matter the request rate, and makes the hot path O(1): the O(window)
   prune below only runs when a new sample is actually appended, at most
   once per spacing interval. *)

let create ?(shards = 8) ?(sample_every = 0) ?(slow_threshold_ms = 250.)
    ?slow_log ?(slow_keep = 64) ?(rules = Slo.default_rules) () =
  {
    mu = Mutex.create ();
    requests = Hashtbl.create 32;
    waits = Hashtbl.create 16;
    burns = Hashtbl.create 16;
    submitted = 0;
    shed_queue_full = 0;
    shed_tenant_cap = 0;
    shed_draining = 0;
    shards;
    sample_every = max 0 sample_every;
    slow_threshold_ns = int_of_float (Float.max 0. slow_threshold_ms *. 1e6);
    slow_log;
    slow_keep = max 1 slow_keep;
    rules;
  }

let sample_every t = t.sample_every
let slow_threshold_ns t = t.slow_threshold_ns
let slow_log_dir t = t.slow_log

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Find-or-create under the mutex; the subsequent observe is lock-free.
   The table only ever grows, keyed by a small closed set of verbs ×
   authenticated tenants, so it stays tiny. *)
let hist_for t tbl key =
  locked t (fun () ->
      match Hashtbl.find_opt tbl key with
      | Some h -> h
      | None ->
          let h = Hist.create ~shards:t.shards () in
          Hashtbl.add tbl key h;
          h)

let record_request t ~verb ~tenant ~ns =
  Hist.observe_ns (hist_for t t.requests (verb, tenant)) ns

let record_queue_wait t ~verb ~ns = Hist.observe_ns (hist_for t t.waits verb) ns

let record_submit t = locked t (fun () -> t.submitted <- t.submitted + 1)

let record_shed t reason =
  locked t (fun () ->
      match reason with
      | Wire.Queue_full -> t.shed_queue_full <- t.shed_queue_full + 1
      | Wire.Tenant_cap -> t.shed_tenant_cap <- t.shed_tenant_cap + 1
      | Wire.Draining -> t.shed_draining <- t.shed_draining + 1)

let record_burn t ~tenant ~dataset ~budget_eps ~spent_eps ~now_ns =
  locked t (fun () ->
      let w =
        match Hashtbl.find_opt t.burns (tenant, dataset) with
        | Some w -> w
        | None ->
            let w = { budget_eps; samples = [] } in
            Hashtbl.add t.burns (tenant, dataset) w;
            w
      in
      w.budget_eps <- budget_eps;
      match w.samples with
      | (t_head, _) :: rest when Int64.compare (Int64.sub now_ns t_head) burn_spacing_ns < 0
        ->
          (* Within the coalescing interval: refresh the newest sample in
             place instead of growing the window. *)
          w.samples <- (now_ns, spent_eps) :: rest
      | _ ->
          let horizon = Int64.sub now_ns burn_window_ns in
          let keep, old =
            List.partition (fun (ts, _) -> Int64.compare ts horizon >= 0) w.samples
          in
          (* Keep one sample beyond the horizon as the window's baseline, so
             a spend that happened 59 minutes ago still shows its
             increment. *)
          let baseline = match old with s :: _ -> [ s ] | [] -> [] in
          w.samples <- ((now_ns, spent_eps) :: keep) @ baseline)

(* --- deterministic head sampling ----------------------------------------- *)

let fnv1a s =
  let offset_basis = 0xcbf29ce484222325L and prime = 0x100000001b3L in
  let h = ref offset_basis in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let sampled t ~key =
  t.sample_every > 0
  && Int64.rem (Int64.logand (fnv1a key) Int64.max_int)
       (Int64.of_int t.sample_every)
     = 0L

(* --- exemplar ring -------------------------------------------------------- *)

let exemplar_prefix = "exemplar-"

let exemplar_files t =
  match t.slow_log with
  | None -> []
  | Some dir -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> []
      | entries ->
          Array.to_list entries
          |> List.filter (fun f -> String.starts_with ~prefix:exemplar_prefix f)
          |> List.sort compare
          |> List.map (fun f -> Filename.concat dir f))

let sanitize_component s =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c | _ -> '_')
    s

let write_exemplar t ~verb ~seq ~reason ~json =
  match t.slow_log with
  | None -> ()
  | Some dir ->
      locked t (fun () ->
          try
            if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
            (* Zero-padded sequence numbers make lexicographic order the
               age order, which is what the pruning below relies on. *)
            let name =
              Printf.sprintf "%s%08d-%s-%s.trace.json" exemplar_prefix seq
                (sanitize_component reason) (sanitize_component verb)
            in
            let path = Filename.concat dir name in
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc json);
            let files =
              Sys.readdir dir |> Array.to_list
              |> List.filter (fun f -> String.starts_with ~prefix:exemplar_prefix f)
              |> List.sort compare
            in
            let excess = List.length files - t.slow_keep in
            if excess > 0 then
              List.iteri
                (fun i f ->
                  if i < excess then
                    try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
                files
          with Sys_error _ | Unix.Unix_error (_, _, _) -> ())

(* --- views ---------------------------------------------------------------- *)

let request_rows t =
  locked t (fun () ->
      Hashtbl.fold (fun (v, tn) h acc -> (v, tn, h) :: acc) t.requests [])
  |> List.map (fun (v, tn, h) -> (v, tn, Hist.snapshot h))
  |> List.sort compare

let wait_rows t =
  locked t (fun () -> Hashtbl.fold (fun v h acc -> (v, h) :: acc) t.waits [])
  |> List.map (fun (v, h) -> (v, Hist.snapshot h))
  |> List.sort compare

let burn_rate ~now_ns (w : burn_window) =
  match List.rev w.samples with
  | [] | [ _ ] -> 0.
  | (t0, s0) :: _ ->
      let t1, s1 = List.hd w.samples in
      let dspend = Float.max 0. (s1 -. s0) in
      ignore t1;
      let span_ns = Int64.sub now_ns t0 in
      let span_ns =
        if Int64.compare span_ns burn_floor_ns < 0 then burn_floor_ns else span_ns
      in
      if w.budget_eps <= 0. then 0.
      else
        let hours = Int64.to_float span_ns /. 3.6e12 in
        dspend /. w.budget_eps /. hours

let burn_rows t ~now_ns =
  locked t (fun () ->
      Hashtbl.fold
        (fun (tn, ds) w acc -> (tn, ds, burn_rate ~now_ns w) :: acc)
        t.burns [])
  |> List.sort compare

let shed_rows t =
  locked t (fun () ->
      [
        (Wire.shed_reason_name Wire.Queue_full, t.shed_queue_full);
        (Wire.shed_reason_name Wire.Tenant_cap, t.shed_tenant_cap);
        (Wire.shed_reason_name Wire.Draining, t.shed_draining);
      ])

let submissions t = locked t (fun () -> t.submitted)

let observations t ~now_ns =
  {
    Slo.latencies =
      (fun () ->
        (* Merge tenants: SLO latency targets are per verb. *)
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (v, _tn, h) ->
            let cur = Option.value ~default:Hist.empty (Hashtbl.find_opt tbl v) in
            Hashtbl.replace tbl v (Hist.merge cur h))
          (request_rows t);
        Hashtbl.fold (fun v h acc -> (v, h) :: acc) tbl [] |> List.sort compare);
    burn_rates = (fun () -> burn_rows t ~now_ns);
    shed_rate =
      (fun () ->
        let total = submissions t in
        if total = 0 then (0., 0)
        else
          let shed = List.fold_left (fun a (_, n) -> a + n) 0 (shed_rows t) in
          (float_of_int shed /. float_of_int total, total));
  }

let health t ~now_ns = Slo.eval_all (observations t ~now_ns) t.rules

let stats_json t ~now_ns =
  let requests =
    List.map
      (fun (v, tn, h) ->
        Json.Obj
          (("verb", Json.String v) :: ("tenant", Json.String tn)
          :: (match Hist.to_json h with Json.Obj fs -> fs | other -> [ ("hist", other) ])))
      (request_rows t)
  in
  let waits =
    List.map
      (fun (v, h) ->
        Json.Obj
          (("verb", Json.String v)
          :: (match Hist.to_json h with Json.Obj fs -> fs | other -> [ ("hist", other) ])))
      (wait_rows t)
  in
  let burns =
    List.map
      (fun (tn, ds, rate) ->
        Json.Obj
          [
            ("tenant", Json.String tn);
            ("dataset", Json.String ds);
            ("per_hour", Json.Float rate);
          ])
      (burn_rows t ~now_ns)
  in
  Json.Obj
    [
      ("requests", Json.List requests);
      ("queue_wait", Json.List waits);
      ("burn_rates", Json.List burns);
      ( "sheds",
        Json.Obj (List.map (fun (r, n) -> (r, Json.Int n)) (shed_rows t)) );
      ("submissions", Json.Int (submissions t));
      ("sample_every", Json.Int t.sample_every);
      ("slow_threshold_ms", Json.Float (float_of_int t.slow_threshold_ns /. 1e6));
      ("exemplars", Json.Int (List.length (exemplar_files t)));
    ]
