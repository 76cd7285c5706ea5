(* Families are built from a plain intermediate so the live path
   (Telemetry/Accountant values) and the post-hoc path (a report JSON)
   render identically.  Job latency travels as an [Obs.Hist.snapshot],
   which the report stores exactly ([Obs.Hist.to_json] and
   [snapshot_of_json] are inverses), so the two paths' [privcluster_job*]
   lines agree byte for byte; every latency family is in seconds. *)

type kind_row = { kind : string; statuses : (string * int) list; latency : Obs.Hist.snapshot }

type acct_row = {
  dataset : string;
  budget_eps : float;
  budget_delta : float;
  spent_eps : float;
  spent_delta : float;
  refusals : int;
  epoch : int;
}

type source = {
  kinds : kind_row list;
  counters : (string * int) list;
  acct : acct_row list;  (* one row per dataset; the [dataset] label keys them *)
  result_cache : (string * int * int) list;  (* (dataset, hits, misses) *)
}

let summary_quantiles = [ 0.5; 0.9; 0.99 ]

let summary_of_hist snap =
  {
    Obs.Prom.quantiles =
      List.map (fun q -> (q, Obs.Hist.quantile_ns snap ~q /. 1e9)) summary_quantiles;
    sum = float_of_int snap.Obs.Hist.sum_ns /. 1e9;
    count = snap.Obs.Hist.count;
  }

let families_of_source src =
  let open Obs.Prom in
  let jobs =
    Counter
      {
        name = "privcluster_jobs_total";
        help = "Finished jobs by kind and status.";
        samples =
          List.concat_map
            (fun r ->
              List.map
                (fun (status, c) ->
                  ([ ("kind", r.kind); ("status", status) ], float_of_int c))
                r.statuses)
            src.kinds;
      }
  in
  let latency =
    Histogram
      {
        name = "privcluster_job_latency_seconds";
        help = "Job latency histogram (seconds) by kind.";
        samples = List.map (fun r -> ([ ("kind", r.kind) ], Obs.Hist.to_prom r.latency)) src.kinds;
      }
  in
  let latency_quantiles =
    Summary
      {
        name = "privcluster_job_latency_quantile_seconds";
        help = "Estimated job latency quantiles (seconds) by kind.";
        samples =
          List.filter_map
            (fun r ->
              if r.latency.Obs.Hist.count = 0 then None
              else Some ([ ("kind", r.kind) ], summary_of_hist r.latency))
            src.kinds;
      }
  in
  let events =
    Counter
      {
        name = "privcluster_engine_events_total";
        help = "Engine event counters (retries, degradations).";
        samples =
          List.map (fun (k, v) -> ([ ("event", k) ], float_of_int v)) src.counters;
      }
  in
  let acct =
    (* All datasets share the three budget families; the [dataset] label
       distinguishes rows, so a multi-dataset tenant scrapes one family
       per quantity rather than one family per dataset. *)
    match src.acct with
    | [] -> []
    | rows ->
        let samples f =
          List.concat_map
            (fun a ->
              let l = [ ("dataset", a.dataset) ] in
              f l a)
            rows
        in
        [
          Gauge
            {
              name = "privcluster_budget_epsilon";
              help = "Privacy-budget epsilon, total and composed spend.";
              samples =
                samples (fun l a ->
                    [
                      (l @ [ ("quantity", "budget") ], a.budget_eps);
                      (l @ [ ("quantity", "spent") ], a.spent_eps);
                    ]);
            };
          Gauge
            {
              name = "privcluster_budget_delta";
              help = "Privacy-budget delta, total and composed spend.";
              samples =
                samples (fun l a ->
                    [
                      (l @ [ ("quantity", "budget") ], a.budget_delta);
                      (l @ [ ("quantity", "spent") ], a.spent_delta);
                    ]);
            };
          Counter
            {
              name = "privcluster_budget_refusals_total";
              help = "Jobs refused at admission for lack of budget.";
              samples = samples (fun l a -> [ (l, float_of_int a.refusals) ]);
            };
          Gauge
            {
              name = "privcluster_epoch";
              help = "Current dataset epoch (bumped by every append/retire).";
              samples = samples (fun l a -> [ (l, float_of_int a.epoch) ]);
            };
        ]
  in
  let rcache =
    match src.result_cache with
    | [] -> []
    | rows ->
        [
          Obs.Prom.Counter
            {
              name = "privcluster_result_cache_total";
              help = "Result-cache lookups by outcome; hits charged nothing.";
              samples =
                List.concat_map
                  (fun (ds, hits, misses) ->
                    [
                      ([ ("dataset", ds); ("event", "hit") ], float_of_int hits);
                      ([ ("dataset", ds); ("event", "miss") ], float_of_int misses);
                    ])
                  rows;
            };
        ]
  in
  (jobs :: latency :: latency_quantiles :: events :: acct) @ rcache

(* --- serving telemetry (the daemon's request-level families) -------------- *)

type serving_rows = {
  requests : (string * string * Obs.Hist.snapshot) list;  (* (verb, tenant, hist) *)
  queue_wait : (string * Obs.Hist.snapshot) list;  (* (verb, hist) *)
  burn : (string * string * float) list;  (* (tenant, dataset, per hour) *)
  sheds : (string * int) list;  (* (reason, count) *)
}

let serving_families rows =
  let open Obs.Prom in
  [
    Summary
      {
        name = "privcluster_request_seconds";
        help = "Request latency (admission to reply) by verb and tenant.";
        samples =
          List.map
            (fun (verb, tenant, snap) ->
              ([ ("verb", verb); ("tenant", tenant) ], summary_of_hist snap))
            rows.requests;
      };
    Histogram
      {
        name = "privcluster_queue_wait_seconds";
        help = "Executor-queue wait (submit to start) by verb.";
        samples =
          List.map
            (fun (verb, snap) -> ([ ("verb", verb) ], Obs.Hist.to_prom snap))
            rows.queue_wait;
      };
    Gauge
      {
        name = "privcluster_budget_burn_rate";
        help =
          "Epsilon spend over the trailing hour as a fraction of the dataset's \
           budget, per tenant and dataset.";
        samples =
          List.map
            (fun (tenant, dataset, rate) ->
              ([ ("tenant", tenant); ("dataset", dataset) ], rate))
            rows.burn;
      };
    Counter
      {
        name = "privcluster_request_sheds_total";
        help = "Requests shed at admission, by reason; shed requests charge nothing.";
        samples =
          List.map (fun (reason, n) -> ([ ("reason", reason) ], float_of_int n)) rows.sheds;
      };
  ]

let source_of_live ?dataset ?(datasets = []) ?result_cache telemetry =
  let kinds =
    List.map
      (fun (kind, statuses, latency) -> { kind; statuses; latency })
      (Telemetry.kinds telemetry)
  in
  let acct =
    List.map
      (fun d ->
        let a = Registry.accountant d in
        let budget = Accountant.budget a and spent = Accountant.spent a in
        {
          dataset = Registry.name d;
          budget_eps = budget.Prim.Dp.eps;
          budget_delta = budget.Prim.Dp.delta;
          spent_eps = spent.Prim.Dp.eps;
          spent_delta = spent.Prim.Dp.delta;
          refusals = Accountant.refusals a;
          epoch = Registry.epoch d;
        })
      (Option.to_list dataset @ datasets)
  in
  let result_cache =
    match result_cache with None -> [] | Some c -> Result_cache.all_stats c
  in
  { kinds; counters = Telemetry.counters telemetry; acct; result_cache }

let families ?(spans = []) ?dataset ?datasets ?result_cache ~telemetry () =
  families_of_source (source_of_live ?dataset ?datasets ?result_cache telemetry)
  @ (if spans = [] then [] else Obs.Prom.of_spans spans)

let render ?spans ?dataset ?datasets ?result_cache ~telemetry () =
  Obs.Prom.render (families ?spans ?dataset ?datasets ?result_cache ~telemetry ())

(* --- post-hoc: rebuild from a report JSON -------------------------------- *)

let ( let* ) = Result.bind

let field name json =
  match Obs.Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_obj what = function
  | Obs.Json.Obj fields -> Ok fields
  | _ -> Error (Printf.sprintf "%s is not an object" what)

let num what j =
  match Obs.Json.to_float j with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s is not a number" what)

let kind_of_json (kind, j) =
  let* statuses = field "by_status" j in
  let* statuses = as_obj (kind ^ ".by_status") statuses in
  let statuses =
    List.filter_map (fun (s, v) -> Option.map (fun c -> (s, c)) (Obs.Json.to_int v)) statuses
  in
  let* latency =
    match Obs.Json.member "latency" j with
    | None -> Error (Printf.sprintf "missing field %S" (kind ^ ".latency"))
    | Some l -> Result.map_error (( ^ ) (kind ^ ".latency: ")) (Obs.Hist.snapshot_of_json l)
  in
  Ok { kind; statuses; latency }

let acct_of_json ~dataset ?(epoch = 0) j =
  let* budget = field "budget" j in
  let* spent = field "spent" j in
  let* budget_eps = num "budget.eps" (Option.value ~default:Obs.Json.Null (Obs.Json.member "eps" budget)) in
  let* budget_delta = num "budget.delta" (Option.value ~default:Obs.Json.Null (Obs.Json.member "delta" budget)) in
  let* spent_eps = num "spent.eps" (Option.value ~default:Obs.Json.Null (Obs.Json.member "eps" spent)) in
  let* spent_delta = num "spent.delta" (Option.value ~default:Obs.Json.Null (Obs.Json.member "delta" spent)) in
  let refusals =
    Option.value ~default:0 (Option.bind (Obs.Json.member "refusals" j) Obs.Json.to_int)
  in
  Ok { dataset; budget_eps; budget_delta; spent_eps; spent_delta; refusals; epoch }

let of_report_json json =
  let* telemetry = field "telemetry" json in
  let* kinds_obj =
    match Obs.Json.member "kinds" telemetry with
    | Some k -> as_obj "telemetry.kinds" k
    | None -> Error "missing field \"telemetry.kinds\""
  in
  let* kinds =
    List.fold_left
      (fun acc kv ->
        let* acc = acc in
        let* row = kind_of_json kv in
        Ok (row :: acc))
      (Ok []) kinds_obj
  in
  let counters =
    match Option.bind (Obs.Json.member "counters" telemetry) (fun c -> Result.to_option (as_obj "counters" c)) with
    | None -> []
    | Some fields ->
        List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (Obs.Json.to_int v)) fields
  in
  let* acct =
    match Obs.Json.member "dataset" json with
    | None -> Ok []
    | Some d -> (
        let name =
          Option.value ~default:"dataset"
            (Option.bind (Obs.Json.member "name" d) Obs.Json.to_str)
        in
        let epoch =
          Option.value ~default:0 (Option.bind (Obs.Json.member "epoch" d) Obs.Json.to_int)
        in
        match Obs.Json.member "accountant" d with
        | None -> Ok []
        | Some a ->
            let* row = acct_of_json ~dataset:name ~epoch a in
            Ok [ row ])
  in
  Ok (families_of_source { kinds = List.rev kinds; counters; acct; result_cache = [] })
