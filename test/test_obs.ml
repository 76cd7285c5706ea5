(* The observability layer: span collection and tree well-formedness under
   engine fan-out, budget attribution against the accountant ledger (all
   composition modes, fallback commit/release, retry replay), the Chrome
   trace exporter's schema, the JSON parser, and Prometheus exposition.
   Tracing must also be inert: enabling it draws no randomness and a
   disabled collector records nothing. *)

open Testutil

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Tracing state is global; every test runs inside this bracket so a
   failure cannot leak an enabled collector into other suites. *)
let with_tracing f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    f

(* --- batch fixtures ------------------------------------------------------ *)

let oc ?(eps = 0.4) ?(delta = 1e-7) ?deadline_s ?(fallback = false) id =
  {
    Engine.Job.id;
    kind = Engine.Job.One_cluster { t_fraction = 0.45 };
    eps;
    delta;
    beta = 0.1;
    deadline_s;
    fallback;
  }

let qt ?(eps = 0.1) id =
  {
    Engine.Job.id;
    kind = Engine.Job.Quantile { axis = 0; q = 0.5 };
    eps;
    delta = 0.;
    beta = 0.1;
    deadline_s = None;
    fallback = false;
  }

(* One traced batch on a small planted workload; returns the results, the
   attribution report and the collected spans. *)
let traced_batch ?(domains = 2) ?(retries = 0) ?(faults = Engine.Faults.none) ?mode
    ?(budget_eps = 2.0) ?(n = 400) ?(axis = 128) ?(radius = 0.06) specs =
  let service = Engine.Service.create ~domains ~seed:5 ~retries ~faults () in
  let _, grid, w = small_workload ~n ~axis ~radius () in
  let dataset =
    Engine.Service.register service ~name:"obs-test" ~grid ?mode
      ~budget:(Prim.Dp.v ~eps:budget_eps ~delta:1e-4)
      w.Workload.Synth.points
  in
  let results = Engine.Service.run_batch service ~dataset specs in
  let report = Engine.Service.attribution ~dataset () in
  (results, report, Obs.Span.spans ())

let admitted results =
  List.filter_map
    (fun (r : Engine.Job.result) ->
      match r.Engine.Job.status with
      | Engine.Job.Refused _ -> None
      | _ -> Some r.Engine.Job.spec.Engine.Job.id)
    results

(* --- span-tree well-formedness ------------------------------------------- *)

let end_ns (sp : Obs.Span.span) = Int64.add sp.Obs.Span.start_ns sp.Obs.Span.dur_ns

let check_well_formed spans =
  let ids = Hashtbl.create 64 in
  List.iter
    (fun (sp : Obs.Span.span) ->
      if Hashtbl.mem ids sp.Obs.Span.id then Alcotest.failf "duplicate span id %d" sp.Obs.Span.id;
      Hashtbl.replace ids sp.Obs.Span.id sp)
    spans;
  List.iter
    (fun (sp : Obs.Span.span) ->
      if sp.Obs.Span.dur_ns < 0L then Alcotest.failf "span %s: negative duration" sp.Obs.Span.name;
      match sp.Obs.Span.parent with
      | None -> ()
      | Some pid -> (
          match Hashtbl.find_opt ids pid with
          | None -> Alcotest.failf "span %s: dangling parent id %d" sp.Obs.Span.name pid
          | Some parent ->
              if sp.Obs.Span.start_ns < parent.Obs.Span.start_ns then
                Alcotest.failf "span %s starts before its parent %s" sp.Obs.Span.name
                  parent.Obs.Span.name;
              if end_ns sp > end_ns parent then
                Alcotest.failf "span %s ends after its parent %s" sp.Obs.Span.name
                  parent.Obs.Span.name))
    spans

let batch_root spans =
  match List.filter (fun (sp : Obs.Span.span) -> sp.Obs.Span.cat = "batch") spans with
  | [ b ] -> b
  | l -> Alcotest.failf "expected exactly one batch span, got %d" (List.length l)

let test_tree_under_fan_out () =
  let prop (n_jobs, domains) =
    with_tracing @@ fun () ->
    let specs = List.init n_jobs (fun i -> qt ~eps:0.05 (Printf.sprintf "q%d" i)) in
    let results, report, spans = traced_batch ~domains specs in
    check_well_formed spans;
    let batch = batch_root spans in
    check_true "batch span is a root" (batch.Obs.Span.parent = None);
    check_true "batch span has duration" (batch.Obs.Span.dur_ns > 0L);
    (* Every admitted job produced exactly one execution root stitched to
       the batch span, labelled with its id; refused jobs produced none. *)
    let job_spans =
      List.filter (fun (sp : Obs.Span.span) -> sp.Obs.Span.cat = "job") spans
    in
    List.iter
      (fun (sp : Obs.Span.span) ->
        check_true "job span parented to the batch span"
          (sp.Obs.Span.parent = Some batch.Obs.Span.id))
      job_spans;
    let ids = admitted results in
    check_int "one job span per admitted job" (List.length ids) (List.length job_spans);
    List.iter
      (fun id ->
        check_true ("execution span for " ^ id)
          (List.exists (fun (sp : Obs.Span.span) -> sp.Obs.Span.label = Some id) job_spans))
      ids;
    (* Coordinator phases bracket the execution. *)
    List.iter
      (fun phase ->
        check_true (phase ^ " present")
          (List.exists (fun (sp : Obs.Span.span) -> sp.Obs.Span.name = phase) spans))
      [ "service.admission"; "service.settlement" ];
    check_true "attribution reconciles" (report.Obs.Attribution.ok && report.Obs.Attribution.exact);
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:8 ~name:"span tree under pool fan-out"
       QCheck2.Gen.(pair (1 -- 5) (1 -- 4))
       prop)

(* --- budget reconciliation ----------------------------------------------- *)

let find_line (report : Obs.Attribution.report) label =
  match List.find_opt (fun (l : Obs.Attribution.line) -> l.Obs.Attribution.label = label)
          report.Obs.Attribution.lines
  with
  | Some l -> l
  | None -> Alcotest.failf "no attribution line for %S" label

(* zCDP needs headroom: converting even one (0.4, 1e-7) charge back to
   approximate DP at slack 1e-9 lands near ε = 2.7. *)
let reconciliation_for ?budget_eps mode () =
  with_tracing @@ fun () ->
  let specs = [ oc "a"; qt "b"; oc ~eps:0.5 "c"; oc ~eps:50.0 "greedy" ] in
  let _, report, _ = traced_batch ?mode ?budget_eps specs in
  check_true "report ok" report.Obs.Attribution.ok;
  check_true "report exact" report.Obs.Attribution.exact;
  List.iter
    (fun label ->
      let l = find_line report label in
      check_true (label ^ " events match ledger") l.Obs.Attribution.events_ok;
      check_true (label ^ " exact") l.Obs.Attribution.exact)
    [ "a"; "b"; "c" ];
  (* The refused job never reached the ledger or the workers. *)
  check_true "no line for the refused job"
    (not
       (List.exists
          (fun (l : Obs.Attribution.line) -> l.Obs.Attribution.label = "greedy")
          report.Obs.Attribution.lines));
  (* The pipeline's invocation arguments are what lands in the ledger. *)
  let a = find_line report "a" in
  check_float ~tol:1e-12 "ledger eps is the job price" 0.4 a.Obs.Attribution.ledger.Obs.Span.eps;
  check_float ~tol:1e-18 "ledger delta is the job price" 1e-7
    a.Obs.Attribution.ledger.Obs.Span.delta

let test_reconcile_basic = reconciliation_for None
let test_reconcile_advanced = reconciliation_for (Some (Engine.Accountant.Advanced { slack = 1e-9 }))
let test_reconcile_zcdp =
  reconciliation_for ~budget_eps:8.0 (Some (Engine.Accountant.Zcdp { slack = 1e-9 }))

let test_reconcile_fallback_commit () =
  with_tracing @@ fun () ->
  (* deadline=0 forces degradation: the reserved GoodRadius share is
     committed under the <id>:fallback label and must reconcile exactly
     against the fallback's execution span. *)
  let specs = [ oc "main"; oc ~deadline_s:0. ~fallback:true "slow" ] in
  let results, report, spans = traced_batch ~domains:2 specs in
  let degraded =
    List.exists
      (fun (r : Engine.Job.result) ->
        r.Engine.Job.spec.Engine.Job.id = "slow"
        && match r.Engine.Job.status with Engine.Job.Degraded _ -> true | _ -> false)
      results
  in
  check_true "slow degraded" degraded;
  check_true "report ok" report.Obs.Attribution.ok;
  check_true "report exact" report.Obs.Attribution.exact;
  let fb = find_line report "slow:fallback" in
  check_true "fallback committed and reconciled"
    (fb.Obs.Attribution.events_ok && fb.Obs.Attribution.exact);
  check_float ~tol:1e-12 "fallback price is the GoodRadius share" 0.2
    fb.Obs.Attribution.ledger.Obs.Span.eps;
  (* A commit budget event exists; the full job kept its admission charge
     even though it never produced a result. *)
  check_true "commit event present"
    (List.exists
       (fun (sp : Obs.Span.span) ->
         sp.Obs.Span.cat = "budget" && sp.Obs.Span.name = "commit"
         && sp.Obs.Span.label = Some "slow:fallback")
       spans);
  let slow = find_line report "slow" in
  check_float ~tol:1e-12 "blown job keeps its charge" 0.4 slow.Obs.Attribution.ledger.Obs.Span.eps

let test_reconcile_fallback_release () =
  with_tracing @@ fun () ->
  (* A fallback job that succeeds releases its reservation: a release
     event, no :fallback ledger line, and the report stays exact.  The
     solver needs the bigger planted workload to actually succeed at this
     ε (on the 400-point one it degrades and would commit instead). *)
  let specs = [ oc ~eps:1.0 ~fallback:true "fine" ] in
  let results, report, spans = traced_batch ~domains:1 ~n:1500 ~axis:256 ~radius:0.05 specs in
  check_true "fine completed"
    (List.exists
       (fun (r : Engine.Job.result) ->
         match r.Engine.Job.status with Engine.Job.Completed _ -> true | _ -> false)
       results);
  check_true "report ok and exact" (report.Obs.Attribution.ok && report.Obs.Attribution.exact);
  check_true "no fallback line"
    (not
       (List.exists
          (fun (l : Obs.Attribution.line) -> l.Obs.Attribution.label = "fine:fallback")
          report.Obs.Attribution.lines));
  check_true "release event present"
    (List.exists
       (fun (sp : Obs.Span.span) -> sp.Obs.Span.cat = "budget" && sp.Obs.Span.name = "release")
       spans)

let test_reconcile_retry_replay () =
  with_tracing @@ fun () ->
  (* A crash-before-output fault on job 0: the retry replays the same RNG
     stream, so both attempts' spans exist but only the clean one counts,
     and the replay attributes exactly the ledger charge. *)
  let faults = Engine.Faults.explicit [ (0, Engine.Faults.rule Engine.Faults.Crash) ] in
  let specs = [ qt "crashy"; qt "calm" ] in
  let results, report, spans = traced_batch ~domains:2 ~retries:2 ~faults specs in
  check_true "crashy recovered"
    (List.exists
       (fun (r : Engine.Job.result) ->
         r.Engine.Job.spec.Engine.Job.id = "crashy"
         && (match r.Engine.Job.status with Engine.Job.Completed _ -> true | _ -> false)
         && r.Engine.Job.attempts > 1)
       results);
  check_true "a retry event was recorded"
    (List.exists
       (fun (sp : Obs.Span.span) -> sp.Obs.Span.cat = "pool" && sp.Obs.Span.name = "pool.retry")
       spans);
  let attempts =
    List.filter
      (fun (sp : Obs.Span.span) ->
        sp.Obs.Span.cat = "job" && sp.Obs.Span.label = Some "crashy")
      spans
  in
  check_true "both attempts left spans" (List.length attempts >= 2);
  check_true "report ok" report.Obs.Attribution.ok;
  check_true "report exact" report.Obs.Attribution.exact;
  let l = find_line report "crashy" in
  check_true "retry attempts consistent" l.Obs.Attribution.retry_consistent

let test_reconcile_detects_mismatch () =
  (* Attribution is a checker, not a formality: feed it a cooked ledger
     and it must fail (events mismatch), and an execution charge above
     the ledger must flag overspend. *)
  with_tracing @@ fun () ->
  Obs.Span.with_span ~cat:"job" "one_cluster" (fun () ->
      Obs.Span.set_label "j1";
      Obs.Span.with_charged ~eps:0.4 ~delta:0. "laplace" (fun () -> ()));
  Obs.Span.event ~cat:"budget" ~label:"j1"
    ~charge:(Obs.Span.charge ~eps:0.4 ~delta:0. ())
    "charge";
  let spans = Obs.Span.spans () in
  let good = Obs.Attribution.reconcile ~ledger:[ ("j1", Obs.Span.charge ~eps:0.4 ~delta:0. ()) ] spans in
  check_true "consistent view passes" (good.Obs.Attribution.ok && good.Obs.Attribution.exact);
  let cooked =
    Obs.Attribution.reconcile ~ledger:[ ("j1", Obs.Span.charge ~eps:0.3 ~delta:0. ()) ] spans
  in
  check_true "cooked ledger fails" (not cooked.Obs.Attribution.ok);
  let l = find_line cooked "j1" in
  check_true "events mismatch flagged" (not l.Obs.Attribution.events_ok);
  check_true "overspend flagged" l.Obs.Attribution.overspend

(* --- tracing is inert ----------------------------------------------------- *)

let details results = List.map Engine.Job.detail results

let test_tracing_draws_no_randomness () =
  let specs = [ oc "a"; qt "b"; oc ~eps:0.5 ~fallback:true "c" ] in
  Obs.Span.reset ();
  Obs.Span.set_enabled false;
  let plain, _, _ = traced_batch ~domains:2 specs in
  let traced, _, spans = with_tracing (fun () -> traced_batch ~domains:2 specs) in
  check_true "tracing collected spans" (List.length spans > 0);
  List.iter2 (fun a b -> Alcotest.(check string) "output bit-identical under tracing" a b)
    (details plain) (details traced)

let test_disabled_collector_records_nothing () =
  Obs.Span.reset ();
  check_true "disabled" (not (Obs.Span.enabled ()));
  let v =
    Obs.Span.with_span "outer" (fun () ->
        Obs.Span.event "instant";
        Obs.Span.For_testing.set_attr "k" (Obs.Span.I 1);
        Obs.Span.with_charged ~eps:1.0 ~delta:0. "inner" (fun () -> 17))
  in
  check_int "value passes through" 17 v;
  check_int "nothing collected" 0 (Obs.Span.count ());
  check_true "no current span" (Obs.Span.For_testing.current () = None)

let test_attributed_convention () =
  with_tracing @@ fun () ->
  (* A stage's own charge wins over its children's sum (the budgeted-share
     convention); an uncharged stage sums its children. *)
  Obs.Span.with_charged ~cat:"stage" ~eps:1.0 ~delta:0. "stage" (fun () ->
      Obs.Span.with_charged ~eps:0.3 ~delta:0. "m1" (fun () -> ());
      Obs.Span.with_charged ~eps:0.3 ~delta:0. "m2" (fun () -> ()));
  Obs.Span.with_span ~cat:"stage" "uncharged" (fun () ->
      Obs.Span.with_charged ~eps:0.25 ~delta:1e-8 "m3" (fun () -> ()));
  let spans = Obs.Span.spans () in
  let find name =
    List.find (fun (sp : Obs.Span.span) -> sp.Obs.Span.name = name) spans
  in
  let c1 = Obs.Span.attributed spans (find "stage") in
  check_float ~tol:1e-12 "own charge wins" 1.0 c1.Obs.Span.eps;
  let c2 = Obs.Span.attributed spans (find "uncharged") in
  check_float ~tol:1e-12 "children sum" 0.25 c2.Obs.Span.eps;
  check_float ~tol:1e-18 "children delta sums" 1e-8 c2.Obs.Span.delta

(* --- Chrome trace export -------------------------------------------------- *)

let test_trace_schema () =
  let _, _, spans =
    with_tracing (fun () -> traced_batch ~domains:2 [ oc "a"; qt "b" ])
  in
  let doc = Obs.Trace.For_testing.to_json spans in
  (* The serialized document parses back and validates. *)
  (match Obs.Json.parse (Obs.Trace.to_string spans) with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok parsed -> (
      match Obs.Trace.validate parsed with
      | Error e -> Alcotest.failf "trace does not validate: %s" e
      | Ok () -> ()));
  (* Golden shape: every complete event carries the Chrome-required keys
     and our args payload. *)
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  check_true "one event per span plus thread metadata"
    (List.length events >= List.length spans);
  let an_x =
    List.find_opt
      (fun e ->
        match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str with
        | Some "X" -> true
        | _ -> false)
      events
  in
  (match an_x with
  | None -> Alcotest.fail "no complete (ph=X) event in the trace"
  | Some e ->
      List.iter
        (fun key ->
          check_true ("complete event has " ^ key) (Obs.Json.member key e <> None))
        [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid"; "args" ];
      check_true "args carry the span id"
        (Option.bind (Obs.Json.member "args" e) (Obs.Json.member "span_id") <> None));
  (* Thread-name metadata is present so Perfetto labels the lanes. *)
  check_true "thread_name metadata emitted"
    (List.exists
       (fun e ->
         match Option.bind (Obs.Json.member "name" e) Obs.Json.to_str with
         | Some "thread_name" -> true
         | _ -> false)
       events)

let test_trace_validate_rejects_malformed () =
  let reject doc what =
    match Obs.Trace.validate doc with
    | Ok () -> Alcotest.failf "validate accepted %s" what
    | Error _ -> ()
  in
  reject (Obs.Json.Obj []) "a document without traceEvents";
  reject
    (Obs.Json.Obj [ ("traceEvents", Obs.Json.List [ Obs.Json.Obj [ ("cat", Obs.Json.String "x") ] ]) ])
    "an event without a name";
  reject
    (Obs.Json.Obj
       [
         ( "traceEvents",
           Obs.Json.List
             [
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String "e");
                   ("cat", Obs.Json.String "c");
                   ("ph", Obs.Json.String "Q");
                   ("ts", Obs.Json.Float 0.);
                   ("pid", Obs.Json.Int 1);
                   ("tid", Obs.Json.Int 0);
                 ];
             ] );
       ])
    "an unknown phase"

(* --- JSON parser ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a \"quoted\" line\nwith\ttabs and \\ slashes");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5);
        ("b", Obs.Json.Bool true);
        ("nothing", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.25; Obs.Json.String "x" ]);
        ("nested", Obs.Json.Obj [ ("empty_l", Obs.Json.List []); ("empty_o", Obs.Json.Obj []) ]);
      ]
  in
  (match Obs.Json.parse (Obs.Json.to_string doc) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok parsed -> check_true "roundtrip preserves the document" (parsed = doc));
  (* Escapes decode, including a surrogate pair. *)
  (match Obs.Json.parse {|"café 😀"|} with
  | Ok (Obs.Json.String s) ->
      check_true "unicode escapes decode to UTF-8" (s = "caf\xc3\xa9 \xf0\x9f\x98\x80")
  | _ -> Alcotest.fail "unicode string did not parse");
  (* Malformed inputs are rejected, not mangled. *)
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.failf "parse accepted %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "01"; "1 trailing"; "\"unterminated"; "nul"; "{\"a\" 1}"; "" ]

(* --- Prometheus exposition ------------------------------------------------ *)

let test_prom_render () =
  let open Obs.Prom in
  let text =
    render
      [
        Counter
          {
            name = "jobs_total";
            help = "Finished \"jobs\".";
            samples = [ ([ ("kind", "one_cluster") ], 3.) ];
          };
        Histogram
          {
            name = "lat_ms";
            help = "Latency.";
            samples =
              [
                ( [],
                  { bounds = [| 1.; 5. |]; counts = [| 2; 1 |]; sum = 9.5; count = 4 } );
              ];
          };
      ]
  in
  List.iter
    (fun needle -> check_true ("render contains " ^ needle) (contains_sub text needle))
    [
      "# HELP jobs_total";
      "# TYPE jobs_total counter";
      "jobs_total{kind=\"one_cluster\"} 3";
      "# TYPE lat_ms histogram";
      "lat_ms_bucket{le=\"1\"} 2";
      (* Cumulative: 2 under 1ms + 1 more under 5ms. *)
      "lat_ms_bucket{le=\"5\"} 3";
      (* +Inf equals the total observation count (one overflow sample). *)
      "lat_ms_bucket{le=\"+Inf\"} 4";
      "lat_ms_sum 9.5";
      "lat_ms_count 4";
    ]

let test_prom_of_spans_and_exposition () =
  let _, _, spans =
    with_tracing (fun () -> traced_batch ~domains:1 [ oc "a"; qt "b" ])
  in
  let text = Obs.Prom.render (Obs.Prom.of_spans spans) in
  List.iter
    (fun needle -> check_true ("of_spans contains " ^ needle) (contains_sub text needle))
    [
      "privcluster_spans_total{name=\"laplace\",cat=\"mech\"}";
      "privcluster_span_epsilon_total";
    ];
  (* A saved report round-trips through the post-hoc exposition path.
     The bigger workload makes the one_cluster job genuinely succeed so
     the status="ok" sample is meaningful. *)
  let service = Engine.Service.create ~domains:1 ~seed:6 ~faults:Engine.Faults.none () in
  let _, grid, w = small_workload ~n:1500 ~axis:256 ~radius:0.05 () in
  let dataset =
    Engine.Service.register service ~name:"expo" ~grid
      ~budget:(Prim.Dp.v ~eps:2.0 ~delta:1e-4)
      w.Workload.Synth.points
  in
  let results = Engine.Service.run_batch service ~dataset [ oc ~eps:1.0 "a"; qt "b" ] in
  let report = Engine.Service.report_json service ~dataset results in
  match Obs.Json.parse (Obs.Json.to_string report) with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok doc -> (
      (match Engine.Exposition.of_report_json doc with
      | Error e -> Alcotest.failf "of_report_json: %s" e
      | Ok families ->
          let text = Obs.Prom.render families in
          List.iter
            (fun needle ->
              check_true ("post-hoc exposition contains " ^ needle) (contains_sub text needle))
            [
              "privcluster_jobs_total{kind=\"one_cluster\",status=\"ok\"} 1";
              "privcluster_jobs_total{kind=\"quantile\",status=\"ok\"} 1";
              "privcluster_job_latency_seconds_bucket";
              "privcluster_budget_epsilon{dataset=\"expo\",quantity=\"budget\"} 2";
              "privcluster_budget_refusals_total{dataset=\"expo\"} 0";
            ];
          (* The report stores each kind's latency histogram exactly, so
             the job families rendered from it equal the live ones byte
             for byte. *)
          let job_lines text =
            List.filter
              (fun l -> contains_sub l "privcluster_job")
              (String.split_on_char '\n' text)
          in
          let live =
            Engine.Exposition.render ~dataset ~telemetry:(Engine.Service.telemetry service) ()
          in
          check_true "live output has job lines" (job_lines live <> []);
          Alcotest.(check (list string))
            "post-hoc job lines == live job lines" (job_lines live) (job_lines text));
      (* A report whose kinds lack the [latency] object (the format before
         it moved onto Obs.Hist) is refused with the field named. *)
      let rec drop_latency = function
        | Obs.Json.Obj fields ->
            Obs.Json.Obj
              (List.filter_map
                 (fun (k, v) -> if k = "latency" then None else Some (k, drop_latency v))
                 fields)
        | v -> v
      in
      match Engine.Exposition.of_report_json (drop_latency doc) with
      | Ok _ -> Alcotest.fail "of_report_json accepted a report without latency"
      | Error e ->
          check_true ("old report error names the field: " ^ e)
            (contains_sub e "missing field \"one_cluster.latency\""))

(* --- latency histograms --------------------------------------------------- *)

(* Nanosecond observations spanning the bucket range, including exact
   bucket bounds and the overflow region past the last bound. *)
let ns_gen =
  QCheck2.Gen.(
    oneof
      [
        0 -- 2000;
        map (fun i -> Obs.Hist.For_testing.bucket_bounds_ns.(i)) (0 -- (Array.length Obs.Hist.For_testing.bucket_bounds_ns - 1));
        map (fun i -> Obs.Hist.For_testing.bucket_bounds_ns.(i) + 1) (0 -- (Array.length Obs.Hist.For_testing.bucket_bounds_ns - 1));
        50_000_000_000 -- 60_000_000_000;
        0 -- 100_000_000;
      ])

let snap_of ?(shards = 1) values =
  let h = Obs.Hist.create ~shards () in
  List.iter (fun v -> Obs.Hist.observe_ns ~shard:0 h v) values;
  Obs.Hist.snapshot h

let test_hist_empty_and_singleton () =
  let e = Obs.Hist.empty in
  check_int "empty count" 0 e.Obs.Hist.count;
  check_true "empty quantile is nan" (Float.is_nan (Obs.Hist.quantile_ns e ~q:0.5));
  check_true "empty mean is nan" (Float.is_nan (Obs.Hist.For_testing.mean_ns e));
  check_true "empty snapshot of a fresh histogram"
    (Obs.Hist.snapshot (Obs.Hist.create ()) = e);
  (* Clamped to observed min..max, a singleton reports every quantile as
     exactly the observed value — even though the bucket is ~41% wide. *)
  let s = snap_of [ 123_456 ] in
  List.iter
    (fun q ->
      check_float ~tol:1e-9 (Printf.sprintf "singleton q=%g exact" q) 123_456.
        (Obs.Hist.quantile_ns s ~q))
    [ 0.; 0.25; 0.5; 0.9; 0.99; 1. ];
  check_int "singleton min" 123_456 s.Obs.Hist.min_ns;
  check_int "singleton max" 123_456 s.Obs.Hist.max_ns;
  (* Negative observations clamp to zero rather than corrupting the sum. *)
  let neg = snap_of [ -5 ] in
  check_int "negative clamps to 0" 0 neg.Obs.Hist.sum_ns;
  check_int "negative still counted" 1 neg.Obs.Hist.count

let test_hist_count_sum_exact () =
  let prop values =
    let s = snap_of values in
    check_int "count exact" (List.length values) s.Obs.Hist.count;
    check_int "sum exact" (List.fold_left ( + ) 0 values) s.Obs.Hist.sum_ns;
    check_int "bucket counts cover every observation"
      (List.length values)
      (Array.fold_left ( + ) 0 s.Obs.Hist.counts);
    if values <> [] then begin
      check_int "min exact" (List.fold_left min max_int values) s.Obs.Hist.min_ns;
      check_int "max exact" (List.fold_left max 0 values) s.Obs.Hist.max_ns
    end;
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"hist count/sum exact"
       QCheck2.Gen.(list_size (0 -- 200) ns_gen)
       prop)

let test_hist_quantile_monotone () =
  let prop (values, qs) =
    let s = snap_of values in
    let qs = List.sort compare qs in
    let estimates = List.map (fun q -> Obs.Hist.quantile_ns s ~q) qs in
    List.iter
      (fun est ->
        check_true "quantile within observed min..max"
          (est >= float_of_int s.Obs.Hist.min_ns && est <= float_of_int s.Obs.Hist.max_ns))
      estimates;
    let rec ascending = function
      | a :: (b :: _ as rest) ->
          check_true "quantile monotone in q" (a <= b);
          ascending rest
      | _ -> ()
    in
    ascending estimates;
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"hist quantiles monotone"
       QCheck2.Gen.(
         pair (list_size (1 -- 100) ns_gen) (list_size (2 -- 8) (float_bound_inclusive 1.)))
       prop)

let test_hist_merge_of_shards () =
  (* The tentpole property: a sharded histogram fed a stream scattered
     across shards snapshots identically to a single-shard histogram fed
     the same stream — merging is associative and loss-free. *)
  let prop assignments =
    let sharded = Obs.Hist.create ~shards:8 () in
    let single = Obs.Hist.create ~shards:1 () in
    List.iter
      (fun (v, shard) ->
        Obs.Hist.observe_ns ~shard sharded v;
        Obs.Hist.observe_ns ~shard:0 single v)
      assignments;
    check_true "merged shards == single shard"
      (Obs.Hist.snapshot sharded = Obs.Hist.snapshot single);
    (* Folding [merge] over per-chunk snapshots is the same as one big
       snapshot, in any association order. *)
    let chunks =
      List.mapi (fun i (v, _) -> (i mod 3, v)) assignments
      |> List.fold_left
           (fun acc (c, v) ->
             List.map (fun (c', vs) -> if c = c' then (c', v :: vs) else (c', vs)) acc)
           [ (0, []); (1, []); (2, []) ]
    in
    let merged =
      List.fold_left
        (fun acc (_, vs) -> Obs.Hist.merge acc (snap_of vs))
        Obs.Hist.empty chunks
    in
    check_true "merge of chunk snapshots == whole snapshot"
      (merged = Obs.Hist.snapshot single);
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:100 ~name:"hist merge of shards"
       QCheck2.Gen.(list_size (0 -- 150) (pair ns_gen (0 -- 20)))
       prop)

let test_hist_prom_and_json () =
  let s = snap_of [ 1_000; 2_000_000; 3_000_000_000 ] in
  let h = Obs.Hist.to_prom s in
  check_int "prom buckets drop only the overflow"
    (Array.length Obs.Hist.For_testing.bucket_bounds_ns)
    (Array.length h.Obs.Prom.bounds);
  check_float ~tol:1e-12 "prom sum in seconds" 3.002001 h.Obs.Prom.sum;
  check_int "prom count" 3 h.Obs.Prom.count;
  check_float ~tol:1e-12 "first bound is 1 µs in seconds" 1e-6 h.Obs.Prom.bounds.(0);
  match Obs.Hist.to_json s with
  | Obs.Json.Obj fields ->
      check_true "json carries count" (List.assoc_opt "count" fields = Some (Obs.Json.Int 3));
      check_true "json carries exact sum"
        (List.assoc_opt "sum_ns" fields = Some (Obs.Json.Int 3_002_001_000));
      check_true "json carries quantiles" (List.mem_assoc "p99" fields)
  | _ -> Alcotest.fail "hist json is not an object"

let test_hist_json_roundtrip () =
  (* Every snapshot, empty, singleton or reaching the overflow bucket,
     survives its JSON dump; the post-hoc exposition depends on it. *)
  let prop values =
    let s = snap_of values in
    let back = Obs.Json.parse (Obs.Json.to_string (Obs.Hist.to_json s)) in
    check_true "snapshot_of_json (to_json s) = s"
      (Result.bind back Obs.Hist.snapshot_of_json = Ok s);
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"hist json roundtrip"
       QCheck2.Gen.(
         oneof
           [
             return [];
             map (fun v -> [ v ]) ns_gen;
             map (fun (v, vs) -> 60_000_000_000 :: v :: vs) (pair ns_gen (list_size (0 -- 100) ns_gen));
             list_size (0 -- 200) ns_gen;
           ])
       prop);
  let with_buckets b =
    match Obs.Hist.to_json (snap_of [ 1_000 ]) with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj (List.map (fun (k, v) -> if k = "buckets_ns" then (k, b) else (k, v)) fields)
    | _ -> Alcotest.fail "hist json is not an object"
  in
  let open Obs.Json in
  List.iter
    (fun (b, needle) ->
      match Obs.Hist.snapshot_of_json (with_buckets b) with
      | Ok _ -> Alcotest.failf "accepted buckets_ns %s" (to_string ~indent:false b)
      | Error e -> check_true (Printf.sprintf "error %S names %S" e needle) (contains_sub e needle))
    [
      (String "1000", "buckets_ns is not a list");
      (List [ Int 1000 ], "not an [le_ns, count] pair");
      (List [ List [ Int 1000; Int (-1) ] ], "not an [le_ns, count] pair");
      (List [ List [ Int 1001; Int 1 ] ], "1001 is not a bucket bound");
      (List [ List [ Int 1000; Int 2 ] ], "sum to 2 but count is 1");
    ]

(* [spans_since] returns exactly the spans pushed after the mark, in
   [spans] order, and nothing a reset dropped. *)
let test_spans_since_mark () =
  with_tracing @@ fun () ->
  let push prefix =
    Obs.Span.with_span (prefix ^ "1") (fun () ->
        Obs.Span.with_span (prefix ^ "2") (fun () -> ());
        Obs.Span.event (prefix ^ "3"))
  in
  push "a";
  let m = Obs.Span.mark () in
  push "b";
  let ids = List.map (fun (sp : Obs.Span.span) -> sp.Obs.Span.id) in
  let since = Obs.Span.spans_since m in
  Alcotest.(check (list string)) "only the B spans, in start order" [ "b1"; "b2"; "b3" ]
    (List.map (fun (sp : Obs.Span.span) -> sp.Obs.Span.name) since);
  Alcotest.(check (list int)) "the same spans and order as the full list"
    (ids
       (List.filter
          (fun (sp : Obs.Span.span) -> String.starts_with ~prefix:"b" sp.Obs.Span.name)
          (Obs.Span.spans ())))
    (ids since);
  check_true "nothing since a fresh mark" (Obs.Span.spans_since (Obs.Span.mark ()) = []);
  Obs.Span.reset ();
  check_true "a reset drops them" (Obs.Span.spans_since m = [])

let test_json_depth_limit () =
  let deep = String.make 1_000_000 '[' in
  let t0 = Unix.gettimeofday () in
  let r = Obs.Json.parse deep in
  let dt = Unix.gettimeofday () -. t0 in
  (match r with
  | Ok _ -> Alcotest.fail "parsed 10^6 unclosed ["
  | Error e -> check_true ("depth error: " ^ e) (contains_sub e "nesting deeper than 512"));
  check_true (Printf.sprintf "rejected in %.4f s" dt) (dt < 0.1);
  let nest k = String.make k '[' ^ String.make k ']' in
  check_true "512 levels parse" (Result.is_ok (Obs.Json.parse (nest 512)));
  check_true "513 levels rejected" (Result.is_error (Obs.Json.parse (nest 513)));
  (* The deepest document the program writes is a batch report: report,
     telemetry, kinds, kind, latency, buckets_ns, one [le_ns, count]. *)
  let service = Engine.Service.create ~domains:1 ~seed:5 ~faults:Engine.Faults.none () in
  let _, grid, w = small_workload ~n:400 ~axis:128 ~radius:0.06 () in
  let dataset =
    Engine.Service.register service ~name:"deep" ~grid
      ~budget:(Prim.Dp.v ~eps:2.0 ~delta:1e-4)
      w.Workload.Synth.points
  in
  let results = Engine.Service.run_batch service ~dataset [ oc "a"; qt "b" ] in
  let report = Engine.Service.report_json service ~dataset results in
  let rec depth = function
    | Obs.Json.List l -> 1 + List.fold_left (fun acc v -> max acc (depth v)) 0 l
    | Obs.Json.Obj f -> 1 + List.fold_left (fun acc (_, v) -> max acc (depth v)) 0 f
    | _ -> 0
  in
  match Obs.Json.parse (Obs.Json.to_string report) with
  | Error e -> Alcotest.failf "batch report does not parse: %s" e
  | Ok doc -> check_int "batch report nests 7 deep" 7 (depth doc)

(* --- SLO rules ------------------------------------------------------------ *)

let test_slo_line_roundtrip () =
  let customs =
    [
      Obs.Slo.Latency { verb = Some "run"; q = 0.9; warn_s = 0.123; fire_s = 4.5 };
      Obs.Slo.Burn_rate
        { tenant = Some "acme"; dataset = None; warn_per_hour = 0.25; fire_per_hour = 2. };
      Obs.Slo.Shed_rate { warn = 0.02; fire = 0.2 };
    ]
  in
  List.iter
    (fun r ->
      let line = Obs.Slo.For_testing.rule_to_line r in
      match Obs.Slo.rule_of_line line with
      | Ok r' -> check_true ("roundtrip: " ^ line) (r = r')
      | Error e -> Alcotest.failf "roundtrip %s: %s" line e)
    (Obs.Slo.default_rules @ customs);
  List.iter
    (fun (line, needle) ->
      match Obs.Slo.rule_of_line line with
      | Ok _ -> Alcotest.failf "accepted malformed rule %S" line
      | Error e ->
          check_true
            (Printf.sprintf "error for %S names the problem (%s)" line e)
            (contains_sub e needle))
    [
      ("", "empty");
      ("latency q warn_ms=1 fire_ms=2", "malformed token");
      ("latency q=2 warn_ms=1 fire_ms=2", "q must be in [0,1]");
      ("latency q=0.5 fire_ms=2", "missing warn_ms=");
      ("burn warn=x fire=1", "bad number for warn");
      ("pager duty=now", "unknown rule kind");
    ]

let test_slo_eval () =
  let latencies = ref [] and burns = ref [] and shed = ref (0., 0) in
  let obs =
    {
      Obs.Slo.latencies = (fun () -> !latencies);
      burn_rates = (fun () -> !burns);
      shed_rate = (fun () -> !shed);
    }
  in
  let one_verdict rule =
    match Obs.Slo.For_testing.eval obs rule with
    | [ v ] -> v
    | l -> Alcotest.failf "expected one verdict, got %d" (List.length l)
  in
  (* Idle: every default rule is Ok with an explanatory reason. *)
  List.iter
    (fun r ->
      let v = one_verdict r in
      check_true "idle is ok" (v.Obs.Slo.status = Obs.Slo.Ok))
    Obs.Slo.default_rules;
  (* A 1 s p99 warns at warn=0.5s/fire=2s; 3 s fires; wildcard expands
     to one verdict per observed verb. *)
  let lat = Obs.Slo.Latency { verb = None; q = 0.99; warn_s = 0.5; fire_s = 2.0 } in
  latencies := [ ("run", snap_of [ 1_000_000_000 ]); ("epoch", snap_of [ 1_000_000 ]) ];
  let vs = Obs.Slo.For_testing.eval obs lat in
  check_int "one verdict per observed verb" 2 (List.length vs);
  let by_subject s =
    List.find (fun (v : Obs.Slo.verdict) -> v.Obs.Slo.subject = s) vs
  in
  check_true "slow verb warns" ((by_subject "verb=run").Obs.Slo.status = Obs.Slo.Warn);
  check_true "fast verb ok" ((by_subject "verb=epoch").Obs.Slo.status = Obs.Slo.Ok);
  latencies := [ ("run", snap_of [ 3_000_000_000 ]) ];
  let v = List.hd (Obs.Slo.For_testing.eval obs lat) in
  check_true "3s p99 fires" (v.Obs.Slo.status = Obs.Slo.Firing);
  check_true "reason carries the measurement" (contains_sub v.Obs.Slo.reason "p99=3000.0ms");
  (* A rule pinned to an unobserved subject reports Ok, not silence. *)
  let pinned = Obs.Slo.Latency { verb = Some "nope"; q = 0.5; warn_s = 0.1; fire_s = 1. } in
  let v = one_verdict pinned in
  check_true "pinned unobserved is ok" (v.Obs.Slo.status = Obs.Slo.Ok);
  check_true "pinned unobserved says why" (contains_sub v.Obs.Slo.reason "no observations");
  (* Burn rate grades against budget-fractions per hour. *)
  let burn =
    Obs.Slo.Burn_rate { tenant = None; dataset = None; warn_per_hour = 0.5; fire_per_hour = 1.0 }
  in
  burns := [ ("acme", "d1", 1.5); ("acme", "d2", 0.1) ];
  let vs = Obs.Slo.For_testing.eval obs burn in
  check_int "one verdict per tenant x dataset" 2 (List.length vs);
  check_true "hot dataset fires"
    (List.exists
       (fun (v : Obs.Slo.verdict) ->
         v.Obs.Slo.subject = "tenant=acme dataset=d1" && v.Obs.Slo.status = Obs.Slo.Firing)
       vs);
  (* Shed rate: fraction of submissions; thresholds inclusive. *)
  let shed_rule = Obs.Slo.Shed_rate { warn = 0.01; fire = 0.10 } in
  shed := (0.05, 100);
  check_true "5% shed warns" ((one_verdict shed_rule).Obs.Slo.status = Obs.Slo.Warn);
  shed := (0.10, 100);
  check_true "10% shed fires" ((one_verdict shed_rule).Obs.Slo.status = Obs.Slo.Firing);
  (* worst_of and the JSON roundtrip the daemon's health verb relies on. *)
  let all = Obs.Slo.eval_all obs [ lat; burn; shed_rule ] in
  check_true "worst across rules is firing" (Obs.Slo.worst_of all = Obs.Slo.Firing);
  List.iter
    (fun v ->
      match Obs.Slo.verdict_of_json (Obs.Slo.verdict_to_json v) with
      | Some v' -> check_true "verdict json roundtrip" (v = v')
      | None -> Alcotest.fail "verdict json did not parse back")
    all

(* --- Prometheus determinism ----------------------------------------------- *)

let test_prom_deterministic_golden () =
  let open Obs.Prom in
  (* Same families, scrambled construction order and label-set order:
     byte-identical output, pinned in full so any format drift is loud.
     The gauge's label value exercises every escape the spec defines. *)
  let nasty = "a\"x\\y\nz" in
  let counter order =
    Counter { name = "aa_total"; help = "A."; samples = order }
  and gauge order = Gauge { name = "zz_gauge"; help = "Z."; samples = order }
  and summary =
    Summary
      {
        name = "mm_seconds";
        help = "M.";
        samples = [ ([], { quantiles = [ (0.5, 0.25); (0.99, 1.5) ]; sum = 2.; count = 3 }) ];
      }
  in
  let a =
    render
      [
        counter [ ([ ("k", "1") ], 1.); ([ ("k", "2") ], 2.) ];
        summary;
        gauge [ ([ ("t", nasty) ], 1.); ([ ("t", "b") ], 2.) ];
      ]
  and b =
    render
      [
        gauge [ ([ ("t", "b") ], 2.); ([ ("t", nasty) ], 1.) ];
        counter [ ([ ("k", "2") ], 2.); ([ ("k", "1") ], 1.) ];
        summary;
      ]
  in
  Alcotest.(check string) "render independent of construction order" a b;
  let golden =
    "# HELP aa_total A.\n\
     # TYPE aa_total counter\n\
     aa_total{k=\"1\"} 1\n\
     aa_total{k=\"2\"} 2\n\
     # HELP mm_seconds M.\n\
     # TYPE mm_seconds summary\n\
     mm_seconds{quantile=\"0.5\"} 0.25\n\
     mm_seconds{quantile=\"0.99\"} 1.5\n\
     mm_seconds_sum 2\n\
     mm_seconds_count 3\n\
     # HELP zz_gauge Z.\n\
     # TYPE zz_gauge gauge\n\
     zz_gauge{t=\"a\\\"x\\\\y\\nz\"} 1\n\
     zz_gauge{t=\"b\"} 2\n"
  in
  Alcotest.(check string) "exposition text pinned" golden a;
  check_true "escape_label_value escapes quote, backslash, newline"
    (For_testing.escape_label_value nasty = "a\\\"x\\\\y\\nz")

let suite =
  [
    case "span tree well-formed under pool fan-out (qcheck)" test_tree_under_fan_out;
    case "reconciliation: basic ledger exact" test_reconcile_basic;
    case "reconciliation: advanced ledger exact" test_reconcile_advanced;
    case "reconciliation: zcdp ledger exact" test_reconcile_zcdp;
    case "reconciliation: fallback commit" test_reconcile_fallback_commit;
    case "reconciliation: fallback release" test_reconcile_fallback_release;
    case "reconciliation: retry replays reconcile" test_reconcile_retry_replay;
    case "reconciliation: cooked ledger fails loudly" test_reconcile_detects_mismatch;
    case "tracing draws no randomness" test_tracing_draws_no_randomness;
    case "disabled collector records nothing" test_disabled_collector_records_nothing;
    case "attributed: own charge wins, else children sum" test_attributed_convention;
    case "chrome trace schema" test_trace_schema;
    case "trace validation rejects malformed docs" test_trace_validate_rejects_malformed;
    case "json parser roundtrip and rejection" test_json_roundtrip;
    case "prometheus text format" test_prom_render;
    case "prometheus span families and post-hoc exposition" test_prom_of_spans_and_exposition;
    case "hist: empty and singleton" test_hist_empty_and_singleton;
    case "hist: count/sum exact (qcheck)" test_hist_count_sum_exact;
    case "hist: quantiles monotone and clamped (qcheck)" test_hist_quantile_monotone;
    case "hist: merge of shards == single shard (qcheck)" test_hist_merge_of_shards;
    case "hist: prometheus and json dumps" test_hist_prom_and_json;
    case "slo: rule line roundtrip and rejection" test_slo_line_roundtrip;
    case "slo: evaluation grades and expands subjects" test_slo_eval;
    case "prometheus exposition is deterministic (golden)" test_prom_deterministic_golden;
    case "hist: json roundtrip and malformed buckets (qcheck)" test_hist_json_roundtrip;
    case "json parser nesting depth limit" test_json_depth_limit;
    case "span: spans_since a mark returns only later spans" test_spans_since_mark;
  ]
