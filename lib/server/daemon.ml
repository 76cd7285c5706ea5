module Json = Obs.Json
module Accountant = Engine.Accountant
module Registry = Engine.Registry
module Service = Engine.Service
module Job = Engine.Job
module Result_cache = Engine.Result_cache

let src = Logs.Src.create "privcluster.server" ~doc:"privclusterd daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  wal_path : string;
  tenants : Tenants.spec list;
  capacity : int;
  domains : int;
  retries : int;
  seed : int;
  sync : bool;
  trace_sample : int;
  slow_threshold_ms : float;
  slow_log : string option;
  slow_keep : int;
  slo_rules : Obs.Slo.rule list;
}

let default_config =
  {
    listen = `Unix "privclusterd.sock";
    wal_path = "privclusterd.wal";
    tenants = [];
    capacity = 64;
    domains = 2;
    retries = 2;
    seed = 1;
    sync = true;
    trace_sample = 0;
    slow_threshold_ms = 250.;
    slow_log = None;
    slow_keep = 64;
    slo_rules = Obs.Slo.default_rules;
  }

(* --- reply mailboxes ----------------------------------------------------- *)

module Mailbox = struct
  type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  let put mb v =
    Mutex.lock mb.m;
    mb.v <- Some v;
    Condition.signal mb.c;
    Mutex.unlock mb.m

  let take mb =
    Mutex.lock mb.m;
    let rec wait () =
      match mb.v with
      | Some v -> v
      | None ->
          Condition.wait mb.c mb.m;
          wait ()
    in
    let v = wait () in
    Mutex.unlock mb.m;
    v
end

(* --- daemon state -------------------------------------------------------- *)

type t = {
  cfg : config;
  wal : Wal.t;
  mutable histories : ((string * string) * Wal.op list) list;
      (* journal streams awaiting re-registration; executor thread only *)
  tenants : Tenants.t;
  admission : Admission.t;
  serving : Serving.t;
  mutable exemplar_seq : int;  (* executor thread only *)
  spans_preowned : bool;
      (* span collection was already on when the daemon started (an outer
         [--trace] owns the collector), so request capture must not reset it *)
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  stopping : bool Atomic.t;
  mutable stopped : bool;  (* guarded by stop_mutex *)
  stop_mutex : Mutex.t;
  conn_mutex : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable executor_thread : Thread.t option;
}

let sockaddr t = t.bound

let err code fmt =
  Printf.ksprintf (fun message -> Error { Wire.code; message }) fmt

(* --- executor-side handlers ---------------------------------------------- *)

let tenant_datasets tenant =
  let reg = Service.registry (Tenants.service tenant) in
  List.filter_map (Registry.find reg) (Registry.names reg)

(* One ε-spend sample per executed data-path request (plus one at
   registration as the window's baseline, and one per scrape so idle
   windows decay); runs on the executor thread, where touching the
   tenant's ledger is safe. *)
let sample_burn_ds t tenant ds =
  let acct = Registry.accountant ds in
  Serving.record_burn t.serving ~tenant:(Tenants.name tenant)
    ~dataset:(Registry.name ds)
    ~budget_eps:(Accountant.budget acct).Prim.Dp.eps
    ~spent_eps:(Accountant.spent acct).Prim.Dp.eps
    ~now_ns:(Obs.Clock.now_ns ())

let sample_burn t tenant ~dataset =
  match Service.find_dataset (Tenants.service tenant) dataset with
  | Error _ -> ()
  | Ok ds -> sample_burn_ds t tenant ds

let exec_register t tenant ~dataset ~n ~dim ~axis ~frac ~radius ~seed ~budget ~mode =
  let svc = Tenants.service tenant in
  let tname = Tenants.name tenant in
  if Result.is_ok (Service.find_dataset svc dataset) then
    err Wire.Conflict "dataset %S is already registered" dataset
  else
    let key = (tname, dataset) in
    let ops = Option.value ~default:[] (List.assoc_opt key t.histories) in
    let synth = { Wal.n; dim; axis; frac; radius; seed } in
    let check =
      match Wal.opening ops with
      | Some (jmode, jbudget, _) when not (jmode = mode && jbudget = budget) ->
          err Wire.Conflict
            "journal for %S was opened with budget (%g, %g) under %s composition — \
             re-register with the same budget and mode to recover its ledger"
            dataset jbudget.Prim.Dp.eps jbudget.Prim.Dp.delta (Accountant.mode_name jmode)
      | Some (_, _, Some js) when js <> synth ->
          (* The journaled mutations and cached results only make sense
             against the pointset these parameters generate; replaying
             them onto a different base dataset would diverge silently. *)
          err Wire.Conflict
            "journal for %S describes a dataset synthesized with n=%d dim=%d axis=%d \
             frac=%g radius=%g seed=%d — re-register with the same parameters to \
             recover its ledger"
            dataset js.Wal.n js.Wal.dim js.Wal.axis js.Wal.frac js.Wal.radius js.Wal.seed
      | Some _ | None -> Ok ()
    in
    match check with
    | Error _ as e -> e
    | Ok () -> (
        (* Dry-run the journal against a scratch ledger first: a diverging
           journal must fail the request without leaving a half-registered
           dataset behind (the registry has no unregister).  The scratch
           ledger is not a registered dataset's, so its replay is not
           traced. *)
        let dry =
          if ops = [] then Ok 0
          else Wal.replay ops (Accountant.create ~mode ~budget ())
        in
        match dry with
        | Error e -> err Wire.Conflict "%s" e
        | Ok _ -> (
            let rng = Prim.Rng.create ~seed:(seed + 7919) () in
            let grid = Geometry.Grid.create ~axis_size:axis ~dim in
            let w =
              Workload.Synth.planted_ball rng ~grid ~n ~cluster_fraction:frac
                ~cluster_radius:radius
            in
            match
              Service.register svc ~name:dataset ~grid ~mode ~budget
                w.Workload.Synth.points
            with
            | exception Invalid_argument m -> err Wire.Bad_request "register: %s" m
            | ds ->
                let acct = Registry.accountant ds in
                (* Engine-state ops replay in journal order: mutations
                   re-advance the registry to the pre-crash epoch (the
                   journaled coordinates are hex floats, so the replayed
                   pointset is bit-identical) and cache records restore
                   the recorded answers.  Standing registrations are
                   collected and re-armed only after the full budget
                   replay — their tick count and pending slices come from
                   the replayed ledger, which must be complete first. *)
                let standing_ops = ref [] in
                let on_apply = function
                  | Wal.Append { epoch; dim = d; points } -> (
                      if d <> Registry.dim ds then
                        Error
                          (Printf.sprintf "journaled append has dim %d, dataset has dim %d"
                             d (Registry.dim ds))
                      else
                        let rows =
                          Array.init
                            (Array.length points / d)
                            (fun i -> Geometry.Vec.of_row points ~off:(i * d) ~dim:d)
                        in
                        match Registry.append ds rows with
                        | e when e = epoch -> Ok ()
                        | e ->
                            Error
                              (Printf.sprintf
                                 "journaled append produced epoch %d, journal says %d" e
                                 epoch)
                        | exception Invalid_argument m ->
                            Error ("journaled append rejected: " ^ m))
                  | Wal.Retire { epoch; from_; count } -> (
                      match Registry.retire ds ~from_ ~count with
                      | e when e = epoch -> Ok ()
                      | e ->
                          Error
                            (Printf.sprintf
                               "journaled retire produced epoch %d, journal says %d" e
                               epoch)
                      | exception Invalid_argument m ->
                          Error ("journaled retire rejected: " ^ m))
                  | Wal.Cached { epoch; signature; seed; stream; output } -> (
                      match Job.output_of_wire output with
                      | Ok out ->
                          Result_cache.restore
                            (Service.result_cache svc)
                            { Result_cache.dataset; epoch; signature; seed; stream }
                            out;
                          Ok ()
                      | Error e ->
                          Log.warn (fun m ->
                              m "tenant %s: journaled cache entry for %s dropped: %s"
                                tname dataset e);
                          Ok ())
                  | Wal.Standing { line; seed; stream } ->
                      standing_ops := (line, seed, stream) :: !standing_ops;
                      Ok ()
                  | _ -> Ok ()
                in
                let replayed =
                  if ops = [] then begin
                    Wal.append t.wal
                      { Wal.tenant = tname; dataset;
                        op = Wal.Open { mode; budget; synth = Some synth } };
                    Ok 0
                  end
                  else begin
                    t.histories <- List.remove_assoc key t.histories;
                    Wal.replay ~on_apply ops acct
                  end
                in
                match replayed with
                | Error e ->
                    (* The dry run validated every budget op, so only an
                       engine-state op can land here: a journaled mutation
                       that no longer reproduces its journaled epoch. *)
                    err Wire.Internal
                      "%s — dataset %S is only partially recovered; inspect %s before \
                       retrying"
                      e dataset (Wal.path t.wal)
                | Ok orphans ->
                List.iter
                  (fun (line, seed, stream) ->
                    match Service.restore_standing svc ~dataset:ds ~line ~seed ~stream with
                    | Ok () -> ()
                    | Error e ->
                        Log.warn (fun m ->
                            m "tenant %s: standing query on %s not re-armed: %s" tname
                              dataset e))
                  (List.rev !standing_ops);
                (* Journal from here on; subscribing after replay keeps the
                   replayed ops from being re-appended. *)
                Accountant.subscribe acct (fun ev ->
                    Wal.append t.wal (Wal.record_of_event ~tenant:tname ~dataset ev));
                Registry.subscribe_mutations ds (fun mut ->
                    let op =
                      match mut with
                      | Registry.Appended { epoch; dim; points } ->
                          Wal.Append { epoch; dim; points }
                      | Registry.Retired { epoch; from_; count } ->
                          Wal.Retire { epoch; from_; count }
                    in
                    Wal.append t.wal { Wal.tenant = tname; dataset; op });
                if ops <> [] then
                  Log.info (fun m ->
                      m "tenant %s: dataset %s recovered from journal (%d ops, %d orphaned \
                         reservations held)"
                        tname dataset (List.length ops) orphans);
                Ok
                  (Json.Obj
                     [
                       ("dataset", Registry.to_json ds);
                       ("replayed", Json.Bool (ops <> []));
                       ("replayed_ops", Json.Int (List.length ops));
                       ("orphaned_reservations", Json.Int orphans);
                     ])))

let ledger_json ds =
  let acct = Registry.accountant ds in
  let attribution =
    (* Only meaningful when tracing is on: with no spans collected the
       ledger = events check would fail vacuously. *)
    if Obs.Span.enabled () then
      [ ("attribution", Obs.Attribution.to_json (Service.attribution ~dataset:ds ())) ]
    else []
  in
  Json.Obj
    ([
       ("dataset", Json.String (Registry.name ds));
       ("ledger", Accountant.to_json acct);
     ]
    @ attribution)

(* The reply to [run], [append], [retire] and [standing]: the batch's
   results, the dataset's epoch and size, and the ledger's spent and
   remaining budget, but never the ledger's history (the [ledger] verb
   serves that), so a reply's size does not grow with the number of
   charges.  Mutations and standing registrations run through
   [run_batch_named] like any other batch, so the engine's own machinery
   — epoch publication, standing-query ticks, journaling subscriptions —
   fires exactly as it would for a jobs-file submission. *)
let exec_batch tenant ~dataset ?seed specs =
  let svc = Tenants.service tenant in
  match Service.run_batch_named ?seed svc ~dataset specs with
  | Error msg -> err Wire.Unknown_dataset "%s" msg
  | Ok results ->
      let ds = Result.get_ok (Service.find_dataset svc dataset) in
      Ok
        (Json.Obj
           ([
              ("dataset", Json.String dataset);
              ("epoch", Json.Int (Registry.epoch ds));
              ("n", Json.Int (Registry.n ds));
              ("results", Json.List (List.map Job.result_to_json results));
            ]
           @ Accountant.balance_json (Registry.accountant ds)))

(* The one-job batch an [append], [retire] or [standing] request stands
   for.  [handle_request] runs it through [Job.validate] on the connection
   thread, so a bad one is refused before anything is charged or
   journaled. *)
let verb_spec ~id ?(eps = 0.) ?(delta = 0.) kind =
  {
    Job.id;
    kind;
    eps;
    delta;
    beta = Workload.Harness.default_beta;
    deadline_s = None;
    fallback = false;
  }

let exec_epoch _t tenant ~dataset =
  let svc = Tenants.service tenant in
  match Service.find_dataset svc dataset with
  | Error msg -> err Wire.Unknown_dataset "%s" msg
  | Ok ds ->
      let chits, cmisses = Result_cache.stats (Service.result_cache svc) ~dataset in
      Ok
        (Json.Obj
           [
             ("dataset", Json.String dataset);
             ("epoch", Json.Int (Registry.epoch ds));
             ("n", Json.Int (Registry.n ds));
             ("dim", Json.Int (Registry.dim ds));
             ("index_backend", Json.String "kdtree");
             ( "result_cache",
               Json.Obj [ ("hits", Json.Int chits); ("misses", Json.Int cmisses) ] );
           ])

let exec_settle _t tenant ~dataset ~action ~label =
  let svc = Tenants.service tenant in
  match Service.find_dataset svc dataset with
  | Error msg -> err Wire.Unknown_dataset "%s" msg
  | Ok ds ->
      let acct = Registry.accountant ds in
      let all = Accountant.outstanding acct in
      let chosen =
        match label with
        | None -> all
        | Some l -> List.filter (fun (_, lbl, _) -> lbl = l) all
      in
      (* Settlement reuses the ordinary commit/release path, so the
         accountant's listeners journal and trace each operation, and a
         later replay holds no orphan twice. *)
      let settled =
        List.map
          (fun (r, lbl, (cost : Prim.Dp.params)) ->
            (match action with
            | Wire.Commit_orphans -> Accountant.commit acct r
            | Wire.Release_orphans -> Accountant.release acct r);
            { Wire.label = lbl; eps = cost.Prim.Dp.eps; delta = cost.Prim.Dp.delta })
          chosen
      in
      let remaining = List.length (Accountant.outstanding acct) in
      let reply = Wire.settle_reply_to_json { Wire.action; settled; remaining } in
      Ok
        (match reply with
        | Json.Obj fields -> Json.Obj (("dataset", Json.String dataset) :: fields)
        | other -> other)

let exec_ledger _t tenant ~dataset =
  match Service.find_dataset (Tenants.service tenant) dataset with
  | Error msg -> err Wire.Unknown_dataset "%s" msg
  | Ok ds -> Ok (ledger_json ds)

let exec_datasets _t tenant =
  Ok (Json.Obj [ ("datasets", Json.List (List.map Registry.to_json (tenant_datasets tenant))) ])

let exec_metrics t tenant =
  let svc = Tenants.service tenant in
  let datasets = tenant_datasets tenant in
  let daemon_families =
    let open Obs.Prom in
    [
      Gauge
        {
          name = "privclusterd_queue_depth";
          help = "Runs queued for the executor.";
          samples = [ ([], float_of_int (Admission.length t.admission)) ];
        };
      Gauge
        {
          name = "privclusterd_tenant_in_flight";
          help = "This tenant's queued-plus-running batches.";
          samples =
            [
              ( [ ("tenant", Tenants.name tenant) ],
                float_of_int (Admission.in_flight (Tenants.slot tenant)) );
            ];
        };
      Gauge
        {
          name = "privclusterd_draining";
          help = "1 while graceful drain is in progress.";
          samples = [ ([], if Admission.draining t.admission then 1. else 0.) ];
        };
    ]
  in
  (* Every scrape refreshes the burn windows, so an idle tenant's burn
     rate decays instead of freezing at its last burst. *)
  List.iter (fun ds -> sample_burn_ds t tenant ds) datasets;
  let sv = t.serving in
  let serving_families =
    Engine.Exposition.serving_families
      {
        Engine.Exposition.requests = Serving.request_rows sv;
        queue_wait = Serving.wait_rows sv;
        burn = Serving.burn_rows sv ~now_ns:(Obs.Clock.now_ns ());
        sheds = Serving.shed_rows sv;
      }
  in
  let text =
    Engine.Exposition.render ~datasets ~result_cache:(Service.result_cache svc)
      ~telemetry:(Service.telemetry svc) ()
    ^ Obs.Prom.render (daemon_families @ serving_families)
  in
  Ok (Json.Obj [ ("metrics", Json.String text) ])

let health_json t =
  let verdicts = Serving.health t.serving ~now_ns:(Obs.Clock.now_ns ()) in
  Json.Obj
    [
      ("status", Json.String (Obs.Slo.status_to_string (Obs.Slo.worst_of verdicts)));
      ("draining", Json.Bool (Admission.draining t.admission));
      ("rules", Json.List (List.map Obs.Slo.verdict_to_json verdicts));
    ]

(* --- connection handling ------------------------------------------------- *)

type reader = {
  rfd : Unix.file_descr;
  chunk : bytes;
  line : Buffer.t;  (* the current partial line; bounded by [max_request_bytes] *)
  mutable queued : string list;  (* complete lines, oldest first *)
}

(* Longest accepted request line.  Legitimate requests are small (a jobs
   file of thousands of lines stays well under 1 MiB); the cap exists so a
   client — including one that never authenticates — cannot grow the read
   buffer without bound by streaming bytes with no newline. *)
let max_request_bytes = 8 * 1024 * 1024

type read_outcome = Line of string | Eof | Overflow

let make_reader fd =
  { rfd = fd; chunk = Bytes.create 4096; line = Buffer.create 4096; queued = [] }

let rec read_line r =
  match r.queued with
  | l :: rest ->
      r.queued <- rest;
      if String.length l > max_request_bytes then Overflow else Line l
  | [] -> (
      if Buffer.length r.line > max_request_bytes then Overflow
      else
        match Unix.read r.rfd r.chunk 0 (Bytes.length r.chunk) with
        | 0 -> Eof
        | n ->
            (* Scan the fresh chunk only: completed lines move out of the
               buffer and the trailing fragment is appended once, so no
               already-buffered prefix is ever recopied or rescanned. *)
            let start = ref 0 in
            for i = 0 to n - 1 do
              if Bytes.get r.chunk i = '\n' then begin
                Buffer.add_subbytes r.line r.chunk !start (i - !start);
                r.queued <- Buffer.contents r.line :: r.queued;
                Buffer.clear r.line;
                start := i + 1
              end
            done;
            Buffer.add_subbytes r.line r.chunk !start (n - !start);
            r.queued <- List.rev r.queued;
            read_line r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r
        | exception Unix.Unix_error (_, _, _) -> Eof)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let submit_and_wait t ?control ?slot ~verb work =
  let mb = Mailbox.create () in
  Serving.record_submit t.serving;
  let submitted_ns = Obs.Clock.now_ns () in
  (* The mailbox must be filled on every path: an exception escaping the
     executor would otherwise strand this connection thread in [take]
     forever (and [stop] with it, on the join). *)
  let guarded () =
    Serving.record_queue_wait t.serving ~verb
      ~ns:(Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) submitted_ns));
    Mailbox.put mb
      (try work ()
       with e -> err Wire.Internal "unexpected failure: %s" (Printexc.to_string e))
  in
  match Admission.submit t.admission ?control ?slot guarded with
  | Error reason ->
      Serving.record_shed t.serving reason;
      err (Wire.Rejected reason) "request shed (%s); nothing was charged"
        (Wire.shed_reason_name reason)
  | Ok () -> Mailbox.take mb

(* The root's subtree among [spans] (in {!Obs.Span.spans} order): ids
   increase in start order and a parent always sorts before its children,
   so one pass collects the whole subtree. *)
let subtree_of spans root_id =
  let keep = Hashtbl.create 64 in
  Hashtbl.replace keep root_id ();
  List.filter
    (fun (sp : Obs.Span.span) ->
      if
        sp.Obs.Span.id = root_id
        || (match sp.Obs.Span.parent with
           | Some p -> Hashtbl.mem keep p
           | None -> false)
      then begin
        Hashtbl.replace keep sp.Obs.Span.id ();
        true
      end
      else false)
    spans

(* Request capture is on: some requests' span trees go to the exemplar
   ring. *)
let captures sv = Serving.sample_every sv > 0 || Serving.slow_log_dir sv <> None

(* Wrap an executor work item in a request root span and, when the
   deterministic head sampler picks the request or it exceeds the slow
   threshold, write the span subtree to the exemplar ring.  The sampling
   decision is a pure hash of (tenant, verb, rid): no RNG is consulted,
   so outputs and result-cache keys are bit-identical with sampling on
   or off (pinned by the diff test). *)
let traced t ~verb ~tenant_name ~rid work () =
  let sv = t.serving in
  if not (captures sv) then work ()
  else
    (* Every span of this request's tree is pushed after this mark, so
       capture reads only those, however large an outer [--trace]
       collector has grown. *)
    let mark = Obs.Span.mark () in
    let key = Printf.sprintf "%s/%s/%d" tenant_name verb rid in
    let want_sample = Serving.sampled sv ~key in
    let h =
      Obs.Span.start ~cat:"request"
        ~attrs:(fun () ->
          [
            ("verb", Obs.Span.S verb);
            ("tenant", Obs.Span.S tenant_name);
            ("rid", Obs.Span.I rid);
            ("sampled", Obs.Span.B want_sample);
          ])
        ("request:" ^ verb)
    in
    let started_ns = Obs.Clock.now_ns () in
    let result =
      try work ()
      with e ->
        Obs.Span.finish h;
        raise e
    in
    Obs.Span.finish h;
    let dur_ns = Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) started_ns) in
    let slow = dur_ns >= Serving.slow_threshold_ns sv in
    (match Obs.Span.h_id h with
    | Some root_id when want_sample || slow ->
        let tree = subtree_of (Obs.Span.spans_since mark) root_id in
        t.exemplar_seq <- t.exemplar_seq + 1;
        Serving.write_exemplar sv ~verb ~seq:t.exemplar_seq
          ~reason:(if slow then "slow" else "sampled")
          ~json:(Obs.Trace.to_string tree)
    | _ -> ());
    (* The collector would otherwise grow by every request's spans for
       the life of the daemon; only an outer [--trace] consumer wants
       them kept. *)
    if not t.spans_preowned then Obs.Span.reset ();
    result

(* Client-controlled synthesis parameters are checked before the request
   reaches the executor: [Grid.create], [Synth.planted_ball] and
   [Array.init] raise on these, and a raise on the executor thread must
   never be how a bad request is discovered. *)
let validate_register ~n ~dim ~axis ~frac ~radius =
  let bad fmt = Printf.ksprintf (fun m -> Some m) fmt in
  if n < 1 then bad "n must be >= 1 (got %d)" n
  else if dim < 1 then bad "dim must be >= 1 (got %d)" dim
  else if axis < 2 then bad "axis must be >= 2 (got %d)" axis
  else Job.synth_params_error ~frac ~radius

let handle_request t authed (envelope : Wire.envelope) =
  let verb = Wire.request_name envelope.Wire.request in
  let rid = envelope.Wire.rid in
  (* Data-path work items get the request root span + exemplar capture
     and a burn-rate sample; [submit_data] keeps the data verbs from
     repeating the plumbing, and [submit_spec] vets a one-job verb's spec
     before it is submitted. *)
  let submit_data tenant ~dataset work =
    let work = (fun () -> let r = work () in sample_burn t tenant ~dataset; r) in
    submit_and_wait t ~verb
      ~slot:(Tenants.slot tenant, Tenants.max_in_flight tenant)
      (traced t ~verb ~tenant_name:(Tenants.name tenant) ~rid work)
  in
  let submit_spec tenant ~dataset ?seed spec =
    match Job.validate spec with
    | Error e -> err Wire.Bad_request "%s: %s" verb e
    | Ok spec -> submit_data tenant ~dataset (fun () -> exec_batch tenant ~dataset ?seed [ spec ])
  in
  match (envelope.Wire.request, !authed) with
  | Wire.Hello { version; tenant; token }, None ->
      if version <> Wire.version then
        err Wire.Unsupported_version "server speaks protocol %d, client asked for %d"
          Wire.version version
      else (
        match Tenants.authenticate t.tenants ~name:tenant ~token with
        | Some tn ->
            authed := Some tn;
            Ok
              (Json.Obj
                 [
                   ("server", Json.String "privclusterd");
                   ("version", Json.Int Wire.version);
                   ("tenant", Json.String tenant);
                 ])
        | None -> err Wire.Unauthorized "unknown tenant or bad token")
  | Wire.Hello _, Some _ -> err Wire.Bad_request "already authenticated"
  | _, None -> err Wire.Unauthorized "hello required before any other request"
  | Wire.Ping, Some _ ->
      Ok
        (Json.Obj
           [
             ("pong", Json.Bool true);
             ("draining", Json.Bool (Admission.draining t.admission));
           ])
  | Wire.Run { dataset; jobs; seed }, Some tenant -> (
      match Job.parse ~default_beta:Workload.Harness.default_beta jobs with
      | Error e -> err Wire.Bad_request "jobs: %s" e
      | Ok [] -> err Wire.Bad_request "jobs: empty batch"
      | Ok specs -> submit_data tenant ~dataset (fun () -> exec_batch tenant ~dataset ?seed specs))
  | Wire.Register { dataset; n; dim; axis; frac; radius; seed; budget; mode }, Some tenant
    -> (
      match validate_register ~n ~dim ~axis ~frac ~radius with
      | Some msg -> err Wire.Bad_request "register: %s" msg
      | None ->
          submit_and_wait t ~control:true ~verb
            (traced t ~verb ~tenant_name:(Tenants.name tenant) ~rid (fun () ->
                 let r =
                   exec_register t tenant ~dataset ~n ~dim ~axis ~frac ~radius ~seed
                     ~budget ~mode
                 in
                 (* Baseline sample: a fresh window starts at the
                    replayed spend, not at zero. *)
                 sample_burn t tenant ~dataset;
                 r)))
  | Wire.Append { dataset; n; seed; frac; radius }, Some tenant ->
      submit_spec tenant ~dataset
        (verb_spec ~id:"append" (Job.Mutate (Job.Append_synth { n; seed; frac; radius })))
  | Wire.Retire { dataset; from_; count }, Some tenant ->
      submit_spec tenant ~dataset
        (verb_spec ~id:"retire" (Job.Mutate (Job.Retire_range { from_; count })))
  | Wire.Standing { dataset; id; t_fraction; eps; delta; periods; seed }, Some tenant ->
      submit_spec tenant ~dataset ?seed
        (verb_spec ~id ~eps ~delta (Job.Standing { t_fraction; periods }))
  | Wire.Epoch { dataset }, Some tenant ->
      submit_and_wait t ~control:true ~verb (fun () -> exec_epoch t tenant ~dataset)
  | Wire.Settle { dataset; action; label }, Some tenant ->
      submit_and_wait t ~control:true ~verb (fun () ->
          exec_settle t tenant ~dataset ~action ~label)
  | Wire.Ledger { dataset }, Some tenant ->
      submit_and_wait t ~control:true ~verb (fun () -> exec_ledger t tenant ~dataset)
  | Wire.Datasets, Some tenant ->
      submit_and_wait t ~control:true ~verb (fun () -> exec_datasets t tenant)
  | Wire.Metrics, Some tenant ->
      submit_and_wait t ~control:true ~verb (fun () -> exec_metrics t tenant)
  | Wire.Health, Some _ ->
      (* Answered on the connection thread, like [ping]: a health probe
         must work even when the executor queue is deep or draining, and
         [Serving] is safe to read concurrently. *)
      Ok (health_json t)
  | Wire.Stats, Some _ -> Ok (Serving.stats_json t.serving ~now_ns:(Obs.Clock.now_ns ()))

let handle_conn t fd =
  let reader = make_reader fd in
  let authed = ref None in
  let rec loop () =
    match read_line reader with
    | Eof -> ()
    | Overflow ->
        (* The stream cannot be resynchronised past an oversized line:
           reply once, then drop the connection. *)
        (try
           write_all fd
             (Wire.reply_to_line ~rid:0
                (err Wire.Bad_request "request line exceeds %d bytes" max_request_bytes))
         with Unix.Unix_error (_, _, _) -> ())
    | Line line when String.trim line = "" -> loop ()
    | Line line ->
        let received_ns = Obs.Clock.now_ns () in
        let rid, verb, body =
          match Wire.request_of_line line with
          | Error e -> (Wire.rid_of_line line, "invalid", Error e)
          | Ok envelope -> (
              ( envelope.Wire.rid,
                Wire.request_name envelope.Wire.request,
                try handle_request t authed envelope
                with e ->
                  err Wire.Internal "unexpected failure: %s" (Printexc.to_string e) ))
        in
        let continue =
          try
            write_all fd (Wire.reply_to_line ~rid body);
            true
          with Unix.Unix_error (_, _, _) -> false
        in
        (* Admission-to-reply, recorded after the reply bytes are written
           so a slow client socket shows up in the verb's latency. *)
        let tenant = match !authed with Some tn -> Tenants.name tn | None -> "-" in
        Serving.record_request t.serving ~verb ~tenant
          ~ns:(Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) received_ns));
        if continue then loop ()
  in
  (try loop () with _ -> ());
  let self = Thread.self () in
  Mutex.lock t.conn_mutex;
  t.conns <- List.filter (fun c -> c != fd) t.conns;
  (* A finished connection has nothing left to join: prune our own handle
     so [conn_threads] does not grow by one per connection ever accepted.
     [stop] snapshots the list under the same mutex — a handle it read
     before we pruned just makes its join a no-op. *)
  t.conn_threads <-
    List.filter (fun th -> Thread.id th <> Thread.id self) t.conn_threads;
  Mutex.unlock t.conn_mutex;
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* --- lifecycle ----------------------------------------------------------- *)

let accept_loop t =
  let rec go () =
    if Atomic.get t.stopping then ()
    else
      match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> go ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              Mutex.lock t.conn_mutex;
              t.conns <- fd :: t.conns;
              t.conn_threads <- Thread.create (handle_conn t) fd :: t.conn_threads;
              Mutex.unlock t.conn_mutex;
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (_, _, _) -> if Atomic.get t.stopping then () else go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  (try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ());
  match t.cfg.listen with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | `Tcp _ -> ()

let bind_listen = function
  | `Unix path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | `Tcp (host, port) ->
      let addr = Unix.inet_addr_of_string host in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

(* A tenant's service-level journaling hooks (result cache, standing
   registrations), subscribed once at startup.  Replay restores both
   through paths that notify no listener, so it never re-journals. *)
let journal_service t tenant =
  let tenant_name = Tenants.name tenant in
  let svc = Tenants.service tenant in
  let journal dataset op = Wal.append t.wal { Wal.tenant = tenant_name; dataset; op } in
  Result_cache.subscribe (Service.result_cache svc) (fun ck out ->
      journal ck.Result_cache.dataset
        (Wal.Cached
           {
             epoch = ck.Result_cache.epoch;
             signature = ck.Result_cache.signature;
             seed = ck.Result_cache.seed;
             stream = ck.Result_cache.stream;
             output = Job.output_to_wire out;
           }));
  Service.subscribe_standing svc (fun ~dataset ~line ~seed ~stream ->
      journal dataset (Wal.Standing { line; seed; stream }))

let start cfg =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  match Wal.load cfg.wal_path with
  | Error e -> Error ("WAL recovery: " ^ e)
  | Ok (records, tail) -> (
      (match tail with
      | Wal.Clean -> ()
      | Wal.Torn n ->
          Log.warn (fun m ->
              m "WAL %s: cutting a torn final write (%d bytes)" cfg.wal_path n));
      match Wal.open_ ~sync:cfg.sync ~tail cfg.wal_path with
      | Error e -> Error ("WAL open: " ^ e)
      | Ok wal -> (
          let service () =
            Service.create ~domains:cfg.domains ~seed:cfg.seed ~retries:cfg.retries ()
          in
          match Tenants.create ~service cfg.tenants with
          | Error e ->
              Wal.close wal;
              Error e
          | Ok tenants -> (
              match bind_listen cfg.listen with
              | exception Unix.Unix_error (e, _, arg) ->
                  Wal.close wal;
                  Error (Printf.sprintf "listen %s: %s" arg (Unix.error_message e))
              | listen_fd ->
                  let serving =
                    Serving.create ~sample_every:cfg.trace_sample
                      ~slow_threshold_ms:cfg.slow_threshold_ms ?slow_log:cfg.slow_log
                      ~slow_keep:cfg.slow_keep ~rules:cfg.slo_rules ()
                  in
                  let spans_preowned = Obs.Span.enabled () in
                  if captures serving && not spans_preowned then Obs.Span.set_enabled true;
                  (* Resume the ring's sequence past any files left by a
                     previous incarnation, so a restart never overwrites
                     exemplars it did not write. *)
                  let exemplar_seq =
                    List.fold_left
                      (fun acc f ->
                        let base = Filename.basename f in
                        match
                          int_of_string_opt (String.sub base 9 (min 8 (String.length base - 9)))
                        with
                        | Some n -> max acc n
                        | None | (exception Invalid_argument _) -> acc)
                      0 (Serving.exemplar_files serving)
                  in
                  let t =
                    {
                      cfg;
                      wal;
                      histories = Wal.histories records;
                      tenants;
                      admission = Admission.create ~capacity:cfg.capacity;
                      serving;
                      exemplar_seq;
                      spans_preowned;
                      listen_fd;
                      bound = Unix.getsockname listen_fd;
                      stopping = Atomic.make false;
                      stopped = false;
                      stop_mutex = Mutex.create ();
                      conn_mutex = Mutex.create ();
                      conns = [];
                      conn_threads = [];
                      accept_thread = None;
                      executor_thread = None;
                    }
                  in
                  List.iter (journal_service t) (Tenants.list tenants);
                  t.executor_thread <- Some (Thread.create Admission.run t.admission);
                  t.accept_thread <- Some (Thread.create accept_loop t);
                  Log.info (fun m ->
                      m "privclusterd listening (%s); %d tenants, %d journaled streams"
                        (match cfg.listen with
                        | `Unix p -> "unix:" ^ p
                        | `Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p)
                        (List.length cfg.tenants)
                        (List.length t.histories));
                  Ok t)))

let stop t =
  Mutex.lock t.stop_mutex;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_mutex;
  if first then begin
    Log.info (fun m -> m "privclusterd draining");
    Atomic.set t.stopping true;
    Option.iter Thread.join t.accept_thread;
    (* Runs queued before the drain flag still execute and reply; new
       submissions shed with [draining]. *)
    Admission.drain t.admission;
    Option.iter Thread.join t.executor_thread;
    Mutex.lock t.conn_mutex;
    let conns = t.conns and threads = t.conn_threads in
    Mutex.unlock t.conn_mutex;
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ())
      conns;
    List.iter Thread.join threads;
    Wal.close t.wal;
    Log.info (fun m -> m "privclusterd stopped cleanly")
  end

let run ?on_ready cfg =
  match start cfg with
  | Error _ as e -> e
  | Ok t ->
      let stop_requested = Atomic.make false in
      let handler _ = Atomic.set stop_requested true in
      let previous =
        List.map
          (fun s -> (s, Sys.signal s (Sys.Signal_handle handler)))
          [ Sys.sigterm; Sys.sigint ]
      in
      Option.iter (fun f -> f t) on_ready;
      while not (Atomic.get stop_requested) do
        Thread.delay 0.05
      done;
      stop t;
      List.iter (fun (s, b) -> Sys.set_signal s b) previous;
      Ok ()

module For_testing = struct
  let max_request_bytes = max_request_bytes
end
