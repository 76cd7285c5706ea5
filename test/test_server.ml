(* privclusterd: WAL framing and replay, accountant event stream,
   admission shedding, wire protocol, and daemon end-to-end (including
   crash recovery and a concurrent multi-client soak). *)

open Testutil
module Acct = Engine.Accountant
module Wal = Server.Wal
module Wire = Server.Wire

let p ~eps ~delta = { Prim.Dp.eps; delta }

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let tmp_path suffix =
  let f = Filename.temp_file "privclusterd_test" suffix in
  Sys.remove f;
  f

(* --- crc32 --------------------------------------------------------------- *)

let test_crc_vectors () =
  (* The standard IEEE check value, plus anchors computed with zlib. *)
  Alcotest.(check string) "123456789" "cbf43926" (Server.Crc32.to_hex (Server.Crc32.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Server.Crc32.to_hex (Server.Crc32.string ""));
  Alcotest.(check string) "a" "e8b7be43" (Server.Crc32.to_hex (Server.Crc32.string "a"));
  check_true "of_hex inverts to_hex"
    (Server.Crc32.of_hex "cbf43926" = Some (Server.Crc32.string "123456789"));
  check_true "of_hex rejects short" (Server.Crc32.of_hex "abc" = None);
  check_true "of_hex rejects junk" (Server.Crc32.of_hex "zzzzzzzz" = None)

(* --- WAL framing --------------------------------------------------------- *)

let sample_records =
  [
    { Wal.tenant = "acme"; dataset = "d1";
      op = Wal.Open
          { mode = Acct.Basic; budget = p ~eps:2.0 ~delta:1e-5;
            synth = Some { Wal.n = 400; dim = 2; axis = 128; frac = 0.5;
                           radius = 0.1 +. 0.2; seed = 3 } } };
    { Wal.tenant = "acme"; dataset = "d1";
      op = Wal.Charge { label = "j1"; cost = p ~eps:0.5 ~delta:1e-7 } };
    { Wal.tenant = "acme"; dataset = "d1";
      op = Wal.Refuse { label = "j2"; cost = p ~eps:9.0 ~delta:0.0; reserve = false } };
    { Wal.tenant = "acme"; dataset = "d1";
      op = Wal.Reserve { rid = 0; label = "j3:fallback"; cost = p ~eps:0.25 ~delta:5e-8 } };
    { Wal.tenant = "acme"; dataset = "d1"; op = Wal.Commit { rid = 0 } };
    (* synth = None: a legacy record journaled before parameters were pinned *)
    { Wal.tenant = "beta"; dataset = "dx";
      op = Wal.Open
          { mode = Acct.Zcdp { slack = 1e-9 }; budget = p ~eps:1.0 ~delta:1e-6;
            synth = None } };
    { Wal.tenant = "beta"; dataset = "dx";
      op = Wal.Reserve { rid = 1; label = "q:fallback"; cost = p ~eps:0.1 ~delta:0.0 } };
    { Wal.tenant = "beta"; dataset = "dx"; op = Wal.Release { rid = 1 } };
    (* engine-state ops: epoch transitions, cache entries, standing queries *)
    { Wal.tenant = "acme"; dataset = "d1";
      op = Wal.Append { epoch = 1; dim = 2; points = [| 0.125; 0.25; 0.1 +. 0.2; 1e-9 |] } };
    { Wal.tenant = "acme"; dataset = "d1"; op = Wal.Retire { epoch = 2; from_ = 7; count = 3 } };
    { Wal.tenant = "acme"; dataset = "d1";
      op = Wal.Cached
          { epoch = 2; signature = "quantile q=0x1p-1 axis=0 eps=0x1.999999999999ap-4";
            seed = 5; stream = 1;
            output = Engine.Job.output_to_wire
                (Engine.Job.Quantile_value { value = 0.1 +. 0.2; target_rank = 200.5 }) } };
    { Wal.tenant = "acme"; dataset = "d1";
      op = Wal.Standing { line = "standing t_fraction=0x1p-1 periods=3 eps=0x1.8p+0 delta=0x1p-21 id=sq"; seed = 5; stream = 0 } };
  ]

let write_wal path records =
  match Wal.open_ ~sync:false path with
  | Error e -> Alcotest.failf "wal open: %s" e
  | Ok w ->
      List.iter (Wal.append w) records;
      Wal.close w

let test_wal_roundtrip () =
  let path = tmp_path ".wal" in
  write_wal path sample_records;
  (match Wal.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (records, tail) ->
      check_true "clean tail" (tail = Wal.Clean);
      check_true "all records round-trip" (records = sample_records));
  Sys.remove path

let test_wal_missing_file () =
  match Wal.load (tmp_path ".wal") with
  | Ok ([], Wal.Clean) -> ()
  | Ok _ -> Alcotest.fail "missing file should load as empty"
  | Error e -> Alcotest.failf "missing file should not error: %s" e

let test_wal_hex_float_bitexact =
  qcheck ~count:300 "wal ε/δ round-trip bit-exactly"
    QCheck2.Gen.(pair (float_bound_exclusive 100.) (float_bound_exclusive 1.))
    (fun (eps, delta) ->
      let path = tmp_path ".wal" in
      let r = { Wal.tenant = "t"; dataset = "d"; op = Wal.Charge { label = "j"; cost = p ~eps ~delta } } in
      write_wal path [ r ];
      let out = Wal.load path in
      Sys.remove path;
      match out with
      | Ok ([ { Wal.op = Wal.Charge { cost; _ }; _ } ], Wal.Clean) ->
          Int64.bits_of_float cost.Prim.Dp.eps = Int64.bits_of_float eps
          && Int64.bits_of_float cost.Prim.Dp.delta = Int64.bits_of_float delta
      | _ -> false)

let test_wal_torn_tail () =
  let path = tmp_path ".wal" in
  write_wal path sample_records;
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let full_len = String.length contents in
  (* Truncating the file at ANY byte — the state a crash mid-append can
     leave — must load as the surviving record prefix plus a torn tail,
     never an error. *)
  for k = 0 to full_len do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub contents 0 k));
    match Wal.load path with
    | Error e -> Alcotest.failf "cut at %d should be a torn tail, got error: %s" k e
    | Ok (records, tail) ->
        let m = List.length records in
        check_true
          (Printf.sprintf "cut at %d yields a record prefix" k)
          (records = List.filteri (fun i _ -> i < m) sample_records);
        (match tail with
        | Wal.Clean ->
            (* a clean load must sit exactly on a frame boundary *)
            check_true
              (Printf.sprintf "clean cut at %d is a frame boundary" k)
              (k = 0 || String.length contents > 0)
        | Wal.Torn dropped ->
            check_true
              (Printf.sprintf "cut at %d reports only tail bytes dropped" k)
              (dropped > 0 && dropped <= k))
  done;
  Sys.remove path

let test_wal_corruption_mid_file () =
  let path = tmp_path ".wal" in
  write_wal path sample_records;
  let contents = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  (* Flip one payload byte of the first frame: CRC fails, and because
     later frames are intact this is corruption, not a torn tail. *)
  let i = 30 in
  Bytes.set contents i (Char.chr (Char.code (Bytes.get contents i) lxor 0x40));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc contents);
  (match Wal.load path with
  | Error e -> check_true "error names corruption" (contains_sub e "corrupt")
  | Ok _ -> Alcotest.fail "mid-file corruption must refuse the journal");
  Sys.remove path;
  (* A well-framed charge the accountant would refuse (a negative ε, which
     a wire spec built without validation could once journal) is corrupt
     too: the journal is refused at load instead of raising mid-replay. *)
  let charge eps = { Wal.tenant = "t"; dataset = "d"; op = Wal.Charge { label = "c"; cost = p ~eps ~delta:0. } } in
  write_wal path [ charge (-2.); charge 1. ];
  check_true "negative cost refused" (Result.is_error (Wal.load path));
  Sys.remove path

let test_wal_histories () =
  let hs = Wal.histories sample_records in
  Alcotest.(check int) "two streams" 2 (List.length hs);
  (match hs with
  | [ ((t1, d1), ops1); ((t2, d2), ops2) ] ->
      Alcotest.(check string) "stream 1 tenant" "acme" t1;
      Alcotest.(check string) "stream 1 dataset" "d1" d1;
      Alcotest.(check int) "stream 1 ops" 9 (List.length ops1);
      Alcotest.(check string) "stream 2 tenant" "beta" t2;
      Alcotest.(check string) "stream 2 dataset" "dx" d2;
      Alcotest.(check int) "stream 2 ops" 3 (List.length ops2);
      check_true "opening finds the Open record with its synth params"
        (Wal.opening ops1
        = Some
            ( Acct.Basic, p ~eps:2.0 ~delta:1e-5,
              Some { Wal.n = 400; dim = 2; axis = 128; frac = 0.5;
                     radius = 0.1 +. 0.2; seed = 3 } ));
      check_true "legacy zcdp opening survives without synth params"
        (Wal.opening ops2 = Some (Acct.Zcdp { slack = 1e-9 }, p ~eps:1.0 ~delta:1e-6, None))
  | _ -> Alcotest.fail "unexpected grouping")

(* --- accountant event stream (satellite: structured events) -------------- *)

let drive_ledger acct =
  (* charge, refused charge, reserve, commit, reserve, release, refused reserve *)
  ignore (Acct.charge acct ~label:"a" (p ~eps:0.5 ~delta:0.0));
  ignore (Acct.charge acct ~label:"big" (p ~eps:99.0 ~delta:0.0));
  (match Acct.reserve acct ~label:"b:fallback" (p ~eps:0.25 ~delta:0.0) with
  | Ok r -> Acct.commit acct r
  | Error _ -> Alcotest.fail "reserve b should fit");
  (match Acct.reserve acct ~label:"c:fallback" (p ~eps:0.25 ~delta:0.0) with
  | Ok r -> Acct.release acct r
  | Error _ -> Alcotest.fail "reserve c should fit");
  ignore (Acct.reserve acct ~label:"huge:fallback" (p ~eps:50.0 ~delta:0.0))

let test_event_stream () =
  let acct = Acct.create ~budget:(p ~eps:2.0 ~delta:1e-5) () in
  let events = ref [] in
  Acct.subscribe acct (fun ev -> events := ev :: !events);
  drive_ledger acct;
  let names =
    List.rev_map
      (function
        | Acct.Charged { label; _ } -> "charged:" ^ label
        | Acct.Refused { label; reserve; _ } ->
            (if reserve then "refused-reserve:" else "refused:") ^ label
        | Acct.Reserved { label; _ } -> "reserved:" ^ label
        | Acct.Committed { label; _ } -> "committed:" ^ label
        | Acct.Released { label; _ } -> "released:" ^ label)
      !events
  in
  Alcotest.(check (list string)) "event sequence"
    [
      "charged:a"; "refused:big"; "reserved:b:fallback"; "committed:b:fallback";
      "reserved:c:fallback"; "released:c:fallback"; "refused-reserve:huge:fallback";
    ]
    names

let test_events_do_not_perturb_ledger () =
  let with_l = Acct.create ~budget:(p ~eps:2.0 ~delta:1e-5) () in
  let without = Acct.create ~budget:(p ~eps:2.0 ~delta:1e-5) () in
  Acct.subscribe with_l (fun _ -> ());
  drive_ledger with_l;
  drive_ledger without;
  check_true "spent identical" (Acct.spent with_l = Acct.spent without);
  check_true "entries identical" (Acct.entries with_l = Acct.entries without);
  check_int "refusals identical" (Acct.refusals without) (Acct.refusals with_l);
  check_true "json identical" (Acct.to_json with_l = Acct.to_json without)

let test_record_of_event () =
  let acct = Acct.create ~budget:(p ~eps:2.0 ~delta:1e-5) () in
  let records = ref [] in
  Acct.subscribe acct (fun ev ->
      records := Wal.record_of_event ~tenant:"t" ~dataset:"d" ev :: !records);
  ignore (Acct.charge acct ~label:"a" (p ~eps:0.5 ~delta:0.0));
  (match Acct.reserve acct ~label:"b" (p ~eps:0.25 ~delta:0.0) with
  | Ok r -> Acct.commit acct r
  | Error _ -> Alcotest.fail "reserve should fit");
  match List.rev !records with
  | [ { Wal.op = Wal.Charge { label = "a"; _ }; _ };
      { Wal.op = Wal.Reserve { rid; label = "b"; _ }; _ };
      { Wal.op = Wal.Commit { rid = rid' }; _ } ] ->
      check_int "commit pairs with its reservation id" rid rid'
  | _ -> Alcotest.fail "unexpected record mapping"

(* --- service lookup (satellite: actionable unknown-dataset error) -------- *)

let test_find_dataset_message () =
  let svc = Engine.Service.create ~domains:1 ~seed:5 () in
  (match Engine.Service.find_dataset svc "nope" with
  | Ok _ -> Alcotest.fail "empty registry cannot resolve"
  | Error m ->
      check_true "names the id" (contains_sub m "\"nope\"");
      check_true "says none registered" (contains_sub m "no datasets are registered"));
  let _, grid, w = small_workload () in
  let _ =
    Engine.Service.register svc ~name:"alpha" ~grid ~budget:(p ~eps:4.0 ~delta:1e-5)
      w.Workload.Synth.points
  in
  let _ =
    Engine.Service.register svc ~name:"beta" ~grid ~budget:(p ~eps:4.0 ~delta:1e-5)
      w.Workload.Synth.points
  in
  match Engine.Service.find_dataset svc "alpah" with
  | Ok _ -> Alcotest.fail "typo must not resolve"
  | Error m ->
      check_true "names the typo'd id" (contains_sub m "\"alpah\"");
      check_true "lists alpha" (contains_sub m "\"alpha\"");
      check_true "lists beta" (contains_sub m "\"beta\"")

let test_run_batch_named_charges_nothing () =
  let svc = Engine.Service.create ~domains:1 ~seed:5 () in
  let _, grid, w = small_workload () in
  let ds =
    Engine.Service.register svc ~name:"alpha" ~grid ~budget:(p ~eps:4.0 ~delta:1e-5)
      w.Workload.Synth.points
  in
  let specs =
    match Engine.Job.parse "quantile q=0.5 axis=0 eps=0.25" with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse: %s" e
  in
  (match Engine.Service.run_batch_named svc ~dataset:"missing" specs with
  | Ok _ -> Alcotest.fail "missing dataset must error"
  | Error _ -> ());
  let acct = Engine.Registry.accountant ds in
  check_true "failed lookup charged nothing" (Acct.spent acct = p ~eps:0.0 ~delta:0.0);
  check_int "no refusals recorded either" 0 (Acct.refusals acct)

(* --- journal + replay against real batches ------------------------------- *)

(* Journal a real service batch through the event stream, then replay the
   journal into a fresh accountant: the reconstructed ledger must be the
   live ledger, bit for bit. *)
let journaled_batch ?faults ~budget ~jobs () =
  let svc = Engine.Service.create ~domains:2 ~seed:11 ~retries:2 ?faults () in
  let _, grid, w = small_workload () in
  let ds = Engine.Service.register svc ~name:"d" ~grid ~budget w.Workload.Synth.points in
  let acct = Engine.Registry.accountant ds in
  let records =
    ref [ { Wal.tenant = "t"; dataset = "d";
            op = Wal.Open { mode = Acct.Basic; budget; synth = None } } ]
  in
  Acct.subscribe acct (fun ev ->
      records := Wal.record_of_event ~tenant:"t" ~dataset:"d" ev :: !records);
  let specs = match Engine.Job.parse jobs with Ok s -> s | Error e -> Alcotest.failf "parse: %s" e in
  let results = Engine.Service.run_batch svc ~dataset:ds specs in
  (acct, List.rev !records, results)

let check_replay_equal ~what live records =
  match Wal.opening (List.map (fun r -> r.Wal.op) records) with
  | None -> Alcotest.failf "%s: no Open record" what
  | Some (mode, budget, _) -> (
      let fresh = Acct.create ~mode ~budget () in
      match Wal.replay (List.map (fun r -> r.Wal.op) records) fresh with
      | Error e -> Alcotest.failf "%s: replay: %s" what e
      | Ok orphans ->
          check_true (what ^ ": spent bit-identical") (Acct.spent fresh = Acct.spent live);
          check_true (what ^ ": entries identical") (Acct.entries fresh = Acct.entries live);
          check_int (what ^ ": refusals") (Acct.refusals live) (Acct.refusals fresh);
          check_true (what ^ ": reserved identical") (Acct.For_testing.reserved fresh = Acct.For_testing.reserved live);
          orphans)

let batch_jobs =
  {|one_cluster t_fraction=0.45 eps=0.8 delta=1e-7 fallback=true
quantile q=0.5 axis=0 eps=0.25 id=median
one_cluster t_fraction=0.4 eps=0.7 delta=1e-7
one_cluster t_fraction=0.45 eps=1.5 delta=1e-7 id=over
quantile q=0.9 axis=1 eps=0.2 id=q90|}

let test_replay_matches_live () =
  (* Budget admits some jobs and refuses others; one fallback reserve. *)
  let live, records, _ = journaled_batch ~budget:(p ~eps:2.0 ~delta:1e-5) ~jobs:batch_jobs () in
  let orphans = check_replay_equal ~what:"plain" live records in
  check_int "no orphans from a settled batch" 0 orphans

let test_replay_matches_live_under_faults () =
  let faults =
    match Engine.Faults.parse "crash@0, crash@2" with
    | Ok f -> f
    | Error e -> Alcotest.failf "faults: %s" e
  in
  let live, records, _ =
    journaled_batch ~faults ~budget:(p ~eps:2.0 ~delta:1e-5) ~jobs:batch_jobs ()
  in
  ignore (check_replay_equal ~what:"faulted" live records)

let test_replay_prefixes () =
  (* Every truncation of the journal — the state a crash can leave —
     replays cleanly into exactly the ledger the prefix describes, and
     the full-journal replay equals the live ledger (no double-charge). *)
  let live, records, _ = journaled_batch ~budget:(p ~eps:2.0 ~delta:1e-5) ~jobs:batch_jobs () in
  let path = tmp_path ".wal" in
  write_wal path records;
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length contents in
  let seen = ref 0 in
  for k = 0 to n do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub contents 0 k));
    match Wal.load path with
    | Error e -> Alcotest.failf "prefix %d: %s" k e
    | Ok (prefix, _) ->
        let m = List.length prefix in
        check_true
          (Printf.sprintf "prefix at %d bytes is a record prefix" k)
          (prefix = List.filteri (fun i _ -> i < m) records);
        incr seen;
        let ops = List.map (fun r -> r.Wal.op) prefix in
        (match Wal.opening ops with
        | None -> check_int (Printf.sprintf "only the empty prefix lacks Open (%d)" k) 0 m
        | Some (mode, budget, _) -> (
            let fresh = Acct.create ~mode ~budget () in
            match Wal.replay ops fresh with
            | Error e -> Alcotest.failf "prefix %d replay: %s" k e
            | Ok _ -> ()))
  done;
  check_true "exercised every byte cut" (!seen = n + 1);
  (* and the full journal: exactly the live ledger, charged once *)
  ignore (check_replay_equal ~what:"full" live records);
  Sys.remove path

let test_replay_orphaned_reservation_held () =
  let budget = p ~eps:2.0 ~delta:1e-5 in
  let ops =
    [
      Wal.Open { mode = Acct.Basic; budget; synth = None };
      Wal.Charge { label = "a"; cost = p ~eps:0.5 ~delta:0.0 };
      Wal.Reserve { rid = 7; label = "a:fallback"; cost = p ~eps:0.25 ~delta:0.0 };
      (* daemon died before commit/release *)
    ]
  in
  let fresh = Acct.create ~budget () in
  match Wal.replay ops fresh with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok orphans ->
      check_int "one orphan held" 1 orphans;
      check_true "orphan blocks headroom, visibly"
        (Acct.For_testing.reserved fresh = [ ("a:fallback", p ~eps:0.25 ~delta:0.0) ]);
      check_true "orphan not spent" (Acct.spent fresh = p ~eps:0.5 ~delta:0.0);
      check_true "headroom reflects the hold"
        (not (Acct.For_testing.would_accept fresh (p ~eps:1.3 ~delta:0.0)))

let test_replay_divergence_refused () =
  let ops =
    [
      Wal.Open { mode = Acct.Basic; budget = p ~eps:2.0 ~delta:1e-5; synth = None };
      Wal.Charge { label = "a"; cost = p ~eps:1.5 ~delta:0.0 };
      Wal.Charge { label = "b"; cost = p ~eps:1.5 ~delta:0.0 };
    ]
  in
  (* Replay against a smaller budget than the journal was written under:
     the second charge cannot re-accept, and replay must refuse to guess. *)
  let fresh = Acct.create ~budget:(p ~eps:2.0 ~delta:1e-5) () in
  match Wal.replay ops fresh with
  | Ok _ -> Alcotest.fail "diverging journal must not replay"
  | Error e -> check_true "names the diverging label" (contains_sub e "\"b\"")

let test_replay_applies_engine_ops_in_order () =
  let engine_ops =
    [
      Wal.Append { epoch = 1; dim = 2; points = [| 0.5; 0.5 |] };
      Wal.Cached
        { epoch = 1; signature = "sig"; seed = 5; stream = 0;
          output = Obs.Json.Obj [ ("kind", Obs.Json.String "radius") ] };
      Wal.Standing { line = "standing periods=2 eps=0.5 delta=1e-7"; seed = 5; stream = 0 };
      Wal.Retire { epoch = 2; from_ = 0; count = 1 };
    ]
  in
  let ops =
    match engine_ops with
    | [ a; b; c; d ] ->
        [
          Wal.Open { mode = Acct.Basic; budget = p ~eps:2.0 ~delta:1e-5; synth = None };
          a;
          Wal.Charge { label = "j1"; cost = p ~eps:0.5 ~delta:0.0 };
          b; c;
          Wal.Charge { label = "j2"; cost = p ~eps:0.25 ~delta:0.0 };
          d;
        ]
    | _ -> assert false
  in
  let fresh = Acct.create ~budget:(p ~eps:2.0 ~delta:1e-5) () in
  let seen = ref [] in
  match Wal.replay ~on_apply:(fun op -> seen := op :: !seen; Ok ()) ops fresh with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok orphans ->
      check_int "no orphans" 0 orphans;
      check_true "engine ops surfaced in journal order" (List.rev !seen = engine_ops);
      check_true "engine ops did not perturb the ledger"
        (Acct.spent fresh = p ~eps:0.75 ~delta:0.0)

(* An on_apply that cannot reproduce the journaled engine state — e.g. an
   append whose replay lands on a different epoch — must abort the replay
   with its message, not be ignored. *)
let test_replay_on_apply_divergence () =
  let ops =
    [
      Wal.Open { mode = Acct.Basic; budget = p ~eps:2.0 ~delta:1e-5; synth = None };
      Wal.Charge { label = "a"; cost = p ~eps:0.5 ~delta:0.0 };
      Wal.Append { epoch = 7; dim = 2; points = [| 0.5; 0.5 |] };
    ]
  in
  let fresh = Acct.create ~budget:(p ~eps:2.0 ~delta:1e-5) () in
  let on_apply = function
    | Wal.Append { epoch; _ } ->
        Error (Printf.sprintf "journaled append produced epoch 1, journal says %d" epoch)
    | _ -> Ok ()
  in
  match Wal.replay ~on_apply ops fresh with
  | Ok _ -> Alcotest.fail "diverging engine-state op must abort the replay"
  | Error e ->
      check_true "marked as divergence" (contains_sub e "diverged");
      check_true "carries the on_apply message" (contains_sub e "journal says 7")

(* --- admission ----------------------------------------------------------- *)

let test_admission_shed_reasons () =
  (* No executor: the queue only fills, so verdicts are deterministic. *)
  let adm = Server.Admission.create ~capacity:1 in
  check_true "first fits" (Server.Admission.submit adm (fun () -> ()) = Ok ());
  check_true "second sheds queue_full"
    (Server.Admission.submit adm (fun () -> ()) = Error Wire.Queue_full);
  check_true "control bypasses capacity"
    (Server.Admission.submit adm ~control:true (fun () -> ()) = Ok ());
  let c = Server.Admission.counter () in
  check_true "cap 0 sheds tenant_cap"
    (Server.Admission.submit adm ~slot:(c, 0) (fun () -> ()) = Error Wire.Tenant_cap);
  check_int "shed did not take a slot" 0 (Server.Admission.in_flight c)

let test_admission_executes_and_drains () =
  let adm = Server.Admission.create ~capacity:16 in
  let ran = ref [] and m = Mutex.create () in
  let push i =
    Mutex.lock m;
    ran := i :: !ran;
    Mutex.unlock m
  in
  let c = Server.Admission.counter () in
  for i = 1 to 5 do
    check_true "submit ok" (Server.Admission.submit adm ~slot:(c, 8) (fun () -> push i) = Ok ())
  done;
  let exec = Thread.create Server.Admission.run adm in
  Server.Admission.drain adm;
  Thread.join exec;
  Alcotest.(check (list int)) "ran in submission order" [ 1; 2; 3; 4; 5 ] (List.rev !ran);
  check_int "slots returned" 0 (Server.Admission.in_flight c);
  check_true "post-drain submissions shed as draining"
    (Server.Admission.submit adm (fun () -> ()) = Error Wire.Draining)

(* --- wire protocol ------------------------------------------------------- *)

let roundtrip_request req =
  let line = Wire.request_to_line { Wire.rid = 42; request = req } in
  check_true "one line" (String.index_opt line '\n' = Some (String.length line - 1));
  match Wire.request_of_line (String.trim line) with
  | Ok { Wire.rid = 42; request } -> check_true "request round-trips" (request = req)
  | Ok _ -> Alcotest.fail "rid lost"
  | Error e -> Alcotest.failf "parse back: %s" e.Wire.message

let test_wire_request_roundtrip () =
  List.iter roundtrip_request
    [
      Wire.Hello { version = Wire.version; tenant = "acme"; token = "s3cret" };
      Wire.Register
        { dataset = "d1"; n = 800; dim = 2; axis = 128; frac = 0.5; radius = 0.05;
          seed = 9; budget = p ~eps:2.0 ~delta:1e-5; mode = Acct.Zcdp { slack = 1e-9 } };
      Wire.Run { dataset = "d1"; jobs = "quantile q=0.5 eps=0.1\n# c\n"; seed = Some 7 };
      Wire.Run { dataset = "d1"; jobs = "x"; seed = None };
      Wire.Ledger { dataset = "d1" };
      Wire.Epoch { dataset = "d1" };
      Wire.Settle { dataset = "d1"; action = Wire.Commit_orphans; label = Some "sq#2" };
      Wire.Settle { dataset = "d1"; action = Wire.Release_orphans; label = None };
      Wire.Datasets;
      Wire.Metrics;
      Wire.Ping;
    ]

let test_settle_reply_roundtrip () =
  let reply =
    {
      Wire.action = Wire.Release_orphans;
      settled =
        [
          { Wire.label = "sq#2"; eps = 0.5; delta = 1e-7 };
          { Wire.label = "sq#3"; eps = 0.5; delta = 1e-7 };
        ];
      remaining = 1;
    }
  in
  (match Wire.settle_reply_of_json (Wire.settle_reply_to_json reply) with
  | Ok r -> check_true "settle reply round-trips" (r = reply)
  | Error e -> Alcotest.failf "settle reply: %s" e);
  check_true "action names round-trip"
    (Wire.settle_action_of_string (Wire.settle_action_name Wire.Commit_orphans)
     = Some Wire.Commit_orphans
    && Wire.settle_action_of_string (Wire.settle_action_name Wire.Release_orphans)
       = Some Wire.Release_orphans
    && Wire.settle_action_of_string "shrug" = None)

let test_wire_reply_roundtrip () =
  let ok_line = Wire.reply_to_line ~rid:7 (Ok (Obs.Json.Obj [ ("x", Obs.Json.Int 1) ])) in
  (match Wire.reply_of_line (String.trim ok_line) with
  | Ok (7, Ok payload) ->
      check_true "payload field survives"
        (Option.bind (Obs.Json.member "x" payload) Obs.Json.to_int = Some 1)
  | _ -> Alcotest.fail "ok reply roundtrip");
  let errs =
    [
      Wire.Bad_request; Wire.Unsupported_version; Wire.Unauthorized; Wire.Unknown_dataset;
      Wire.Conflict; Wire.Rejected Wire.Queue_full; Wire.Rejected Wire.Tenant_cap;
      Wire.Rejected Wire.Draining; Wire.Internal;
    ]
  in
  List.iter
    (fun code ->
      let line = Wire.reply_to_line ~rid:9 (Error { Wire.code; message = "m" }) in
      check_true "error reply declares charged:false on the wire"
        (contains_sub line "\"charged\": false" || contains_sub line "\"charged\":false");
      match Wire.reply_of_line (String.trim line) with
      | Ok (9, Error e) -> check_true "code round-trips" (e.Wire.code = code)
      | _ -> Alcotest.fail "error reply roundtrip")
    errs

(* --- daemon end-to-end --------------------------------------------------- *)

let daemon_cfg ~dir ?(capacity = 16) ?(tenants = [ { Server.Tenants.name = "acme"; token = "s3cret"; max_in_flight = 8 } ]) () =
  {
    Server.Daemon.default_config with
    listen = `Unix (Filename.concat dir "d.sock");
    wal_path = Filename.concat dir "d.wal";
    tenants;
    capacity;
    domains = 2;
    retries = 2;
    seed = 1;
    sync = false;  (* keep the suite fast; sync-mode is covered by CI smoke *)
  }

let with_daemon cfg f =
  match Server.Daemon.start cfg with
  | Error e -> Alcotest.failf "daemon start: %s" e
  | Ok d ->
      Fun.protect ~finally:(fun () -> Server.Daemon.stop d) (fun () -> f d)

let connect cfg = Server.Client.connect cfg.Server.Daemon.listen

let expect_ok what = function
  | Ok v -> v
  | Error f -> Alcotest.failf "%s: %s" what (Server.Client.fail_message f)

let temp_dir () =
  let d = Filename.temp_file "privclusterd" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let soak_jobs = "one_cluster t_fraction=0.45 eps=0.3 delta=1e-7\nquantile q=0.5 axis=0 eps=0.1\n"

(* A start cuts a torn final write off the journal, so a record appended
   after it follows the last whole frame and the next load is clean; a
   start on a clean journal writes nothing to it.  Appending behind the
   torn bytes instead would leave a bad frame followed by a valid one,
   which load refuses as corruption. *)
let test_wal_torn_tail_cut_at_start () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let path = cfg.Server.Daemon.wal_path in
  write_wal path sample_records;
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600 path (fun oc ->
      Out_channel.output_string oc "PW1 0000dead");
  (match Wal.load path with
  | Ok (records, Wal.Torn 12) -> check_true "torn load keeps every whole record" (records = sample_records)
  | Ok _ -> Alcotest.fail "expected a 12-byte torn tail"
  | Error e -> Alcotest.failf "load with torn tail: %s" e);
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d2" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:2.0 ~delta:1e-5) ()));
      Server.Client.close c);
  let after_cut = In_channel.with_open_bin path In_channel.input_all in
  (match Wal.load path with
  | Ok (records, Wal.Clean) -> (
      check_int "one record appended after the cut" (List.length sample_records + 1)
        (List.length records);
      check_true "the whole records survive the cut"
        (List.filteri (fun i _ -> i < List.length sample_records) records = sample_records);
      match List.rev records with
      | { Wal.tenant = "acme"; dataset = "d2"; op = Wal.Open _ } :: _ -> ()
      | _ -> Alcotest.fail "the appended record is d2's open")
  | Ok (_, Wal.Torn _) -> Alcotest.fail "the torn tail survived the start"
  | Error e -> Alcotest.failf "reload after the cut: %s" e);
  with_daemon cfg (fun _d -> ());
  Alcotest.(check string) "a start on a clean journal writes nothing" after_cut
    (In_channel.with_open_bin path In_channel.input_all)

let test_daemon_lifecycle () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  with_daemon cfg (fun _d ->
      (* auth is enforced *)
      (match connect cfg ~tenant:"acme" ~token:"wrong" with
      | Ok _ -> Alcotest.fail "bad token must not connect"
      | Error (`Server e) -> check_true "unauthorized" (e.Wire.code = Wire.Unauthorized)
      | Error (`Transport m) -> Alcotest.failf "transport: %s" m);
      (match connect cfg ~tenant:"ghost" ~token:"s3cret" with
      | Ok _ -> Alcotest.fail "unknown tenant must not connect"
      | Error _ -> ());
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore (expect_ok "ping" (Server.Client.For_testing.ping c));
      let reg =
        expect_ok "register"
          (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
             ~budget:(p ~eps:2.0 ~delta:1e-5) ())
      in
      check_true "fresh dataset is not a replay"
        (Obs.Json.member "replayed" reg = Some (Obs.Json.Bool false));
      (* duplicate registration conflicts *)
      (match
         Server.Client.register c ~dataset:"d1" ~n:400 ~budget:(p ~eps:2.0 ~delta:1e-5) ()
       with
      | Error (`Server e) -> check_true "conflict" (e.Wire.code = Wire.Conflict)
      | _ -> Alcotest.fail "duplicate register must conflict");
      (* unknown dataset carries the actionable message end-to-end *)
      (match Server.Client.run c ~dataset:"dl" ~jobs:soak_jobs () with
      | Error (`Server e) ->
          check_true "names the typo" (contains_sub e.Wire.message "\"dl\"");
          check_true "lists registered" (contains_sub e.Wire.message "\"d1\"")
      | _ -> Alcotest.fail "unknown dataset must fail");
      let run1 = expect_ok "run" (Server.Client.run c ~dataset:"d1" ~seed:42 ~jobs:soak_jobs ()) in
      (match Option.bind (Obs.Json.member "results" run1) Obs.Json.to_list with
      | Some rs -> check_int "both jobs answered" 2 (List.length rs)
      | None -> Alcotest.fail "run reply has results");
      let ledger = expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1") in
      check_true "ledger names the dataset"
        (Obs.Json.member "dataset" ledger = Some (Obs.Json.String "d1"));
      let metrics = expect_ok "metrics" (Server.Client.metrics c) in
      check_true "metrics exposes budget" (contains_sub metrics "privcluster_budget_epsilon");
      check_true "metrics exposes daemon gauges" (contains_sub metrics "privclusterd_queue_depth");
      let ds = expect_ok "datasets" (Server.Client.For_testing.datasets c) in
      (match Option.bind (Obs.Json.member "datasets" ds) Obs.Json.to_list with
      | Some l -> check_int "one dataset" 1 (List.length l)
      | None -> Alcotest.fail "datasets reply");
      Server.Client.close c)

(* The crash-recovery property, end to end: journal a session, "crash"
   (drop the daemon without settling, leave the WAL with a torn tail),
   restart on the same WAL, re-register — the replayed ledger must equal
   the pre-crash ledger and an over-budget job must still be refused. *)
let test_daemon_crash_recovery () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let spent_before = ref Obs.Json.Null in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:1.0 ~delta:1e-5) ()));
      (* spend close to the 1.0 budget: 0.3+0.1, then 0.3+0.1 again *)
      ignore (expect_ok "run1" (Server.Client.run c ~dataset:"d1" ~seed:1 ~jobs:soak_jobs ()));
      ignore (expect_ok "run2" (Server.Client.run c ~dataset:"d1" ~seed:2 ~jobs:soak_jobs ()));
      let ledger = expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1") in
      spent_before :=
        Option.value ~default:Obs.Json.Null
          (Option.bind (Obs.Json.member "ledger" ledger) (Obs.Json.member "spent"));
      Server.Client.close c);
  (* simulate the crash window: a torn half-frame at the tail *)
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600 cfg.Server.Daemon.wal_path
    (fun oc -> Out_channel.output_string oc "PW1 000000");
  with_daemon cfg (fun _d ->
      let c = expect_ok "reconnect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      (* wrong budget on re-register is refused — the journal pins it *)
      (match
         Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
           ~budget:(p ~eps:9.0 ~delta:1e-5) ()
       with
      | Error (`Server e) -> check_true "budget mismatch conflicts" (e.Wire.code = Wire.Conflict)
      | _ -> Alcotest.fail "journal must pin the budget");
      (* so are different synthesis parameters — replaying this ledger's
         mutations and cached results against a different base dataset
         would diverge silently *)
      (match
         Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:4
           ~budget:(p ~eps:1.0 ~delta:1e-5) ()
       with
      | Error (`Server e) ->
          check_true "synth mismatch conflicts" (e.Wire.code = Wire.Conflict);
          check_true "conflict names the journaled parameters"
            (contains_sub e.Wire.message "seed=3")
      | _ -> Alcotest.fail "journal must pin the synthesis parameters");
      let reg =
        expect_ok "re-register"
          (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
             ~budget:(p ~eps:1.0 ~delta:1e-5) ())
      in
      check_true "recovered by replay" (Obs.Json.member "replayed" reg = Some (Obs.Json.Bool true));
      let ledger = expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1") in
      let spent_after =
        Option.value ~default:Obs.Json.Null
          (Option.bind (Obs.Json.member "ledger" ledger) (Obs.Json.member "spent"))
      in
      check_true "spend survived the crash exactly" (!spent_before = spent_after && spent_after <> Obs.Json.Null);
      (* budget is nearly exhausted (0.8 of 1.0 spent): the next batch's
         one_cluster (0.3) must be refused, and refusal is free *)
      let run3 = expect_ok "run3" (Server.Client.run c ~dataset:"d1" ~seed:3 ~jobs:soak_jobs ()) in
      (match Option.bind (Obs.Json.member "results" run3) Obs.Json.to_list with
      | Some [ r1; r2 ] ->
          check_true "over-budget job still refused after recovery"
            (Option.bind (Obs.Json.member "status" r1) Obs.Json.to_str = Some "refused");
          check_true "affordable job still runs"
            (Option.bind (Obs.Json.member "status" r2) Obs.Json.to_str = Some "ok")
      | _ -> Alcotest.fail "run3 results");
      Server.Client.close c);
  ()

let get_int k j = Option.bind (Obs.Json.member k j) Obs.Json.to_int

let attempts_of payload =
  match Option.bind (Obs.Json.member "results" payload) Obs.Json.to_list with
  | None -> Alcotest.fail "results missing"
  | Some rs -> List.map (fun r -> Option.value ~default:(-1) (get_int "attempts" r)) rs

let spent_eps_of ledger =
  match
    Option.bind (Obs.Json.member "ledger" ledger) (fun l ->
        Option.bind (Obs.Json.member "spent" l) (fun s ->
            Option.bind (Obs.Json.member "eps" s) Obs.Json.to_float))
  with
  | Some e -> e
  | None -> Alcotest.fail "ledger.spent.eps missing"

(* Epochs and the result cache across a crash: the WAL must replay the
   dataset to the same epoch, the same cached answers (a warm re-run is
   still attempts=0 and charges nothing), and the same spend. *)
let cache_jobs = "one_cluster t_fraction=0.45 eps=2.0 delta=1e-7\nquantile q=0.5 axis=0 eps=0.1\n"

let test_daemon_epoch_crash_recovery () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let spent_before = ref nan in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:6.0 ~delta:1e-4) ()));
      ignore (expect_ok "cold" (Server.Client.run c ~dataset:"d1" ~seed:2 ~jobs:cache_jobs ()));
      let spent1 = spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")) in
      let warm = expect_ok "warm" (Server.Client.run c ~dataset:"d1" ~seed:2 ~jobs:cache_jobs ()) in
      check_true "identical re-run is all cache hits" (attempts_of warm = [ 0; 0 ]);
      check_float ~tol:0. "cache hits charged nothing" spent1
        (spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")));
      let app = expect_ok "append" (Server.Client.append c ~dataset:"d1" ~n:100 ~seed:7 ()) in
      check_true "append advances the epoch" (get_int "epoch" app = Some 1);
      check_true "append grows n" (get_int "n" app = Some 500);
      let re = expect_ok "requery" (Server.Client.run c ~dataset:"d1" ~seed:2 ~jobs:cache_jobs ()) in
      check_true "new epoch recomputes" (List.for_all (fun a -> a >= 1) (attempts_of re));
      let ep = expect_ok "epoch" (Server.Client.epoch c ~dataset:"d1") in
      check_true "epoch verb reports the transition"
        (get_int "epoch" ep = Some 1 && get_int "n" ep = Some 500);
      (match Obs.Json.member "result_cache" ep with
      | Some rc -> check_true "epoch verb reports the cache hits" (get_int "hits" rc = Some 2)
      | None -> Alcotest.fail "epoch reply lacks result_cache");
      (match ep with
      | Obs.Json.Obj kvs ->
          Alcotest.(check (list string))
            "epoch reply fields"
            [ "dataset"; "dim"; "epoch"; "id"; "index_backend"; "n"; "ok"; "result_cache" ]
            (List.sort compare (List.map fst kvs))
      | _ -> Alcotest.fail "epoch reply is not an object");
      spent_before :=
        spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1"));
      Server.Client.close c);
  (* crash window: a torn half-frame at the WAL tail *)
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600 cfg.Server.Daemon.wal_path
    (fun oc -> Out_channel.output_string oc "PW1 000000");
  with_daemon cfg (fun _d ->
      let c = expect_ok "reconnect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      let reg =
        expect_ok "re-register"
          (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
             ~budget:(p ~eps:6.0 ~delta:1e-4) ())
      in
      check_true "recovered by replay" (Obs.Json.member "replayed" reg = Some (Obs.Json.Bool true));
      let ep = expect_ok "epoch" (Server.Client.epoch c ~dataset:"d1") in
      check_true "replayed to the same epoch"
        (get_int "epoch" ep = Some 1 && get_int "n" ep = Some 500);
      check_float ~tol:0. "spend survived exactly" !spent_before
        (spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")));
      (* The replayed cache serves the post-append answers: still free. *)
      let warm = expect_ok "warm" (Server.Client.run c ~dataset:"d1" ~seed:2 ~jobs:cache_jobs ()) in
      check_true "cached answers survived the crash" (attempts_of warm = [ 0; 0 ]);
      check_float ~tol:0. "and still charge nothing" !spent_before
        (spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")));
      Server.Client.close c);
  ()

(* A journal written by an older build keys answers the library no longer
   computes: one from before [Job.signature] carried its answers' version,
   or one at version 2 (cells in hash-table order).  Its [cached] records
   still replay, but the same request afterwards misses the cache, is
   recomputed and is charged.  A version-3 journal whose cluster answers
   still carry the exact counts and ratio that replies no longer serve
   ([covered], [ratio_vs_hi]) keys the same answers: the request is a free
   hit, its output drops both fields and keeps the recorded ball. *)
let test_daemon_old_signature_recomputes () =
  let strip_version sg =
    let key = " version=" in
    let rec find i =
      if i + String.length key > String.length sg then Alcotest.failf "no version in %S" sg
      else if String.sub sg i (String.length key) = key then i
      else find (i + 1)
    in
    String.sub sg 0 (find 0)
  in
  let spent c = spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")) in
  let restart_over ~label rewrite after =
    let dir = temp_dir () in
    let cfg = daemon_cfg ~dir () in
    let register c =
      expect_ok "register"
        (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
           ~budget:(p ~eps:6.0 ~delta:1e-4) ())
    in
    let spent_cold = ref nan in
    with_daemon cfg (fun _d ->
        let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
        ignore (register c);
        ignore (expect_ok "cold" (Server.Client.run c ~dataset:"d1" ~seed:2 ~jobs:cache_jobs ()));
        spent_cold := spent c;
        Server.Client.close c);
    (* Rewrite the journal as the older build wrote it: every cached
       record's signature and output through [rewrite]. *)
    let path = cfg.Server.Daemon.wal_path in
    let records =
      match Wal.load path with Ok (records, _) -> records | Error e -> Alcotest.failf "load: %s" e
    in
    let rewritten = ref 0 in
    let old =
      List.map
        (fun (r : Wal.record) ->
          match r.op with
          | Wal.Cached c ->
              incr rewritten;
              let signature, output = rewrite (c.signature, c.output) in
              { r with op = Wal.Cached { c with signature; output } }
          | _ -> r)
        records
    in
    check_int (label ^ ": both answers were journaled") 2 !rewritten;
    Sys.remove path;
    write_wal path old;
    with_daemon cfg (fun _d ->
        let c = expect_ok "reconnect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
        check_true (label ^ ": the old journal replays")
          (Obs.Json.member "replayed" (register c) = Some (Obs.Json.Bool true));
        check_float ~tol:0. (label ^ ": spend replayed exactly") !spent_cold (spent c);
        let again = expect_ok "again" (Server.Client.run c ~dataset:"d1" ~seed:2 ~jobs:cache_jobs ()) in
        after c ~spent:!spent_cold again;
        Server.Client.close c)
  in
  let recomputes ~label rewrite =
    restart_over ~label
      (fun (sg, output) -> (rewrite sg, output))
      (fun c ~spent:cold again ->
        check_true (label ^ ": the same request is recomputed")
          (List.for_all (fun a -> a >= 1) (attempts_of again));
        check_true (label ^ ": and charged") (spent c > cold))
  in
  recomputes ~label:"unversioned" strip_version;
  recomputes ~label:"version 2" (fun sg -> strip_version sg ^ " version=2");
  (* The cluster answer as a build that still served the counts journaled
     it, beside the record this build wrote. *)
  let recorded = ref [] in
  let with_old_fields (sg, output) =
    let old =
      match output with
      | Obs.Json.Obj kvs when Obs.Json.member "kind" output = Some (Obs.Json.String "cluster") ->
          let old =
            Obs.Json.Obj
              (List.concat_map
                 (fun (k, v) ->
                   match (k, v) with
                   | "ball", Obs.Json.Obj b ->
                       [ (k, Obs.Json.Obj (b @ [ ("covered", Obs.Json.Int 171) ])) ]
                   | "t", _ -> [ (k, v); ("ratio_vs_hi", Obs.Json.String (Printf.sprintf "%h" 1.25)) ]
                   | _ -> [ (k, v) ])
                 kvs)
          in
          recorded := (output, old) :: !recorded;
          old
      | _ -> output
    in
    (sg, old)
  in
  restart_over ~label:"version 3 with counts" with_old_fields (fun c ~spent:cold again ->
      check_true "version 3 with counts: a free hit" (attempts_of again = [ 0; 0 ]);
      check_float ~tol:0. "version 3 with counts: charged nothing" cold (spent c);
      let wire, old =
        match !recorded with [ r ] -> r | _ -> Alcotest.fail "one cluster answer journaled"
      in
      let ball =
        match Engine.Job.output_of_wire old with
        | Ok (Engine.Job.Cluster { ball; _ } as o) ->
            Alcotest.(check string)
              "version 3 with counts: the old record decodes to the recorded bits"
              (Obs.Json.to_string wire)
              (Obs.Json.to_string (Engine.Job.output_to_wire o));
            ball
        | _ -> Alcotest.fail "journaled cluster answer does not decode"
      in
      let output =
        match Option.bind (Obs.Json.member "results" again) Obs.Json.to_list with
        | Some (r :: _) -> Option.get (Obs.Json.member "output" r)
        | _ -> Alcotest.fail "results missing"
      in
      let reply_ball = Option.get (Obs.Json.member "ball" output) in
      check_true "version 3 with counts: no ratio_vs_hi" (Obs.Json.member "ratio_vs_hi" output = None);
      check_true "version 3 with counts: no covered" (Obs.Json.member "covered" reply_ball = None);
      (* The reply prints floats to 12 digits: the recorded bits, so printed. *)
      let printed x = float_of_string (Printf.sprintf "%.12g" x) in
      check_true "version 3 with counts: the recorded radius"
        (Option.bind (Obs.Json.member "radius" reply_ball) Obs.Json.to_float
        = Some (printed ball.Engine.Job.radius));
      check_true "version 3 with counts: the recorded center"
        (Option.map (List.map Obs.Json.to_float)
           (Option.bind (Obs.Json.member "center" reply_ball) Obs.Json.to_list)
        = Some (List.map (fun x -> Some (printed x)) (Array.to_list ball.Engine.Job.center))))

(* A [run] reply carries its batch's results and the ledger's spent and
   remaining, never the ledger's history: one fixed request (a cache hit,
   so free) answers with the same bytes after K and after 2K charged
   requests, once its request id, latencies and the two balance values
   are set aside. *)
let test_daemon_reply_size_independent_of_history () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let rec steady = function
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.filter_map
             (fun (k, v) ->
               match k with
               | "latency_ms" -> Some (k, Obs.Json.Float 0.)
               | "spent" | "remaining" -> None
               | _ -> Some (k, steady v))
             kvs)
    | Obs.Json.List l -> Obs.Json.List (List.map steady l)
    | v -> v
  in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:50.0 ~delta:1e-4) ()));
      let fixed () = expect_ok "fixed" (Server.Client.run c ~dataset:"d1" ~seed:2 ~jobs:cache_jobs ()) in
      ignore (fixed ());
      let charged = ref 0 in
      let charge_until k =
        while !charged < k do
          incr charged;
          let r =
            expect_ok "charged"
              (Server.Client.run c ~dataset:"d1" ~seed:(100 + !charged)
                 ~jobs:"quantile q=0.5 axis=0 eps=0.1\n" ())
          in
          check_true "a charged request is computed"
            (List.for_all (fun a -> a >= 1) (attempts_of r))
        done
      in
      let k = 6 in
      charge_until k;
      let after_k = fixed () in
      charge_until (2 * k);
      let after_2k = fixed () in
      check_true "the fixed request is a free cache hit" (attempts_of after_2k = [ 0; 0 ]);
      List.iter
        (fun field ->
          check_true (field ^ " present") (Obs.Json.member field after_2k <> None))
        [ "epoch"; "n"; "spent"; "remaining" ];
      let bytes reply =
        match steady reply with
        | Obs.Json.Obj kvs -> Obs.Json.to_string ~indent:false (Obs.Json.Obj (List.remove_assoc "id" kvs))
        | _ -> Alcotest.fail "reply is not an object"
      in
      Alcotest.(check string) "reply bytes after K and 2K charged requests" (bytes after_k) (bytes after_2k);
      Server.Client.close c)

(* A [register] that replays a journal, and a [datasets] reply, carry the
   ledger's balance, never its history: after a restart that replays K
   charges and one that replays 2K, both replies have the same length in
   bytes once [replayed_ops] and the request id are set aside.  Each charge costs
   ε = 0.25 of a budget of 8, so the spent and remaining values (1 and 7,
   then 2 and 6) render at the same length. *)
let test_daemon_register_reply_independent_of_history () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let k = 4 in
  let charged = ref 0 in
  let session () =
    with_daemon cfg (fun _d ->
        let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
        let reg =
          expect_ok "register"
            (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
               ~budget:(p ~eps:8.0 ~delta:1e-4) ())
        in
        let listed = expect_ok "datasets" (Server.Client.For_testing.datasets c) in
        let target = !charged + k in
        while !charged < target do
          incr charged;
          ignore
            (expect_ok "charged"
               (Server.Client.run c ~dataset:"d1" ~seed:(100 + !charged)
                  ~jobs:"quantile q=0.5 axis=0 eps=0.25\n" ()))
        done;
        Server.Client.close c;
        (reg, listed))
  in
  let bytes reply =
    match reply with
    | Obs.Json.Obj kvs ->
        Obs.Json.to_string ~indent:false
          (Obs.Json.Obj (List.remove_assoc "id" (List.remove_assoc "replayed_ops" kvs)))
    | _ -> Alcotest.fail "reply is not an object"
  in
  ignore (session ());
  let reg_k, listed_k = session () in
  let reg_2k, listed_2k = session () in
  check_true "the register replays the journal"
    (Obs.Json.member "replayed" reg_2k = Some (Obs.Json.Bool true));
  Alcotest.(check int) "register bytes after replaying K and 2K charges"
    (String.length (bytes reg_k)) (String.length (bytes reg_2k));
  Alcotest.(check int) "datasets bytes after K and 2K charges"
    (String.length (bytes listed_k)) (String.length (bytes listed_2k))

(* A journal written before [Job.parse] checked [t_fraction] may hold a
   standing query registered at a value now rejected.  Its line no longer
   parses, so the query is not re-armed, but the journal still replays:
   the ledger comes back exactly, the query's held slices stay
   outstanding (an operator settles them), and later epochs tick no
   query. *)
let test_daemon_replays_rejected_standing_line () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let register c =
    expect_ok "register"
      (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
         ~budget:(p ~eps:4.0 ~delta:1e-4) ())
  in
  let spent_before = ref nan in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore (register c);
      ignore
        (expect_ok "standing"
           (Server.Client.standing c ~dataset:"d1" ~id:"sq" ~t_fraction:0.45 ~eps:1.5
              ~delta:3e-7 ~periods:3 ~seed:9 ()));
      spent_before := spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1"));
      Server.Client.close c);
  let path = cfg.Server.Daemon.wal_path in
  let records =
    match Wal.load path with Ok (records, _) -> records | Error e -> Alcotest.failf "load: %s" e
  in
  let out_of_range line =
    String.split_on_char ' ' line
    |> List.map (fun tok ->
           if String.starts_with ~prefix:"t_fraction=" tok then "t_fraction=0x1p+1" else tok)
    |> String.concat " "
  in
  let rewritten = ref 0 in
  let old =
    List.map
      (fun (r : Wal.record) ->
        match r.op with
        | Wal.Standing st ->
            incr rewritten;
            { r with op = Wal.Standing { st with line = out_of_range st.line } }
        | _ -> r)
      records
  in
  check_int "the standing query was journaled" 1 !rewritten;
  Sys.remove path;
  write_wal path old;
  with_daemon cfg (fun _d ->
      let c = expect_ok "reconnect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      check_true "the old journal replays"
        (Obs.Json.member "replayed" (register c) = Some (Obs.Json.Bool true));
      check_float ~tol:0. "spend replayed exactly" !spent_before
        (spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")));
      let app = expect_ok "append" (Server.Client.append c ~dataset:"d1" ~n:100 ~seed:7 ()) in
      let ticks =
        match Option.bind (Obs.Json.member "results" app) Obs.Json.to_list with
        | None -> []
        | Some rs ->
            List.filter
              (fun r ->
                match Option.bind (Obs.Json.member "id" r) Obs.Json.to_str with
                | Some id -> String.starts_with ~prefix:"sq#" id
                | None -> false)
              rs
      in
      check_int "the rejected query is not re-armed" 0 (List.length ticks);
      let release =
        expect_ok "settle release"
          (Server.Client.settle c ~dataset:"d1" ~action:Wire.Release_orphans ())
      in
      check_true "its held slices replayed as outstanding"
        (List.map (fun (s : Wire.settled_reservation) -> s.Wire.label) release.Wire.settled
        = [ "sq#2"; "sq#3" ]);
      check_float ~tol:0. "and releasing them moves nothing" !spent_before
        (spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")));
      Server.Client.close c)

(* Operator settlement of outstanding reservations, end to end: a standing
   query's pending slices are visible, committable one by one (by label)
   and releasable in bulk, with the ledger moving only on commit. *)
let test_daemon_settle () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:4.0 ~delta:1e-4) ()));
      let st =
        expect_ok "standing"
          (Server.Client.standing c ~dataset:"d1" ~id:"sq" ~t_fraction:0.45 ~eps:1.5
             ~delta:3e-7 ~periods:3 ~seed:9 ())
      in
      (match Option.bind (Obs.Json.member "results" st) Obs.Json.to_list with
      | Some rs -> check_int "acceptance plus first tick" 2 (List.length rs)
      | None -> Alcotest.fail "standing reply has results");
      check_float ~tol:1e-12 "tick 1 committed one slice" 0.5
        (spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")));
      let commit =
        expect_ok "settle commit"
          (Server.Client.settle c ~dataset:"d1" ~action:Wire.Commit_orphans ~label:"sq#2" ())
      in
      check_true "commit settles exactly the labelled slice"
        (List.map (fun (s : Wire.settled_reservation) -> s.Wire.label) commit.Wire.settled
        = [ "sq#2" ]);
      check_int "one orphan remains" 1 commit.Wire.remaining;
      check_float ~tol:1e-12 "commit moved the ledger" 1.0
        (spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")));
      let release =
        expect_ok "settle release"
          (Server.Client.settle c ~dataset:"d1" ~action:Wire.Release_orphans ())
      in
      check_true "release settles the rest"
        (List.map (fun (s : Wire.settled_reservation) -> s.Wire.label) release.Wire.settled
        = [ "sq#3" ]);
      check_int "nothing remains" 0 release.Wire.remaining;
      check_float ~tol:1e-12 "release moved nothing" 1.0
        (spent_eps_of (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")));
      let again =
        expect_ok "settle idempotent"
          (Server.Client.settle c ~dataset:"d1" ~action:Wire.Release_orphans ())
      in
      check_true "nothing left to settle" (again.Wire.settled = [] && again.Wire.remaining = 0);
      Server.Client.close c);
  ()

(* Every ledger operation leaves exactly one [cat="budget"] span, named and
   labelled like the accountant event it mirrors and carrying that event's
   exact cost (a release carries none): live in a batch, on an operator
   settle, and again on the journal replay after a restart.  The expected
   stream is recorded by a listener on a fresh accountant that the
   daemon's journal is replayed into — replay re-runs the journaled
   operations through the same accountant API, so it re-emits the live
   event stream one for one. *)
let budget_line name label charge =
  match charge with
  | None -> Printf.sprintf "%s %s" name label
  | Some (eps, delta, rho) -> Printf.sprintf "%s %s eps=%h delta=%h rho=%h" name label eps delta rho

let event_line ev =
  let costed name label (c : Prim.Dp.params) =
    budget_line name label (Some (c.Prim.Dp.eps, c.Prim.Dp.delta, 0.))
  in
  match ev with
  | Acct.Charged { label; cost } -> costed "charge" label cost
  | Acct.Refused { label; cost; _ } -> costed "refuse" label cost
  | Acct.Reserved { label; cost; _ } -> costed "reserve" label cost
  | Acct.Committed { label; cost; _ } -> costed "commit" label cost
  | Acct.Released { label; _ } -> budget_line "release" label None

let span_line (sp : Obs.Span.span) =
  budget_line sp.Obs.Span.name
    (Option.value ~default:"-" sp.Obs.Span.label)
    (Option.map
       (fun (c : Obs.Span.charge) -> (c.Obs.Span.eps, c.Obs.Span.delta, c.Obs.Span.rho))
       sp.Obs.Span.span_charge)

let mirror_jobs =
  String.concat "\n"
    [
      "one_cluster t_fraction=0.45 eps=0.4 delta=1e-7 id=a";
      "one_cluster t_fraction=0.45 eps=50 delta=1e-7 id=greedy";
      "one_cluster t_fraction=0.45 eps=0.4 delta=1e-7 fallback=true deadline=0 id=slow";
      "one_cluster t_fraction=0.45 eps=1.0 delta=1e-7 fallback=true id=fine";
      "standing t_fraction=0.45 eps=0.8 delta=4e-7 periods=4 id=sq";
      "mutate op=append n=100 seed=7 id=grow";
      (* 2.8 of the 4.0 is spent or held by now: the first 1.0 slice fits,
         the second does not. *)
      "standing t_fraction=0.45 eps=3.0 delta=3e-7 periods=3 id=big";
    ]

let test_daemon_budget_spans_mirror_accountant () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let register c =
    expect_ok "register"
      (Server.Client.register c ~dataset:"d1" ~n:1500 ~axis:256 ~radius:0.05 ~seed:3
         ~budget:(p ~eps:4.0 ~delta:1e-4) ())
  in
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
  @@ fun () ->
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore (register c);
      ignore (expect_ok "run" (Server.Client.run c ~dataset:"d1" ~jobs:mirror_jobs ()));
      ignore
        (expect_ok "settle commit"
           (Server.Client.settle c ~dataset:"d1" ~action:Wire.Commit_orphans ~label:"sq#3" ()));
      ignore
        (expect_ok "settle release"
           (Server.Client.settle c ~dataset:"d1" ~action:Wire.Release_orphans ()));
      Server.Client.close c);
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      check_true "re-registration replayed the journal"
        (Obs.Json.member "replayed" (register c) = Some (Obs.Json.Bool true));
      Server.Client.close c);
  let spans =
    List.filter_map
      (fun (sp : Obs.Span.span) ->
        if sp.Obs.Span.cat = "budget" then Some (span_line sp) else None)
      (Obs.Span.spans ())
  in
  let recorded =
    match Wal.load cfg.Server.Daemon.wal_path with
    | Error e -> Alcotest.failf "load: %s" e
    | Ok (records, _) -> (
        let ops = List.assoc ("acme", "d1") (Wal.histories records) in
        match Wal.opening ops with
        | None -> Alcotest.fail "journal has no open record"
        | Some (mode, budget, _) -> (
            let acct = Acct.create ~mode ~budget () in
            let events = ref [] in
            Acct.subscribe acct (fun ev -> events := event_line ev :: !events);
            match Wal.replay ops acct with
            | Ok _ -> List.rev !events
            | Error e -> Alcotest.failf "replay: %s" e))
  in
  List.iter
    (fun op ->
      check_true ("the run exercised " ^ op)
        (List.exists (fun l -> String.starts_with ~prefix:(op ^ " ") (l ^ " ")) recorded))
    [
      "charge a"; "refuse greedy"; "reserve slow:fallback"; "commit slow:fallback";
      "release fine:fallback"; "commit sq#2"; "commit sq#3"; "release sq#4"; "refuse big#2";
      "release big#1";
    ];
  Alcotest.(check (list string)) "live, settle and replay spans = accountant events"
    (recorded @ recorded) spans

(* A standing query's registration line is journaled and re-parsed on
   restart, so it must carry its parameters exactly: a tick answered after
   the restart runs at the same per-slice (eps, delta) and target size as
   the ticks before it — the slices the ledger reserved. *)
let test_daemon_standing_survives_restart_exactly () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let register c =
    expect_ok "register"
      (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
         ~budget:(p ~eps:4.0 ~delta:1e-4) ())
  in
  let ticks payload =
    match Option.bind (Obs.Json.member "results" payload) Obs.Json.to_list with
    | None -> Alcotest.fail "results missing"
    | Some rs ->
        List.filter_map
          (fun r ->
            match Option.bind (Obs.Json.member "id" r) Obs.Json.to_str with
            | Some id when String.length id > 3 && String.sub id 0 3 = "sq#" ->
                Some
                  ( Obs.Json.member "eps" r,
                    Obs.Json.member "delta" r,
                    Option.bind (Obs.Json.member "output" r) (Obs.Json.member "t") )
            | _ -> None)
          rs
  in
  let append c = ticks (expect_ok "append" (Server.Client.append c ~dataset:"d1" ~n:100 ~seed:7 ())) in
  let before =
    with_daemon cfg (fun _d ->
        let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
        ignore (register c);
        let first =
          ticks
            (expect_ok "standing"
               (Server.Client.standing c ~dataset:"d1" ~id:"sq" ~t_fraction:(1. /. 3.)
                  ~eps:0.1234567 ~delta:3e-7 ~periods:3 ~seed:9 ()))
        in
        let second = append c in
        Server.Client.close c;
        first @ second)
  in
  check_int "two ticks before the restart" 2 (List.length before);
  with_daemon cfg (fun _d ->
      let c = expect_ok "reconnect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      check_true "recovered by replay" (Obs.Json.member "replayed" (register c) = Some (Obs.Json.Bool true));
      (match append c with
      | [ (eps, delta, t) ] ->
          List.iter
            (fun (eps', delta', t') ->
              check_true "post-restart tick runs at the reserved eps" (eps = eps');
              check_true "post-restart tick runs at the reserved delta" (delta = delta');
              (* [t] is reported only by a tick that completed *)
              check_true "post-restart tick targets the same t"
                (t = None || t' = None || t = t'))
            before
      | ticks -> Alcotest.failf "expected one post-restart tick, got %d" (List.length ticks));
      Server.Client.close c)

(* A standing query travels as a [standing] job line of a [run]: the client
   vets the spec before rendering it, and the daemon vets the line again
   in [Job.parse].  Each bad query below gets bad_request on either path
   and leaves the ledger and the WAL as they were.  (A negative eps used
   to reserve and commit a negative slice, lowering the spend.)  A query
   whose id passes is journaled, re-armed after a restart, and ticks on
   the next append. *)
let test_daemon_standing_validation () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let register c =
    expect_ok "register"
      (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
         ~budget:(p ~eps:4.0 ~delta:1e-4) ())
  in
  let journal () = In_channel.with_open_bin cfg.Server.Daemon.wal_path In_channel.input_all in
  let standing c ?(id = "sq") ?(eps = 1.0) ?(delta = 1e-6) ?(periods = 2) () =
    Server.Client.standing c ~dataset:"d1" ~id ~t_fraction:0.45 ~eps ~delta ~periods ()
  in
  let id = "sq-1.a" in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore (register c);
      ignore
        (expect_ok "run"
           (Server.Client.run c ~dataset:"d1" ~jobs:"quantile q=0.5 axis=0 eps=1" ()));
      let ledger () = Obs.Json.member "ledger" (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")) in
      let before = ledger () and wal = journal () in
      let expect_bad what attempt =
        match attempt with
        | Error (`Server e) ->
            check_true (what ^ " is bad_request") (e.Wire.code = Wire.Bad_request)
        | Ok _ -> Alcotest.failf "%s must be rejected" what
        | Error (`Transport m) -> Alcotest.failf "%s: transport: %s" what m
      in
      expect_bad "eps -2" (standing c ~eps:(-2.) ~periods:1 ());
      expect_bad "eps 0" (standing c ~eps:0. ());
      expect_bad "eps nan" (standing c ~eps:Float.nan ());
      expect_bad "delta 1" (standing c ~delta:1. ());
      expect_bad "periods 0" (standing c ~periods:0 ());
      expect_bad "id with a space" (standing c ~id:"a b" ());
      expect_bad "id with a newline" (standing c ~id:"a\nmutate op=retire from=0 count=9" ());
      List.iter
        (fun args ->
          let line = "standing t_fraction=0.45 id=sq " ^ args in
          expect_bad line (Server.Client.run c ~dataset:"d1" ~jobs:line ()))
        [
          "eps=-2 delta=1e-6 periods=1";
          "eps=0 delta=1e-6 periods=2";
          "eps=nan delta=1e-6 periods=2";
          "eps=1 delta=1 periods=2";
          "eps=1 delta=1e-6 periods=0";
          "eps=1 delta=1e-6 periods=2 beta";
        ];
      check_true "ledger unchanged" (ledger () = before);
      check_true "nothing journaled" (journal () = wal);
      ignore (expect_ok "valid standing" (standing c ~id ()));
      Server.Client.close c);
  with_daemon cfg (fun _d ->
      let c = expect_ok "reconnect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      check_true "recovered by replay"
        (Obs.Json.member "replayed" (register c) = Some (Obs.Json.Bool true));
      let app = expect_ok "append" (Server.Client.append c ~dataset:"d1" ~n:100 ~seed:7 ()) in
      let ids =
        match Option.bind (Obs.Json.member "results" app) Obs.Json.to_list with
        | None -> []
        | Some rs -> List.filter_map (fun r -> Option.bind (Obs.Json.member "id" r) Obs.Json.to_str) rs
      in
      check_true "the re-armed query ticks on the next append" (List.mem (id ^ "#2") ids);
      Server.Client.close c)

(* Malformed registration parameters must come back as bad_request — not
   raise on the executor thread, which would strand the connection in its
   reply wait and deadlock [stop] on the join (the daemon stopping cleanly
   inside [with_daemon] is part of the property). *)
let test_daemon_register_validation () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      let expect_bad what attempt =
        match attempt with
        | Error (`Server e) ->
            check_true (what ^ " is bad_request") (e.Wire.code = Wire.Bad_request)
        | Ok _ -> Alcotest.failf "%s must be rejected" what
        | Error (`Transport m) -> Alcotest.failf "%s: transport: %s" what m
      in
      let budget = p ~eps:2.0 ~delta:1e-5 in
      expect_bad "dim 0" (Server.Client.register c ~dataset:"v" ~dim:0 ~budget ());
      expect_bad "negative n" (Server.Client.register c ~dataset:"v" ~n:(-1) ~budget ());
      expect_bad "axis 1" (Server.Client.register c ~dataset:"v" ~axis:1 ~budget ());
      expect_bad "frac 0" (Server.Client.register c ~dataset:"v" ~frac:0.0 ~budget ());
      expect_bad "frac nan" (Server.Client.register c ~dataset:"v" ~frac:nan ~budget ());
      expect_bad "radius nan" (Server.Client.register c ~dataset:"v" ~radius:nan ~budget ());
      expect_bad "standing t_fraction 2"
        (Server.Client.standing c ~dataset:"v" ~id:"sq" ~t_fraction:2. ~eps:1. ~delta:1e-7
           ~periods:2 ());
      (* the daemon is still serving: same connection, and a clean register *)
      ignore (expect_ok "ping after rejects" (Server.Client.For_testing.ping c));
      ignore
        (expect_ok "valid register still works"
           (Server.Client.register c ~dataset:"v" ~n:200 ~axis:128 ~radius:0.06 ~seed:3
              ~budget ()));
      Server.Client.close c);
  ()

(* An append's synthesis parameters are range-checked like a
   registration's ([Job.synth_params_error]): each bad append below gets
   bad_request, and the epoch, the ledger and the WAL stay as they were.
   (A frac of 5 or a radius of -1 used to grow the dataset, and a frac of
   -1 was admitted and then failed in the synthesis.)  A valid append
   still publishes the next epoch. *)
let test_daemon_append_validation () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let journal () = In_channel.with_open_bin cfg.Server.Daemon.wal_path In_channel.input_all in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:4.0 ~delta:1e-4) ()));
      let epoch () =
        Obs.Json.member "epoch" (expect_ok "epoch" (Server.Client.epoch c ~dataset:"d1"))
      in
      let ledger () = Obs.Json.member "ledger" (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")) in
      let before = (epoch (), ledger ()) and wal = journal () in
      let append ?frac ?radius () = Server.Client.append c ~dataset:"d1" ~n:50 ~seed:7 ?frac ?radius () in
      let expect_bad what attempt =
        match attempt with
        | Error (`Server e) ->
            check_true (what ^ " is bad_request") (e.Wire.code = Wire.Bad_request)
        | Ok _ -> Alcotest.failf "%s must be rejected" what
        | Error (`Transport m) -> Alcotest.failf "%s: transport: %s" what m
      in
      expect_bad "frac 5" (append ~frac:5. ());
      expect_bad "frac -1" (append ~frac:(-1.) ());
      expect_bad "frac 0" (append ~frac:0. ());
      expect_bad "frac nan" (append ~frac:nan ());
      expect_bad "radius -1" (append ~radius:(-1.) ());
      expect_bad "radius inf" (append ~radius:infinity ());
      expect_bad "radius nan" (append ~radius:nan ());
      (* The client refuses those before sending; the daemon refuses the
         same job lines in a [run], where [Job.parse] vets them. *)
      List.iter
        (fun line -> expect_bad line (Server.Client.run c ~dataset:"d1" ~jobs:line ()))
        [
          "mutate op=append n=50 seed=7 frac=5";
          "mutate op=append n=50 seed=7 frac=-1";
          "mutate op=append n=50 seed=7 frac=0";
          "mutate op=append n=50 seed=7 frac=nan";
          "mutate op=append n=50 seed=7 radius=-1";
          "mutate op=append n=50 seed=7 radius=inf";
          "mutate op=append n=50 seed=7 radius=nan";
          "mutate op=append n=0 seed=7";
          "mutate op=retire from=-1 count=5";
          "mutate op=retire from=0 count=0";
        ];
      check_true "epoch and ledger unchanged" ((epoch (), ledger ()) = before);
      check_true "nothing journaled" (journal () = wal);
      ignore (expect_ok "valid append" (append ~frac:1. ~radius:0. ()));
      check_true "a valid append publishes the next epoch" (epoch () <> fst before);
      Server.Client.close c)

(* A request line longer than the cap — here, bytes with no newline at
   all, sent without authenticating — must get one bad_request reply and
   a closed connection, never an unbounded buffer; the daemon keeps
   serving other clients. *)
let test_daemon_request_line_cap () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  with_daemon cfg (fun _d ->
      let path =
        match cfg.Server.Daemon.listen with `Unix p -> p | `Tcp _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let junk = Bytes.make 65536 'x' in
      let to_send = Server.Daemon.For_testing.max_request_bytes + 8192 in
      (try
         let sent = ref 0 in
         while !sent < to_send do
           let k = min (Bytes.length junk) (to_send - !sent) in
           sent := !sent + Unix.write fd junk 0 k
         done
       with Unix.Unix_error (_, _, _) -> ());
      let reply = Buffer.create 256 in
      let buf = Bytes.create 4096 in
      (try
         let rec drain () =
           match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> ()
           | n ->
               Buffer.add_subbytes reply buf 0 n;
               drain ()
         in
         drain ()
       with Unix.Unix_error (_, _, _) -> ());
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      check_true "oversized line answered with bad_request"
        (contains_sub (Buffer.contents reply) "bad_request");
      check_true "reply names the cap"
        (contains_sub (Buffer.contents reply)
           (string_of_int Server.Daemon.For_testing.max_request_bytes));
      (* the daemon survived: a well-behaved client still gets service *)
      let c = expect_ok "connect after abuse" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore (expect_ok "ping after abuse" (Server.Client.For_testing.ping c));
      Server.Client.close c);
  ()

(* N concurrent clients, M runs each with client-chosen seeds: every
   verdict must equal the same batch run in-process on a lone service —
   the daemon's interleaving must never leak into results. *)
let test_daemon_concurrent_soak () =
  let dir = temp_dir () in
  let n_clients = 3 and n_runs = 3 in
  let cfg = daemon_cfg ~dir () in
  let statuses_of_json payload =
    match Option.bind (Obs.Json.member "results" payload) Obs.Json.to_list with
    | None -> Alcotest.fail "results missing"
    | Some rs ->
        List.map
          (fun r ->
            Option.value ~default:"?"
              (Option.bind (Obs.Json.member "status" r) Obs.Json.to_str))
          rs
  in
  let daemon_verdicts = Array.make n_clients [] in
  with_daemon cfg (fun _d ->
      (* per-client dataset, so budget interleaving is per-dataset *)
      let threads =
        List.init n_clients (fun i ->
            Thread.create
              (fun () ->
                let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
                let ds = Printf.sprintf "soak%d" i in
                ignore
                  (expect_ok "register"
                     (Server.Client.register c ~dataset:ds ~n:400 ~axis:128 ~radius:0.06
                        ~seed:3 ~budget:(p ~eps:4.0 ~delta:1e-4) ()));
                let vs =
                  List.init n_runs (fun j ->
                      let seed = (100 * i) + j in
                      statuses_of_json
                        (expect_ok "run"
                           (Server.Client.run c ~dataset:ds ~seed ~jobs:soak_jobs ())))
                in
                daemon_verdicts.(i) <- vs;
                Server.Client.close c)
              ())
      in
      List.iter Thread.join threads);
  (* reference: the same batches on a lone in-process service *)
  let svc = Engine.Service.create ~domains:cfg.Server.Daemon.domains ~seed:cfg.Server.Daemon.seed ~retries:cfg.Server.Daemon.retries () in
  let rng = Prim.Rng.create ~seed:(3 + 7919) () in
  let grid = Geometry.Grid.create ~axis_size:128 ~dim:2 in
  let w = Workload.Synth.planted_ball rng ~grid ~n:400 ~cluster_fraction:0.5 ~cluster_radius:0.06 in
  let specs = match Engine.Job.parse soak_jobs with Ok s -> s | Error e -> Alcotest.failf "parse: %s" e in
  for i = 0 to n_clients - 1 do
    let ds =
      Engine.Service.register svc
        ~name:(Printf.sprintf "ref%d" i)
        ~grid ~budget:(p ~eps:4.0 ~delta:1e-4) w.Workload.Synth.points
    in
    List.iteri
      (fun j got ->
        let seed = (100 * i) + j in
        let expect =
          List.map
            (fun (r : Engine.Job.result) -> Engine.Job.status_name r.Engine.Job.status)
            (Engine.Service.run_batch ~seed svc ~dataset:ds specs)
        in
        Alcotest.(check (list string))
          (Printf.sprintf "client %d run %d matches the lone-service reference" i j)
          expect got)
      daemon_verdicts.(i)
  done

(* --- serving telemetry end-to-end ----------------------------------------- *)

let test_daemon_health_stats_metrics () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      (* health answers before any traffic: every default rule reports,
         none can be firing on an idle daemon. *)
      let st, verdicts, payload = expect_ok "health" (Server.Client.health c) in
      check_true "idle daemon is healthy" (st = Obs.Slo.Ok);
      check_true "default rules all evaluated" (List.length verdicts >= 3);
      check_true "health carries draining:false"
        (Obs.Json.member "draining" payload = Some (Obs.Json.Bool false));
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:2.0 ~delta:1e-5) ()));
      ignore (expect_ok "run" (Server.Client.run c ~dataset:"d1" ~seed:7 ~jobs:soak_jobs ()));
      (* stats reflects the traffic per verb x tenant *)
      let stats = expect_ok "stats" (Server.Client.stats c) in
      let rows =
        match Option.bind (Obs.Json.member "requests" stats) Obs.Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "stats reply has no requests"
      in
      let field k r = Option.bind (Obs.Json.member k r) Obs.Json.to_str in
      check_true "run latency recorded for the tenant"
        (List.exists (fun r -> field "verb" r = Some "run" && field "tenant" r = Some "acme") rows);
      (* the serving families land in the exposition, with summary quantiles *)
      let m1 = expect_ok "metrics" (Server.Client.metrics c) in
      List.iter
        (fun needle -> check_true ("metrics contains " ^ needle) (contains_sub m1 needle))
        [
          "privcluster_request_seconds";
          "quantile=\"0.99\"";
          "privcluster_queue_wait_seconds";
          "privcluster_budget_burn_rate";
          "privcluster_request_sheds_total";
        ];
      (* double scrape: request counters are monotone *)
      let counter_sum text =
        String.split_on_char '\n' text
        |> List.fold_left
             (fun acc line ->
               if
                 String.length line > 33
                 && String.sub line 0 33 = "privcluster_request_seconds_count"
               then
                 match String.rindex_opt line ' ' with
                 | Some i -> (
                     match
                       float_of_string_opt
                         (String.sub line (i + 1) (String.length line - i - 1))
                     with
                     | Some v -> acc +. v
                     | None -> acc)
                 | None -> acc
               else acc)
             0.
      in
      let m2 = expect_ok "metrics" (Server.Client.metrics c) in
      check_true "request counters present" (counter_sum m1 > 0.);
      check_true "request counters monotone across scrapes"
        (counter_sum m2 >= counter_sum m1);
      Server.Client.close c)

let test_daemon_exemplar_ring () =
  let dir = temp_dir () in
  let slow_dir = Filename.concat dir "slow" in
  (* threshold 0: every request is "slow", so the ring must prune. *)
  let cfg =
    {
      (daemon_cfg ~dir ()) with
      Server.Daemon.slow_threshold_ms = 0.;
      slow_log = Some slow_dir;
      slow_keep = 3;
    }
  in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:4.0 ~delta:1e-4) ()));
      for i = 1 to 5 do
        ignore (expect_ok "run" (Server.Client.run c ~dataset:"d1" ~seed:i ~jobs:soak_jobs ()))
      done;
      Server.Client.close c);
  (* stop drained the executor, so the ring is quiescent *)
  let read_ring () =
    Sys.readdir slow_dir |> Array.to_list |> List.filter (fun f -> f <> "") |> List.sort compare
  in
  let files = read_ring () in
  check_true "ring is non-empty" (files <> []);
  check_true "ring is bounded to slow_keep" (List.length files <= 3);
  List.iter
    (fun f ->
      check_true ("exemplar name shape: " ^ f)
        (String.length f > 9 && String.sub f 0 9 = "exemplar-");
      let contents =
        In_channel.with_open_text (Filename.concat slow_dir f) In_channel.input_all
      in
      match Obs.Json.parse contents with
      | Error e -> Alcotest.failf "exemplar %s does not parse: %s" f e
      | Ok doc -> (
          match Obs.Trace.validate doc with
          | Error e -> Alcotest.failf "exemplar %s is not a valid trace: %s" f e
          | Ok () -> ()))
    files;
  (* a restarted daemon resumes the sequence past the survivors instead
     of overwriting them *)
  let newest_before = List.fold_left max "" files in
  let cfg2 = { cfg with Server.Daemon.wal_path = Filename.concat dir "d2.wal" } in
  with_daemon cfg2 (fun _d ->
      let c = expect_ok "connect" (connect cfg2 ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:4.0 ~delta:1e-4) ()));
      Server.Client.close c);
  let files2 = read_ring () in
  check_true "ring still bounded after restart" (List.length files2 <= 3);
  check_true "restart resumed the sequence"
    (List.exists (fun f -> f > newest_before) files2)

(* Sampling must be invisible in results: with --trace-sample hashing every
   request into the exemplar ring, register/run/epoch replies — including
   the result-cache hit/miss counters, which pin cache-key identity — are
   bit-identical to a sampling-off daemon, timing fields aside. *)
let rec strip_timing = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "latency_ms" || k = "elapsed_ms" then None else Some (k, strip_timing v))
           fields)
  | Obs.Json.List l -> Obs.Json.List (List.map strip_timing l)
  | j -> j

let test_daemon_sampling_deterministic () =
  let observe cfg =
    with_daemon cfg (fun _d ->
        let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
        let reg =
          expect_ok "register"
            (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
               ~budget:(p ~eps:4.0 ~delta:1e-4) ())
        in
        let r1 = expect_ok "run" (Server.Client.run c ~dataset:"d1" ~seed:11 ~jobs:soak_jobs ()) in
        (* identical resubmission: answered from the result cache iff the
           cache key is unchanged by sampling *)
        let r2 = expect_ok "run" (Server.Client.run c ~dataset:"d1" ~seed:11 ~jobs:soak_jobs ()) in
        let ep = expect_ok "epoch" (Server.Client.epoch c ~dataset:"d1") in
        Server.Client.close c;
        List.map
          (fun j -> Obs.Json.to_string (strip_timing j))
          [ reg; r1; r2; ep ])
  in
  let dir_a = temp_dir () and dir_b = temp_dir () in
  let slow_dir = Filename.concat dir_a "slow" in
  let sampled =
    {
      (daemon_cfg ~dir:dir_a ()) with
      Server.Daemon.trace_sample = 1;
      slow_log = Some slow_dir;
    }
  in
  let plain = daemon_cfg ~dir:dir_b () in
  let a = observe sampled and b = observe plain in
  List.iteri
    (fun i (x, y) ->
      Alcotest.(check string)
        (Printf.sprintf "reply %d bit-identical with sampling on" i)
        y x)
    (List.combine a b);
  (* the cache-hit counters agree and the second run genuinely hit *)
  (match Obs.Json.parse (List.nth a 3) with
  | Ok ep ->
      let hits =
        Option.bind (Obs.Json.member "result_cache" ep) (Obs.Json.member "hits")
      in
      check_true "second run hit the result cache"
        (match Option.bind hits Obs.Json.to_int with Some h -> h > 0 | None -> false)
  | Error e -> Alcotest.failf "epoch reply does not parse back: %s" e);
  (* sampling was genuinely active: every request left an exemplar *)
  check_true "sampled daemon wrote exemplars"
    (Sys.file_exists slow_dir && Sys.readdir slow_dir <> [||])

(* One raw request line after another on a fresh connection, past the
   client's own checks; each reply decoded. *)
let raw_exchange cfg lines =
  let path = match cfg.Server.Daemon.listen with `Unix p -> p | `Tcp _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let r = Server.Line_io.reader fd in
      List.map
        (fun line ->
          Server.Line_io.write_all fd (line ^ "\n");
          match Server.Line_io.read_line r with
          | Server.Line_io.Line reply -> (
              match Wire.reply_of_line reply with
              | Ok (_, body) -> body
              | Error e -> Alcotest.failf "reply to %s: %s" line e)
          | Server.Line_io.Eof | Server.Line_io.Overflow ->
              Alcotest.failf "no reply to %s" line)
        lines)

let hello_line version =
  Printf.sprintf {|{"id":1,"req":"hello","version":%d,"tenant":"acme","token":"s3cret"}|}
    version

(* Protocol 5 has no [append], [retire] or [standing] request: a client of
   protocol 4 is refused at [hello], and one of those requests on a
   version-5 connection is a bad_request.  Neither charges, journals or
   advances anything. *)
let test_daemon_refuses_old_protocol () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let journal () = In_channel.with_open_bin cfg.Server.Daemon.wal_path In_channel.input_all in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:4.0 ~delta:1e-4) ()));
      let state () =
        ( Obs.Json.member "epoch" (expect_ok "epoch" (Server.Client.epoch c ~dataset:"d1")),
          Obs.Json.member "ledger" (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")) )
      in
      let before = state () and wal = journal () in
      let refused code what = function
        | Error (e : Wire.error) -> check_true (what ^ " refused as " ^ Wire.code_name code) (e.Wire.code = code)
        | Ok _ -> Alcotest.failf "%s must be refused" what
      in
      check_int "protocol version" 5 Wire.version;
      (match raw_exchange cfg [ hello_line 4 ] with
      | [ r ] -> refused Wire.Unsupported_version "a version-4 hello" r
      | _ -> Alcotest.fail "one reply");
      let old =
        [
          {|{"id":2,"req":"append","dataset":"d1","n":50,"seed":7}|};
          {|{"id":3,"req":"retire","dataset":"d1","from":0,"count":5}|};
          {|{"id":4,"req":"standing","dataset":"d1","job":"sq","t_fraction":0.45,"eps":1,"delta":1e-6,"periods":2}|};
        ]
      in
      (match raw_exchange cfg (hello_line Wire.version :: old) with
      | Ok _ :: replies ->
          List.iter2 (fun line r -> refused Wire.Bad_request line r) old replies
      | _ -> Alcotest.fail "hello at the current version must succeed");
      check_true "epoch and ledger unchanged" (state () = before);
      check_true "nothing journaled" (journal () = wal);
      Server.Client.close c)

(* A standing query reserves all its slices at registration, so [periods]
   is capped: one past the cap is a bad_request that reserves and
   journals nothing, over [run] and through the client alike; the cap
   itself is accepted. *)
let test_daemon_standing_periods_cap () =
  let dir = temp_dir () in
  let cfg = daemon_cfg ~dir () in
  let journal () = In_channel.with_open_bin cfg.Server.Daemon.wal_path In_channel.input_all in
  let cap = 1000 in
  let line periods =
    Printf.sprintf "standing t_fraction=0.45 periods=%d eps=1 delta=1e-6 id=sq%d" periods periods
  in
  with_daemon cfg (fun _d ->
      let c = expect_ok "connect" (connect cfg ~tenant:"acme" ~token:"s3cret") in
      ignore
        (expect_ok "register"
           (Server.Client.register c ~dataset:"d1" ~n:400 ~axis:128 ~radius:0.06 ~seed:3
              ~budget:(p ~eps:4.0 ~delta:1e-4) ()));
      let ledger () = Obs.Json.member "ledger" (expect_ok "ledger" (Server.Client.ledger c ~dataset:"d1")) in
      let before = ledger () and wal = journal () in
      let expect_bad what = function
        | Error (`Server e) -> check_true (what ^ " is bad_request") (e.Wire.code = Wire.Bad_request)
        | Ok _ -> Alcotest.failf "%s must be rejected" what
        | Error (`Transport m) -> Alcotest.failf "%s: transport: %s" what m
      in
      expect_bad "periods past the cap over run"
        (Server.Client.run c ~dataset:"d1" ~jobs:(line (cap + 1)) ());
      expect_bad "periods past the cap through the client"
        (Server.Client.standing c ~dataset:"d1" ~id:"sq" ~t_fraction:0.45 ~eps:1. ~delta:1e-6
           ~periods:(cap + 1) ());
      check_true "nothing reserved" (ledger () = before);
      check_true "nothing journaled" (journal () = wal);
      let reply = expect_ok "periods at the cap" (Server.Client.run c ~dataset:"d1" ~jobs:(line cap) ()) in
      let statuses =
        match Option.bind (Obs.Json.member "results" reply) Obs.Json.to_list with
        | Some rs -> List.filter_map (fun r -> Option.bind (Obs.Json.member "status" r) Obs.Json.to_str) rs
        | None -> []
      in
      check_true "accepted and ticked once" (statuses = [ "ok"; "ok" ] || statuses = [ "ok"; "failed" ]);
      Server.Client.close c)

(* The one line reader, over a socketpair: many lines in one chunk, lines
   that straddle the 4 KiB chunk boundaries, an 8 MiB line (read in time
   linear in its length: the reader this replaced took 14.5 s for it),
   an empty line, and a final fragment cut short by EOF, which is
   dropped.  With a cap, a longer line is an [Overflow]. *)
let test_line_io_reader () =
  let module L = Server.Line_io in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let small = List.init 50 (fun i -> Printf.sprintf "s%d" i) in
  let straddling = List.init 20 (fun i -> String.make 1000 (Char.chr (Char.code 'a' + i))) in
  let big = String.make (8 * 1024 * 1024) 'x' in
  let lines = small @ straddling @ [ big; ""; "last" ] in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ "cut short" in
  let writer = Thread.create (fun () -> L.write_all a payload; Unix.close a) () in
  let r = L.reader b in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i want ->
      match L.read_line r with
      | L.Line got -> check_true (Printf.sprintf "line %d" i) (got = want)
      | L.Eof | L.Overflow -> Alcotest.failf "line %d missing" i)
    lines;
  let dt = Unix.gettimeofday () -. t0 in
  check_true "a fragment cut short by EOF is dropped" (L.read_line r = L.Eof);
  Thread.join writer;
  Unix.close b;
  check_true (Printf.sprintf "an 8 MiB line read in %.3f s (< 2 s)" dt) (dt < 2.);
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  L.write_all a ("short\n" ^ String.make 100 'y' ^ "\n");
  Unix.close a;
  let r = L.reader ~max_line:50 b in
  check_true "a line within the cap" (L.read_line r = L.Line "short");
  check_true "a line past the cap overflows" (L.read_line r = L.Overflow);
  Unix.close b

(* Hostile bytes against the decoders a request passes through: the wire
   line decoder and, for a [run], the jobs parser.  Each must answer [Ok]
   or [Error] within a second, never raise. *)
let decodes_safely line =
  let t0 = Unix.gettimeofday () in
  let parse_jobs text =
    match Engine.Job.parse text with
    | Ok _ | Error _ -> ()
    | exception e -> QCheck2.Test.fail_reportf "Job.parse raised %s" (Printexc.to_string e)
  in
  (match Wire.request_of_line line with
  | Ok { Wire.request = Wire.Run { jobs; _ }; _ } -> parse_jobs jobs
  | Ok _ | Error _ -> ()
  | exception e -> QCheck2.Test.fail_reportf "Wire.request_of_line raised %s" (Printexc.to_string e));
  parse_jobs line;
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 1. then QCheck2.Test.fail_reportf "took %.2f s" dt;
  true

let valid_request_lines =
  List.map
    (fun request -> String.trim (Wire.request_to_line { Wire.rid = 7; request }))
    [
      Wire.Hello { version = Wire.version; tenant = "acme"; token = "s3cret" };
      Wire.Register
        { dataset = "d1"; n = 800; dim = 2; axis = 128; frac = 0.5; radius = 0.05; seed = 9;
          budget = p ~eps:2.0 ~delta:1e-5; mode = Acct.Advanced { slack = 1e-9 } };
      Wire.Run
        { dataset = "d1"; seed = Some 3;
          jobs = "one_cluster t_fraction=0.45 eps=0.3 delta=1e-7\nquantile q=0.5 axis=0 eps=0.1 id=m\n" };
      Wire.Run
        { dataset = "d1"; seed = None;
          jobs = "mutate op=append n=50 seed=7 frac=0.4 radius=0.07 id=append\nmutate op=retire from=10 count=25 id=retire" };
      Wire.Run
        { dataset = "d1"; seed = Some 9;
          jobs = "standing t_fraction=0.45 periods=3 eps=1.5 delta=3e-7 id=sq # watch\nk_cluster k=3 t_fraction=0.2 eps=1 delta=1e-7 deadline=30" };
      Wire.Epoch { dataset = "d1" };
      Wire.Settle { dataset = "d1"; action = Wire.Commit_orphans; label = Some "sq#2" };
      Wire.Ledger { dataset = "d1" };
      Wire.Ping;
    ]

(* Up to 64 KiB, half the bytes drawn from JSON's and the jobs format's
   punctuation so that the decoders get past their first byte.  The bytes
   come from a seeded stream rather than per-byte generators, which keeps
   a 64 KiB case cheap to draw. *)
let test_decoders_arbitrary_bytes =
  let json_ish = "{}[]\":,.-+eE0123456789 \\/ntrufals=#\n" in
  let gen =
    QCheck2.Gen.(
      let* size = oneof [ int_bound 256; int_bound 65536 ] in
      let+ seed = int in
      let st = Random.State.make [| seed |] in
      String.init size (fun _ ->
          if Random.State.bool st then Char.chr (Random.State.int st 256)
          else json_ish.[Random.State.int st (String.length json_ish)]))
  in
  qcheck "wire and jobs decoders never raise on arbitrary bytes" gen decodes_safely

let test_decoders_mutated_lines =
  let gen =
    QCheck2.Gen.(
      let* line = oneofl valid_request_lines in
      let* pos = int_bound (String.length line) in
      let* byte = char in
      let+ how = int_bound 2 in
      let n = String.length line in
      match how with
      | 0 when pos < n -> String.mapi (fun i c -> if i = pos then byte else c) line
      | 1 when pos < n -> String.sub line 0 pos ^ String.sub line (pos + 1) (n - pos - 1)
      | _ -> String.sub line 0 pos ^ String.make 1 byte ^ String.sub line pos (n - pos))
  in
  qcheck ~count:1000 "wire and jobs decoders never raise on one-byte mutations of valid lines"
    gen decodes_safely

(* Hostile bytes against the journal decoder: [Wal.load] answers [Ok] or
   [Error] within a second and never raises. *)
let loads_safely bytes =
  let path = tmp_path ".wal" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
  let t0 = Unix.gettimeofday () in
  let raised = match Wal.load path with Ok _ | Error _ -> None | exception e -> Some e in
  let dt = Unix.gettimeofday () -. t0 in
  Sys.remove path;
  Option.iter (fun e -> QCheck2.Test.fail_reportf "Wal.load raised %s" (Printexc.to_string e)) raised;
  if dt > 1. then QCheck2.Test.fail_reportf "took %.2f s" dt;
  true

(* A journal holding every [Wal.op] ([sample_records]), its bytes and its
   frames' payloads. *)
let valid_journal =
  lazy
    (let path = tmp_path ".wal" in
     write_wal path sample_records;
     let bytes = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     let header = String.length "PW1 00000000 00000000 " in
     let payloads =
       String.split_on_char '\n' bytes
       |> List.filter (fun l -> l <> "")
       |> List.map (fun l -> String.sub l header (String.length l - header))
     in
     (bytes, Array.of_list payloads))

let frame payload =
  Printf.sprintf "PW1 %08x %s %s\n" (String.length payload)
    (Server.Crc32.to_hex (Server.Crc32.string payload))
    payload

let mutate_one ~pos ~byte ~how s =
  let n = String.length s in
  match how with
  | 0 when pos < n -> String.mapi (fun i c -> if i = pos then byte else c) s
  | 1 when pos < n -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
  | _ -> String.sub s 0 pos ^ String.make 1 byte ^ String.sub s pos (n - pos)

(* Up to 64 KiB: half the cases arbitrary bytes drawn half from the frame
   and JSON alphabets, half valid frames with such noise between them. *)
let test_wal_arbitrary_bytes =
  let alphabet = "PW1 0123456789abcdef{}[]\":,.-+x\n" in
  let gen =
    QCheck2.Gen.(
      let* size = oneof [ int_bound 256; int_bound 65536 ] in
      let* framed = bool in
      let+ seed = int in
      let st = Random.State.make [| seed |] in
      let noise k =
        String.init k (fun _ ->
            if Random.State.bool st then Char.chr (Random.State.int st 256)
            else alphabet.[Random.State.int st (String.length alphabet)])
      in
      if not framed then noise size
      else begin
        let _, payloads = Lazy.force valid_journal in
        let b = Buffer.create size in
        while Buffer.length b < size do
          if Random.State.int st 3 = 0 then Buffer.add_string b (noise (Random.State.int st 64))
          else Buffer.add_string b (frame payloads.(Random.State.int st (Array.length payloads)))
        done;
        Buffer.contents b
      end)
  in
  qcheck "wal load never raises on arbitrary bytes" gen loads_safely

(* One-byte mutations of a journal holding every op: of its raw bytes
   (mostly stopped by the frame checks), and of one payload re-framed with
   a matching length and CRC, so that the record decoder sees it. *)
let test_wal_mutated_journal =
  let gen =
    QCheck2.Gen.(
      let bytes, payloads = Lazy.force valid_journal in
      let* reframe = bool in
      let* k = int_bound (Array.length payloads - 1) in
      let* byte = char in
      let* how = int_bound 2 in
      let target = if reframe then payloads.(k) else bytes in
      let+ pos = int_bound (String.length target) in
      let mutated = mutate_one ~pos ~byte ~how target in
      if not reframe then mutated
      else
        String.concat ""
          (Array.to_list (Array.mapi (fun i p -> frame (if i = k then mutated else p)) payloads)))
  in
  qcheck ~count:1000 "wal load never raises on one-byte mutations of a valid journal" gen
    loads_safely

let suite =
  [
    case "crc32 vectors and hex" test_crc_vectors;
    case "wal roundtrip" test_wal_roundtrip;
    case "wal missing file is empty" test_wal_missing_file;
    test_wal_hex_float_bitexact;
    case "wal torn tail tolerated" test_wal_torn_tail;
    case "wal mid-file corruption refused" test_wal_corruption_mid_file;
    case "wal torn tail cut at start" test_wal_torn_tail_cut_at_start;
    case "wal histories and opening" test_wal_histories;
    case "accountant event stream" test_event_stream;
    case "events don't perturb the ledger" test_events_do_not_perturb_ledger;
    case "record_of_event pairs reservations" test_record_of_event;
    case "find_dataset names ids" test_find_dataset_message;
    case "failed lookup charges nothing" test_run_batch_named_charges_nothing;
    case "replay equals live ledger" test_replay_matches_live;
    case "replay equals live under faults" test_replay_matches_live_under_faults;
    slow_case "every crash prefix replays" test_replay_prefixes;
    case "orphaned reservation held" test_replay_orphaned_reservation_held;
    case "diverging journal refused" test_replay_divergence_refused;
    case "replay applies engine ops in order" test_replay_applies_engine_ops_in_order;
    case "replay aborts on engine-state divergence" test_replay_on_apply_divergence;
    case "admission shed reasons" test_admission_shed_reasons;
    case "admission executes and drains" test_admission_executes_and_drains;
    case "wire request roundtrip" test_wire_request_roundtrip;
    case "wire reply roundtrip" test_wire_reply_roundtrip;
    case "settle reply roundtrip" test_settle_reply_roundtrip;
    case "line reader over a socketpair" test_line_io_reader;
    test_decoders_arbitrary_bytes;
    test_decoders_mutated_lines;
    slow_case "daemon lifecycle" test_daemon_lifecycle;
    slow_case "daemon crash recovery" test_daemon_crash_recovery;
    slow_case "daemon epoch and cache crash recovery" test_daemon_epoch_crash_recovery;
    slow_case "daemon settle" test_daemon_settle;
    slow_case "daemon standing query exact across a restart" test_daemon_standing_survives_restart_exactly;
    slow_case "daemon register validation" test_daemon_register_validation;
    slow_case "daemon append validation" test_daemon_append_validation;
    slow_case "daemon refuses a bad standing spec before charging" test_daemon_standing_validation;
    slow_case "daemon request line cap" test_daemon_request_line_cap;
    slow_case "daemon refuses protocol 4 and its write requests" test_daemon_refuses_old_protocol;
    slow_case "daemon caps a standing query's periods" test_daemon_standing_periods_cap;
    slow_case "daemon concurrent soak" test_daemon_concurrent_soak;
    slow_case "daemon health, stats and serving metrics" test_daemon_health_stats_metrics;
    slow_case "daemon exemplar ring bounded and valid" test_daemon_exemplar_ring;
    slow_case "daemon sampling leaves outputs bit-identical" test_daemon_sampling_deterministic;
    slow_case "daemon budget spans mirror the accountant" test_daemon_budget_spans_mirror_accountant;
    slow_case "daemon recomputes over an old-signature journal" test_daemon_old_signature_recomputes;
    slow_case "daemon replays a journal holding a now-rejected standing line"
      test_daemon_replays_rejected_standing_line;
    slow_case "daemon reply size does not grow with the ledger's history"
      test_daemon_reply_size_independent_of_history;
    slow_case "daemon register and datasets replies do not grow with the ledger's history"
      test_daemon_register_reply_independent_of_history;
    test_wal_arbitrary_bytes;
    test_wal_mutated_journal;
  ]
