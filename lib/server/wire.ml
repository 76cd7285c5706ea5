module Json = Obs.Json
module Accountant = Engine.Accountant

let version = 4

type request =
  | Hello of { version : int; tenant : string; token : string }
  | Register of {
      dataset : string;
      n : int;
      dim : int;
      axis : int;
      frac : float;
      radius : float;
      seed : int;
      budget : Prim.Dp.params;
      mode : Accountant.mode;
    }
  | Run of { dataset : string; jobs : string; seed : int option }
  | Append of { dataset : string; n : int; seed : int; frac : float; radius : float }
  | Retire of { dataset : string; from_ : int; count : int }
  | Epoch of { dataset : string }
  | Standing of {
      dataset : string;
      id : string;
      t_fraction : float;
      eps : float;
      delta : float;
      periods : int;
      seed : int option;
    }
  | Settle of { dataset : string; action : settle_action; label : string option }
  | Ledger of { dataset : string }
  | Datasets
  | Metrics
  | Health
  | Stats
  | Ping

and settle_action = Commit_orphans | Release_orphans

type envelope = { rid : int; request : request }

let request_name = function
  | Hello _ -> "hello"
  | Register _ -> "register"
  | Run _ -> "run"
  | Append _ -> "append"
  | Retire _ -> "retire"
  | Epoch _ -> "epoch"
  | Standing _ -> "standing"
  | Settle _ -> "settle"
  | Ledger _ -> "ledger"
  | Datasets -> "datasets"
  | Metrics -> "metrics"
  | Health -> "health"
  | Stats -> "stats"
  | Ping -> "ping"

let settle_action_name = function
  | Commit_orphans -> "commit"
  | Release_orphans -> "release"

let settle_action_of_string = function
  | "commit" -> Some Commit_orphans
  | "release" -> Some Release_orphans
  | _ -> None

type shed_reason = Queue_full | Tenant_cap | Draining

type error_code =
  | Bad_request
  | Unsupported_version
  | Unauthorized
  | Unknown_dataset
  | Conflict
  | Rejected of shed_reason
  | Internal

type error = { code : error_code; message : string }

let shed_reason_name = function
  | Queue_full -> "queue_full"
  | Tenant_cap -> "tenant_cap"
  | Draining -> "draining"

let code_name = function
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Unauthorized -> "unauthorized"
  | Unknown_dataset -> "unknown_dataset"
  | Conflict -> "conflict"
  | Rejected _ -> "rejected"
  | Internal -> "internal"

(* --- requests ----------------------------------------------------------- *)

let mode_fields mode =
  ("mode", Json.String (Accountant.mode_name mode))
  ::
  (match mode with
  | Accountant.Basic -> []
  | Accountant.Advanced { slack } | Accountant.Zcdp { slack } ->
      [ ("slack", Json.Float slack) ])

let request_to_line { rid; request } =
  let fields =
    match request with
    | Hello { version; tenant; token } ->
        [ ("req", Json.String "hello"); ("version", Json.Int version);
          ("tenant", Json.String tenant); ("token", Json.String token);
        ]
    | Register { dataset; n; dim; axis; frac; radius; seed; budget; mode } ->
        [ ("req", Json.String "register"); ("dataset", Json.String dataset);
          ("n", Json.Int n); ("dim", Json.Int dim); ("axis", Json.Int axis);
          ("frac", Json.Float frac); ("radius", Json.Float radius);
          ("seed", Json.Int seed);
          ("budget_eps", Json.Float budget.Prim.Dp.eps);
          ("budget_delta", Json.Float budget.Prim.Dp.delta);
        ]
        @ mode_fields mode
    | Run { dataset; jobs; seed } ->
        [ ("req", Json.String "run"); ("dataset", Json.String dataset);
          ("jobs", Json.String jobs);
        ]
        @ (match seed with None -> [] | Some s -> [ ("seed", Json.Int s) ])
    | Append { dataset; n; seed; frac; radius } ->
        [ ("req", Json.String "append"); ("dataset", Json.String dataset);
          ("n", Json.Int n); ("seed", Json.Int seed); ("frac", Json.Float frac);
          ("radius", Json.Float radius);
        ]
    | Retire { dataset; from_; count } ->
        [ ("req", Json.String "retire"); ("dataset", Json.String dataset);
          ("from", Json.Int from_); ("count", Json.Int count);
        ]
    | Epoch { dataset } ->
        [ ("req", Json.String "epoch"); ("dataset", Json.String dataset) ]
    | Standing { dataset; id; t_fraction; eps; delta; periods; seed } ->
        [ ("req", Json.String "standing"); ("dataset", Json.String dataset);
          ("job", Json.String id); ("t_fraction", Json.Float t_fraction);
          ("eps", Json.Float eps); ("delta", Json.Float delta);
          ("periods", Json.Int periods);
        ]
        @ (match seed with None -> [] | Some s -> [ ("seed", Json.Int s) ])
    | Settle { dataset; action; label } ->
        [ ("req", Json.String "settle"); ("dataset", Json.String dataset);
          ("action", Json.String (settle_action_name action));
        ]
        @ (match label with None -> [] | Some l -> [ ("label", Json.String l) ])
    | Ledger { dataset } ->
        [ ("req", Json.String "ledger"); ("dataset", Json.String dataset) ]
    | Datasets -> [ ("req", Json.String "datasets") ]
    | Metrics -> [ ("req", Json.String "metrics") ]
    | Health -> [ ("req", Json.String "health") ]
    | Stats -> [ ("req", Json.String "stats") ]
    | Ping -> [ ("req", Json.String "ping") ]
  in
  Json.to_string ~indent:false (Json.Obj (("id", Json.Int rid) :: fields)) ^ "\n"

let bad fmt = Printf.ksprintf (fun m -> Error { code = Bad_request; message = m }) fmt

let field conv name json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> bad "missing or malformed field %S" name

let field_or default conv name json =
  match Json.member name json with None -> Ok default | Some _ -> field conv name json

let ( let* ) = Result.bind

let request_of_json json =
  let* req = field Json.to_str "req" json in
  match req with
  | "hello" ->
      let* version = field Json.to_int "version" json in
      let* tenant = field Json.to_str "tenant" json in
      let* token = field Json.to_str "token" json in
      Ok (Hello { version; tenant; token })
  | "register" ->
      let* dataset = field Json.to_str "dataset" json in
      let* n = field Json.to_int "n" json in
      let* dim = field_or 2 Json.to_int "dim" json in
      let* axis = field_or 256 Json.to_int "axis" json in
      let* frac = field_or 0.5 Json.to_float "frac" json in
      let* radius = field_or 0.05 Json.to_float "radius" json in
      let* seed = field_or 1 Json.to_int "seed" json in
      let* eps = field Json.to_float "budget_eps" json in
      let* delta = field Json.to_float "budget_delta" json in
      let* mode_s = field_or "basic" Json.to_str "mode" json in
      let* slack = field_or 1e-9 Json.to_float "slack" json in
      let* mode =
        match Accountant.mode_of_string ~slack mode_s with
        | Ok m -> Ok m
        | Error e -> bad "%s" e
      in
      Ok
        (Register
           { dataset; n; dim; axis; frac; radius; seed;
             budget = { Prim.Dp.eps; delta }; mode;
           })
  | "run" ->
      let* dataset = field Json.to_str "dataset" json in
      let* jobs = field Json.to_str "jobs" json in
      let* seed =
        match Json.member "seed" json with
        | None -> Ok None
        | Some _ -> Result.map Option.some (field Json.to_int "seed" json)
      in
      Ok (Run { dataset; jobs; seed })
  | "append" ->
      let* dataset = field Json.to_str "dataset" json in
      let* n = field Json.to_int "n" json in
      let* seed = field Json.to_int "seed" json in
      let* frac = field_or 0.5 Json.to_float "frac" json in
      let* radius = field_or 0.05 Json.to_float "radius" json in
      Ok (Append { dataset; n; seed; frac; radius })
  | "retire" ->
      let* dataset = field Json.to_str "dataset" json in
      let* from_ = field Json.to_int "from" json in
      let* count = field Json.to_int "count" json in
      Ok (Retire { dataset; from_; count })
  | "epoch" ->
      let* dataset = field Json.to_str "dataset" json in
      Ok (Epoch { dataset })
  | "standing" ->
      let* dataset = field Json.to_str "dataset" json in
      let* id = field Json.to_str "job" json in
      let* t_fraction = field Json.to_float "t_fraction" json in
      let* eps = field Json.to_float "eps" json in
      let* delta = field Json.to_float "delta" json in
      let* periods = field Json.to_int "periods" json in
      let* seed =
        match Json.member "seed" json with
        | None -> Ok None
        | Some _ -> Result.map Option.some (field Json.to_int "seed" json)
      in
      Ok (Standing { dataset; id; t_fraction; eps; delta; periods; seed })
  | "settle" ->
      let* dataset = field Json.to_str "dataset" json in
      let* action_s = field Json.to_str "action" json in
      let* action =
        match settle_action_of_string action_s with
        | Some a -> Ok a
        | None -> bad "unknown settle action %S (want \"commit\" or \"release\")" action_s
      in
      let* label =
        match Json.member "label" json with
        | None -> Ok None
        | Some _ -> Result.map Option.some (field Json.to_str "label" json)
      in
      Ok (Settle { dataset; action; label })
  | "ledger" ->
      let* dataset = field Json.to_str "dataset" json in
      Ok (Ledger { dataset })
  | "datasets" -> Ok Datasets
  | "metrics" -> Ok Metrics
  | "health" -> Ok Health
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | other -> bad "unknown request %S" other

let request_of_line line =
  match Json.parse line with
  | Error e -> bad "not a JSON object: %s" e
  | Ok json ->
      let* rid = field Json.to_int "id" json in
      let* request = request_of_json json in
      Ok { rid; request }

let rid_of_line line =
  match Json.parse line with
  | Ok json -> Option.value ~default:0 (Option.bind (Json.member "id" json) Json.to_int)
  | Error _ -> 0

(* --- replies ------------------------------------------------------------ *)

let error_json e =
  let base =
    [ ("code", Json.String (code_name e.code)); ("message", Json.String e.message) ]
  in
  let reason =
    match e.code with
    | Rejected r -> [ ("reason", Json.String (shed_reason_name r)) ]
    | _ -> []
  in
  (* Every error reply is produced before any ledger operation; [charged]
     states that contract on the wire so a shed client need not trust the
     documentation. *)
  Json.Obj (base @ reason @ [ ("charged", Json.Bool false) ])

let reply_to_line ~rid body =
  let fields =
    match body with
    | Ok (Json.Obj payload) -> (("ok", Json.Bool true) :: payload)
    | Ok other -> [ ("ok", Json.Bool true); ("result", other) ]
    | Error e -> [ ("ok", Json.Bool false); ("error", error_json e) ]
  in
  Json.to_string ~indent:false (Json.Obj (("id", Json.Int rid) :: fields)) ^ "\n"

let code_of_name ~reason = function
  | "bad_request" -> Some Bad_request
  | "unsupported_version" -> Some Unsupported_version
  | "unauthorized" -> Some Unauthorized
  | "unknown_dataset" -> Some Unknown_dataset
  | "conflict" -> Some Conflict
  | "internal" -> Some Internal
  | "rejected" -> (
      match reason with
      | Some "queue_full" -> Some (Rejected Queue_full)
      | Some "tenant_cap" -> Some (Rejected Tenant_cap)
      | Some "draining" -> Some (Rejected Draining)
      | _ -> None)
  | _ -> None

let reply_of_line line =
  match Json.parse line with
  | Error e -> Error ("not a JSON reply: " ^ e)
  | Ok json -> (
      match
        ( Option.bind (Json.member "id" json) Json.to_int,
          Json.member "ok" json )
      with
      | Some rid, Some (Json.Bool true) -> Ok (rid, Ok json)
      | Some rid, Some (Json.Bool false) -> (
          match Json.member "error" json with
          | Some err -> (
              let name = Option.bind (Json.member "code" err) Json.to_str in
              let reason = Option.bind (Json.member "reason" err) Json.to_str in
              let message =
                Option.value ~default:""
                  (Option.bind (Json.member "message" err) Json.to_str)
              in
              match Option.bind name (fun n -> code_of_name ~reason n) with
              | Some code -> Ok (rid, Error { code; message })
              | None -> Error "reply error object has an unknown code")
          | None -> Error "reply has ok=false but no error object")
      | _ -> Error "reply is missing id or ok")

(* --- settle reply -------------------------------------------------------- *)

type settled_reservation = { label : string; eps : float; delta : float }

type settle_reply = {
  action : settle_action;
  settled : settled_reservation list;
  remaining : int;
}

let settle_reply_to_json r =
  Json.Obj
    [
      ("action", Json.String (settle_action_name r.action));
      ( "settled",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("label", Json.String s.label);
                   ("eps", Json.Float s.eps);
                   ("delta", Json.Float s.delta);
                 ])
             r.settled) );
      ("remaining", Json.Int r.remaining);
    ]

let settle_reply_of_json json =
  let get j conv name =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "settle reply: missing or malformed %S" name)
  in
  let* action_s = get json Json.to_str "action" in
  let* action =
    match settle_action_of_string action_s with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "settle reply: unknown action %S" action_s)
  in
  let* entries = get json Json.to_list "settled" in
  let* settled =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* label = get j Json.to_str "label" in
        let* eps = get j Json.to_float "eps" in
        let* delta = get j Json.to_float "delta" in
        Ok ({ label; eps; delta } :: acc))
      (Ok []) entries
    |> Result.map List.rev
  in
  let* remaining = get json Json.to_int "remaining" in
  Ok { action; settled; remaining }
