module Json = Obs.Json

type fail = [ `Transport of string | `Server of Wire.error ]

let fail_message = function
  | `Transport m -> "transport: " ^ m
  | `Server (e : Wire.error) ->
      Printf.sprintf "%s: %s" (Wire.code_name e.Wire.code) e.Wire.message

type t = { fd : Unix.file_descr; reader : Line_io.reader; mutable next_rid : int }

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

(* A reply may be of any length (a [ledger] reply grows with every
   charge), so the reader has no line cap. *)
let read_line t =
  match Line_io.read_line t.reader with
  | Line_io.Line l -> Ok l
  | Line_io.Eof | Line_io.Overflow -> Error (`Transport "connection closed by server")
  | exception Unix.Unix_error (e, _, _) -> Error (`Transport (Unix.error_message e))

let ( let* ) = Result.bind

let request t req =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  let* () =
    match Line_io.write_all t.fd (Wire.request_to_line { Wire.rid; request = req }) with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> Error (`Transport (Unix.error_message e))
  in
  let* line = read_line t in
  match Wire.reply_of_line line with
  | Error m -> Error (`Transport m)
  | Ok (rrid, _) when rrid <> rid ->
      Error (`Transport (Printf.sprintf "reply id %d does not match request id %d" rrid rid))
  | Ok (_, Ok payload) -> Ok payload
  | Ok (_, Error e) -> Error (`Server e)

let connect listen ~tenant ~token =
  let domain, addr =
    match (listen : Daemon.listen) with
    | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  match
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        raise e
  with
  | exception Unix.Unix_error (e, _, _) -> Error (`Transport (Unix.error_message e))
  | Error _ as e -> e
  | Ok fd -> (
      let t = { fd; reader = Line_io.reader fd; next_rid = 1 } in
      match request t (Wire.Hello { version = Wire.version; tenant; token }) with
      | Ok _ -> Ok t
      | Error _ as e ->
          close t;
          e)

let register t ~dataset ?(n = 3000) ?(dim = 2) ?(axis = 256) ?(frac = 0.5) ?(radius = 0.05)
    ?(seed = 1) ~budget ?(mode = Engine.Accountant.Basic) () =
  request t (Wire.Register { dataset; n; dim; axis; frac; radius; seed; budget; mode })

let run t ~dataset ?seed ~jobs () = request t (Wire.Run { dataset; jobs; seed })

(* A write is a one-job [run] carrying the spec's jobs line.  The spec is
   vetted first, as the daemon vets every line: an id with a newline or a
   ['#'] would render to a line that says something else.  A refusal is
   the [bad_request] the daemon would send, and nothing is sent. *)
let run_spec t ~dataset ?seed ~verb ~id ?(eps = 0.) ?(delta = 0.) kind =
  let spec =
    { Engine.Job.id; kind; eps; delta; beta = Workload.Harness.default_beta;
      deadline_s = None; fallback = false }
  in
  match Engine.Job.validate spec with
  | Error e -> Error (`Server { Wire.code = Wire.Bad_request; message = verb ^ ": " ^ e })
  | Ok spec -> run t ~dataset ?seed ~jobs:(Engine.Job.spec_to_line spec) ()

let append t ~dataset ~n ~seed ?(frac = 0.5) ?(radius = 0.05) () =
  run_spec t ~dataset ~verb:"append" ~id:"append"
    (Engine.Job.Mutate (Engine.Job.Append_synth { n; seed; frac; radius }))

let retire t ~dataset ~from_ ~count =
  run_spec t ~dataset ~verb:"retire" ~id:"retire"
    (Engine.Job.Mutate (Engine.Job.Retire_range { from_; count }))

let epoch t ~dataset = request t (Wire.Epoch { dataset })

let standing t ~dataset ~id ~t_fraction ~eps ~delta ~periods ?seed () =
  run_spec t ~dataset ?seed ~verb:"standing" ~id ~eps ~delta
    (Engine.Job.Standing { t_fraction; periods })

let settle t ~dataset ~action ?label () =
  let* payload = request t (Wire.Settle { dataset; action; label }) in
  match Wire.settle_reply_of_json payload with
  | Ok r -> Ok r
  | Error m -> Error (`Transport m)

let ledger t ~dataset = request t (Wire.Ledger { dataset })
let metrics t =
  let* payload = request t Wire.Metrics in
  match Option.bind (Json.member "metrics" payload) Json.to_str with
  | Some text -> Ok text
  | None -> Error (`Transport "metrics reply has no text body")

let health t =
  let* payload = request t Wire.Health in
  let status =
    Option.bind (Option.bind (Json.member "status" payload) Json.to_str)
      Obs.Slo.status_of_string
  in
  let rules =
    match Option.bind (Json.member "rules" payload) Json.to_list with
    | None -> []
    | Some l -> List.filter_map Obs.Slo.verdict_of_json l
  in
  match status with
  | Some st -> Ok (st, rules, payload)
  | None -> Error (`Transport "health reply has no status")

let stats t = request t Wire.Stats
module For_testing = struct
  let datasets t = request t Wire.Datasets
  let ping t = request t Wire.Ping
end
