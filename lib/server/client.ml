module Json = Obs.Json

type fail = [ `Transport of string | `Server of Wire.error ]

let fail_message = function
  | `Transport m -> "transport: " ^ m
  | `Server (e : Wire.error) ->
      Printf.sprintf "%s: %s" (Wire.code_name e.Wire.code) e.Wire.message

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : bytes;
  mutable next_rid : int;
}

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

let rec read_line t =
  let s = Buffer.contents t.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear t.buf;
      Buffer.add_string t.buf (String.sub s (i + 1) (String.length s - i - 1));
      Ok (String.sub s 0 i)
  | None -> (
      match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 -> Error (`Transport "connection closed by server")
      | n ->
          Buffer.add_subbytes t.buf t.chunk 0 n;
          read_line t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line t
      | exception Unix.Unix_error (e, _, _) -> Error (`Transport (Unix.error_message e)))

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let ( let* ) = Result.bind

let request t req =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  let* () =
    match write_all t.fd (Wire.request_to_line { Wire.rid; request = req }) with
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
      let t = { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096; next_rid = 1 } in
      match request t (Wire.Hello { version = Wire.version; tenant; token }) with
      | Ok _ -> Ok t
      | Error _ as e ->
          close t;
          e)

let register t ~dataset ?(n = 3000) ?(dim = 2) ?(axis = 256) ?(frac = 0.5) ?(radius = 0.05)
    ?(seed = 1) ~budget ?(mode = Engine.Accountant.Basic) () =
  request t (Wire.Register { dataset; n; dim; axis; frac; radius; seed; budget; mode })

let run t ~dataset ?seed ~jobs () = request t (Wire.Run { dataset; jobs; seed })

let append t ~dataset ~n ~seed ?(frac = 0.5) ?(radius = 0.05) () =
  request t (Wire.Append { dataset; n; seed; frac; radius })

let retire t ~dataset ~from_ ~count = request t (Wire.Retire { dataset; from_; count })
let epoch t ~dataset = request t (Wire.Epoch { dataset })

let standing t ~dataset ~id ~t_fraction ~eps ~delta ~periods ?seed () =
  request t (Wire.Standing { dataset; id; t_fraction; eps; delta; periods; seed })

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
