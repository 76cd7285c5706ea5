module Json = Obs.Json
module Accountant = Engine.Accountant

type synth = {
  n : int;
  dim : int;
  axis : int;
  frac : float;
  radius : float;
  seed : int;
}

type op =
  | Open of { mode : Accountant.mode; budget : Prim.Dp.params; synth : synth option }
  | Charge of { label : string; cost : Prim.Dp.params }
  | Refuse of { label : string; cost : Prim.Dp.params; reserve : bool }
  | Reserve of { rid : int; label : string; cost : Prim.Dp.params }
  | Commit of { rid : int }
  | Release of { rid : int }
  | Append of { epoch : int; dim : int; points : float array }
      (** Epoch transition: the appended rows, flattened row-major and
          hex-exact — replay re-appends the same coordinates bit-for-bit. *)
  | Retire of { epoch : int; from_ : int; count : int }
  | Cached of { epoch : int; signature : string; seed : int; stream : int; output : Json.t }
      (** A result-cache entry ([output] is {!Engine.Job.output_to_wire});
          replay restores it so a restarted daemon serves the same
          recorded answers without re-running anything. *)
  | Standing of { line : string; seed : int; stream : int }
      (** A standing-query registration (its jobs-file line plus the
          registration-time randomness coordinates); replayed {e after}
          the budget ops so {!Engine.Service.restore_standing} can adopt
          the already-replayed reservations. *)

type record = { tenant : string; dataset : string; op : op }

type tail = Clean | Torn of int

let record_of_event ~tenant ~dataset (ev : Accountant.event) =
  let op =
    match ev with
    | Accountant.Charged { label; cost } -> Charge { label; cost }
    | Accountant.Refused { label; cost; reserve; refusal = _ } -> Refuse { label; cost; reserve }
    | Accountant.Reserved { id; label; cost } -> Reserve { rid = id; label; cost }
    | Accountant.Committed { id; label = _; cost = _ } -> Commit { rid = id }
    | Accountant.Released { id; label = _; cost = _ } -> Release { rid = id }
  in
  { tenant; dataset; op }

(* --- payload encoding --------------------------------------------------- *)

(* ε/δ ride as hex-float strings: the JSON emitter renders Float with
   %.12g, which rounds, and a replayed charge must be bit-identical to
   the original or "replay = uninterrupted run" stops being an equality. *)
let float_str x = Json.String (Printf.sprintf "%h" x)

let cost_fields (p : Prim.Dp.params) =
  [ ("eps", float_str p.Prim.Dp.eps); ("delta", float_str p.Prim.Dp.delta) ]

let payload_of_record r =
  let base = [ ("t", Json.String r.tenant); ("d", Json.String r.dataset) ] in
  let rest =
    match r.op with
    | Open { mode; budget; synth } ->
        [ ("op", Json.String "open"); ("mode", Json.String (Accountant.mode_name mode)) ]
        @ (match mode with
          | Accountant.Basic -> []
          | Accountant.Advanced { slack } | Accountant.Zcdp { slack } ->
              [ ("slack", float_str slack) ])
        @ [ ("budget_eps", float_str budget.Prim.Dp.eps);
            ("budget_delta", float_str budget.Prim.Dp.delta);
          ]
        @ (match synth with
          | None -> []
          | Some s ->
              [ ("n", Json.Int s.n); ("dim", Json.Int s.dim); ("axis", Json.Int s.axis);
                ("frac", float_str s.frac); ("radius", float_str s.radius);
                ("seed", Json.Int s.seed);
              ])
    | Charge { label; cost } ->
        (("op", Json.String "charge") :: ("label", Json.String label) :: cost_fields cost)
    | Refuse { label; cost; reserve } ->
        ("op", Json.String "refuse") :: ("label", Json.String label)
        :: ("reserve", Json.Bool reserve) :: cost_fields cost
    | Reserve { rid; label; cost } ->
        ("op", Json.String "reserve") :: ("rid", Json.Int rid)
        :: ("label", Json.String label) :: cost_fields cost
    | Commit { rid } -> [ ("op", Json.String "commit"); ("rid", Json.Int rid) ]
    | Release { rid } -> [ ("op", Json.String "release"); ("rid", Json.Int rid) ]
    | Append { epoch; dim; points } ->
        [
          ("op", Json.String "append");
          ("epoch", Json.Int epoch);
          ("dim", Json.Int dim);
          ( "points",
            Json.String
              (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") points))) );
        ]
    | Retire { epoch; from_; count } ->
        [
          ("op", Json.String "retire");
          ("epoch", Json.Int epoch);
          ("from", Json.Int from_);
          ("count", Json.Int count);
        ]
    | Cached { epoch; signature; seed; stream; output } ->
        [
          ("op", Json.String "cached");
          ("epoch", Json.Int epoch);
          ("sig", Json.String signature);
          ("seed", Json.Int seed);
          ("stream", Json.Int stream);
          ("output", output);
        ]
    | Standing { line; seed; stream } ->
        [
          ("op", Json.String "standing");
          ("line", Json.String line);
          ("seed", Json.Int seed);
          ("stream", Json.Int stream);
        ]
  in
  Json.to_string ~indent:false (Json.Obj (base @ rest))

let get what field json conv =
  match Option.bind (Json.member field json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "record %s: missing or malformed %S" what field)

let get_float what field json =
  match Option.bind (Json.member field json) Json.to_str with
  | Some s -> (
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "record %s: %S is not a hex float" what field))
  | None -> Error (Printf.sprintf "record %s: missing or malformed %S" what field)

let ( let* ) = Result.bind

let record_of_payload payload =
  let* json = Json.parse payload in
  let* tenant = get "?" "t" json Json.to_str in
  let* dataset = get "?" "d" json Json.to_str in
  let* opname = get "?" "op" json Json.to_str in
  let cost () =
    let* eps = get_float opname "eps" json in
    let* delta = get_float opname "delta" json in
    (* The accountant raises on such a cost, so the record is corrupt:
       refused mid-file, dropped as a torn tail, never replayed. *)
    if eps >= 0. && delta >= 0. then Ok { Prim.Dp.eps; delta }
    else Error (Printf.sprintf "record %s: cost (%h, %h) is negative or NaN" opname eps delta)
  in
  let* op =
    match opname with
    | "open" ->
        let* mode_s = get opname "mode" json Json.to_str in
        let* slack =
          match Json.member "slack" json with
          | None -> Ok 1e-9
          | Some _ -> get_float opname "slack" json
        in
        let* mode =
          match Accountant.mode_of_string ~slack mode_s with
          | Ok m -> Ok m
          | Error e -> Error ("record open: " ^ e)
        in
        let* eps = get_float opname "budget_eps" json in
        let* delta = get_float opname "budget_delta" json in
        let* synth =
          (* Pre-synth journals lack these fields; [None] marks a legacy
             record whose registration parameters were not pinned. *)
          match Json.member "n" json with
          | None -> Ok None
          | Some _ ->
              let* n = get opname "n" json Json.to_int in
              let* dim = get opname "dim" json Json.to_int in
              let* axis = get opname "axis" json Json.to_int in
              let* frac = get_float opname "frac" json in
              let* radius = get_float opname "radius" json in
              let* seed = get opname "seed" json Json.to_int in
              Ok (Some { n; dim; axis; frac; radius; seed })
        in
        Ok (Open { mode; budget = { Prim.Dp.eps; delta }; synth })
    | "charge" ->
        let* label = get opname "label" json Json.to_str in
        let* cost = cost () in
        Ok (Charge { label; cost })
    | "refuse" ->
        let* label = get opname "label" json Json.to_str in
        let* reserve =
          match Json.member "reserve" json with
          | Some (Json.Bool b) -> Ok b
          | _ -> Error "record refuse: missing or malformed \"reserve\""
        in
        let* cost = cost () in
        Ok (Refuse { label; cost; reserve })
    | "reserve" ->
        let* rid = get opname "rid" json Json.to_int in
        let* label = get opname "label" json Json.to_str in
        let* cost = cost () in
        Ok (Reserve { rid; label; cost })
    | "commit" ->
        let* rid = get opname "rid" json Json.to_int in
        Ok (Commit { rid })
    | "release" ->
        let* rid = get opname "rid" json Json.to_int in
        Ok (Release { rid })
    | "append" ->
        let* epoch = get opname "epoch" json Json.to_int in
        let* dim = get opname "dim" json Json.to_int in
        let* pts = get opname "points" json Json.to_str in
        let toks = String.split_on_char ' ' pts |> List.filter (fun s -> s <> "") in
        let* points =
          List.fold_left
            (fun acc tok ->
              let* acc = acc in
              match float_of_string_opt tok with
              | Some f -> Ok (f :: acc)
              | None -> Error (Printf.sprintf "record append: %S is not a hex float" tok))
            (Ok []) toks
          |> Result.map (fun l -> Array.of_list (List.rev l))
        in
        if dim < 1 || Array.length points = 0 || Array.length points mod dim <> 0 then
          Error "record append: points not a multiple of dim"
        else Ok (Append { epoch; dim; points })
    | "retire" ->
        let* epoch = get opname "epoch" json Json.to_int in
        let* from_ = get opname "from" json Json.to_int in
        let* count = get opname "count" json Json.to_int in
        Ok (Retire { epoch; from_; count })
    | "cached" ->
        let* epoch = get opname "epoch" json Json.to_int in
        let* signature = get opname "sig" json Json.to_str in
        let* seed = get opname "seed" json Json.to_int in
        let* stream = get opname "stream" json Json.to_int in
        let* output =
          match Json.member "output" json with
          | Some o -> Ok o
          | None -> Error "record cached: missing \"output\""
        in
        Ok (Cached { epoch; signature; seed; stream; output })
    | "standing" ->
        let* line = get opname "line" json Json.to_str in
        let* seed = get opname "seed" json Json.to_int in
        let* stream = get opname "stream" json Json.to_int in
        Ok (Standing { line; seed; stream })
    | other -> Error (Printf.sprintf "record: unknown op %S" other)
  in
  Ok { tenant; dataset; op }

(* --- framing ------------------------------------------------------------ *)

let magic = "PW1 "

let frame payload =
  Printf.sprintf "%s%08x %s %s\n" magic (String.length payload)
    (Crc32.to_hex (Crc32.string payload))
    payload

(* Parse one frame at [pos]; Ok (record, next_pos) or Error reason.  Any
   failure here is indistinguishable, locally, from a torn final write —
   [load] decides which it was by looking for valid frames further on. *)
let parse_frame contents pos =
  let len = String.length contents in
  let header = 4 + 8 + 1 + 8 + 1 in
  if pos + header > len then Error "truncated header"
  else if String.sub contents pos 4 <> magic then Error "bad magic"
  else
    match int_of_string_opt ("0x" ^ String.sub contents (pos + 4) 8) with
    | None -> Error "bad length field"
    | Some plen ->
        if String.get contents (pos + 12) <> ' ' then Error "bad header"
        else
          let crc_hex = String.sub contents (pos + 13) 8 in
          if String.get contents (pos + 21) <> ' ' then Error "bad header"
          else if pos + header + plen + 1 > len then Error "truncated payload"
          else
            let payload = String.sub contents (pos + header) plen in
            if String.get contents (pos + header + plen) <> '\n' then Error "missing newline"
            else
              match Crc32.of_hex crc_hex with
              | None -> Error "bad crc field"
              | Some crc when crc <> Crc32.string payload -> Error "crc mismatch"
              | Some _ -> (
                  match record_of_payload payload with
                  | Ok r -> Ok (r, pos + header + plen + 1)
                  | Error e -> Error e)

(* Is there any complete valid frame at or after [pos]?  If yes, a parse
   failure before it was corruption, not a torn tail. *)
let rec valid_frame_after contents pos =
  let len = String.length contents in
  if pos >= len then false
  else
    match String.index_from_opt contents pos 'P' with
    | None -> false
    | Some q -> (
        match parse_frame contents q with
        | Ok _ -> true
        | Error _ -> valid_frame_after contents (q + 1))

let load path =
  match
    (try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None)
  with
  | None -> if Sys.file_exists path then Error (path ^ ": unreadable") else Ok ([], Clean)
  | Some contents ->
      let len = String.length contents in
      let rec go pos acc =
        if pos >= len then Ok (List.rev acc, Clean)
        else
          match parse_frame contents pos with
          | Ok (r, next) -> go next (r :: acc)
          | Error reason ->
              if valid_frame_after contents (pos + 1) then
                Error
                  (Printf.sprintf "%s: corrupt frame at byte %d (%s) before further valid records"
                     path pos reason)
              else Ok (List.rev acc, Torn (len - pos))
      in
      go 0 []

(* --- appending ---------------------------------------------------------- *)

type t = { fd : Unix.file_descr; sync : bool; wal_path : string; mutex : Mutex.t }

let open_ ?(sync = true) ?(tail = Clean) path =
  match
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o600 in
    (match tail with
    | Clean -> ()
    | Torn n -> (
        (* Cut back to the last whole frame, so the next append starts on
           a frame boundary instead of behind bytes a later load would
           take for mid-file corruption. *)
        try
          Unix.ftruncate fd ((Unix.fstat fd).Unix.st_size - n);
          if sync then Unix.fsync fd
        with e ->
          Unix.close fd;
          raise e));
    fd
  with
  | fd -> Ok { fd; sync; wal_path = path; mutex = Mutex.create () }
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let append t record =
  let line = frame (payload_of_record record) in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Line_io.write_all t.fd line;
      if t.sync then Unix.fsync t.fd)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let path t = t.wal_path

(* --- replay ------------------------------------------------------------- *)

let histories records =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let key = (r.tenant, r.dataset) in
      if not (Hashtbl.mem tbl key) then begin
        Hashtbl.add tbl key (ref []);
        order := key :: !order
      end;
      let ops = Hashtbl.find tbl key in
      ops := r.op :: !ops)
    records;
  List.rev_map (fun key -> (key, List.rev !(Hashtbl.find tbl key))) !order

let opening ops =
  List.find_map
    (function Open { mode; budget; synth } -> Some (mode, budget, synth) | _ -> None)
    ops

let replay ?(on_apply = fun (_ : op) -> Ok ()) ops acc =
  let outstanding = Hashtbl.create 8 in
  let fail fmt = Printf.ksprintf (fun m -> Error ("replay diverged: " ^ m)) fmt in
  let result =
    List.fold_left
      (fun acc_r op ->
        let* () = acc_r in
        match op with
        | Open _ -> Ok ()  (* validated by the caller before replay *)
        | Append _ | Retire _ | Cached _ | Standing _ -> (
            (* Engine-state ops: no accountant interaction.  The caller
               applies them (mutating the registry / restoring the cache)
               in journal order, interleaved with the budget replay, and
               reports divergence — a journaled mutation that does not
               reproduce the journaled epoch — as an error. *)
            match on_apply op with
            | Ok () -> Ok ()
            | Error e -> fail "%s" e)
        | Charge { label; cost } -> (
            match Accountant.charge acc ~label cost with
            | Ok () -> Ok ()
            | Error _ -> fail "journaled charge %S was refused" label)
        | Refuse { label; cost; reserve } -> (
            let r =
              if reserve then Result.map ignore (Accountant.reserve acc ~label cost)
              else Accountant.charge acc ~label cost
            in
            match r with
            | Error _ -> Ok ()  (* refused again, as journaled *)
            | Ok () -> fail "journaled refusal %S was accepted" label)
        | Reserve { rid; label; cost } -> (
            match Accountant.reserve acc ~label cost with
            | Ok resv ->
                Hashtbl.replace outstanding rid resv;
                Ok ()
            | Error _ -> fail "journaled reservation %S was refused" label)
        | Commit { rid } -> (
            match Hashtbl.find_opt outstanding rid with
            | Some resv ->
                Accountant.commit acc resv;
                Hashtbl.remove outstanding rid;
                Ok ()
            | None -> fail "commit of unknown reservation %d" rid)
        | Release { rid } -> (
            match Hashtbl.find_opt outstanding rid with
            | Some resv ->
                Accountant.release acc resv;
                Hashtbl.remove outstanding rid;
                Ok ()
            | None -> fail "release of unknown reservation %d" rid))
      (Ok ()) ops
  in
  Result.map (fun () -> Hashtbl.length outstanding) result
