let attr_json : Span.attr -> Json.t = function
  | Span.S s -> Json.String s
  | Span.I i -> Json.Int i
  | Span.F f -> Json.Float f
  | Span.B b -> Json.Bool b

(* Attrs are consed newest-first and the newest binding wins; keep the
   first occurrence of each key. *)
let dedup_attrs attrs =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (k, v) ->
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some (k, attr_json v)
      end)
    attrs

let args_of (sp : Span.span) =
  let charge =
    match sp.span_charge with
    | None -> []
    | Some c ->
        [
          ("eps", Json.Float c.eps);
          ("delta", Json.Float c.delta);
        ]
        @ (if c.rho <> 0. then [ ("rho", Json.Float c.rho) ] else [])
  in
  let label = match sp.label with None -> [] | Some l -> [ ("label", Json.String l) ] in
  let parent =
    match sp.parent with None -> [] | Some p -> [ ("parent", Json.Int p) ]
  in
  Json.Obj
    (("span_id", Json.Int sp.id) :: (parent @ label @ charge @ dedup_attrs sp.attrs))

let event_of ~t0 (sp : Span.span) =
  let ts = Clock.ns_to_us (Int64.sub sp.start_ns t0) in
  let common =
    [
      ("name", Json.String sp.name);
      ("cat", Json.String sp.cat);
      ("ts", Json.Float ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int sp.tid);
      ("args", args_of sp);
    ]
  in
  if sp.dur_ns = 0L then
    (* Zero-duration records (budget ops, retries) render as instants so
       Perfetto draws them as markers rather than invisible slivers. *)
    Json.Obj (common @ [ ("ph", Json.String "i"); ("s", Json.String "t") ])
  else
    Json.Obj
      (common @ [ ("ph", Json.String "X"); ("dur", Json.Float (Clock.ns_to_us sp.dur_ns)) ])

let thread_meta tid =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("cat", Json.String "__metadata");
      ("ph", Json.String "M");
      ("ts", Json.Float 0.);
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "domain %d" tid)) ]);
    ]

let to_json spans =
  let t0 =
    List.fold_left
      (fun acc (sp : Span.span) -> if sp.start_ns < acc then sp.start_ns else acc)
      (match spans with [] -> 0L | (sp : Span.span) :: _ -> sp.start_ns)
      spans
  in
  let tids = List.sort_uniq compare (List.map (fun (sp : Span.span) -> sp.tid) spans) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (List.map thread_meta tids @ List.map (event_of ~t0) spans) );
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string spans = Json.to_string (to_json spans)

(* --- validation --------------------------------------------------------- *)

let validate json =
  let ( let* ) = Result.bind in
  let req_string ev key =
    match Json.member key ev with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "event missing string field %S" key)
  in
  let req_number ev key =
    match Option.bind (Json.member key ev) Json.to_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "event missing numeric field %S" key)
  in
  let check_event i ev =
    let ctx e = Error (Printf.sprintf "traceEvents[%d]: %s" i e) in
    match
      let* name = req_string ev "name" in
      let* _ = req_string ev "cat" in
      let* ph = req_string ev "ph" in
      let* _ = req_number ev "ts" in
      let* _ = req_number ev "pid" in
      let* _ = req_number ev "tid" in
      match ph with
      | "X" ->
          let* dur = req_number ev "dur" in
          if dur < 0. then Error (Printf.sprintf "event %S has negative dur" name)
          else Ok ()
      | "i" | "M" -> Ok ()
      | _ -> Error (Printf.sprintf "event %S has unknown phase %S" name ph)
    with
    | Ok () -> Ok ()
    | Error e -> ctx e
  in
  match Json.member "traceEvents" json with
  | None -> Error "top level has no \"traceEvents\" field"
  | Some events -> (
      match Json.to_list events with
      | None -> Error "\"traceEvents\" is not an array"
      | Some evs ->
          let rec go i = function
            | [] -> Ok ()
            | ev :: rest -> (
                match check_event i ev with Ok () -> go (i + 1) rest | Error _ as e -> e)
          in
          go 0 evs)

module For_testing = struct
  let to_json = to_json
end
