(* Fold a span tree by layer: for each group, the call count, the total
   time and the self time — a span's duration minus the part of its
   interval that its child spans cover.  Children that ran in parallel on
   other domains are merged into one covered interval first, so self time
   is never negative. *)

module Json = Obs.Json

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  start_us : float;
  dur_us : float;
}

let of_obs (l : Obs.Span.span list) =
  List.map
    (fun (sp : Obs.Span.span) ->
      {
        id = sp.Obs.Span.id;
        parent = sp.Obs.Span.parent;
        name = sp.Obs.Span.name;
        cat = sp.Obs.Span.cat;
        start_us = Int64.to_float sp.Obs.Span.start_ns /. 1e3;
        dur_us = Int64.to_float sp.Obs.Span.dur_ns /. 1e3;
      })
    l

(* A Chrome trace as written by [serve --trace FILE]. *)
let of_trace_file path =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* json = Json.parse text in
  let events =
    Option.value ~default:[] (Option.bind (Json.member "traceEvents" json) Json.to_list)
  in
  let num k j = Option.bind (Json.member k j) Json.to_float in
  let str k j = Option.bind (Json.member k j) Json.to_str in
  Ok
    (List.filter_map
       (fun ev ->
         match (str "ph" ev, Json.member "args" ev) with
         | Some ("X" | "i"), Some args -> (
             match (Option.bind (Json.member "span_id" args) Json.to_int, str "name" ev) with
             | Some id, Some name ->
                 Some
                   {
                     id;
                     parent = Option.bind (Json.member "parent" args) Json.to_int;
                     name;
                     cat = Option.value ~default:"" (str "cat" ev);
                     start_us = Option.value ~default:0. (num "ts" ev);
                     dur_us = Option.value ~default:0. (num "dur" ev);
                   }
             | _ -> None)
         | _ -> None)
       events)

(* The layer a span is charged to.  Job wrappers are named after their
   job kind, which would collide with the stage spans of the same name
   ("one_cluster"), so they fold into one "job" group; the noise
   mechanisms fold into "mech".  Metric names may not contain ':'. *)
let group sp =
  match sp.cat with
  | "job" -> "job"
  | "mech" -> "mech"
  | "budget" -> "budget"
  | _ -> String.map (function ':' -> '-' | c -> c) sp.name

type row = { key : string; calls : int; total_ms : float; self_ms : float }

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      match sp.parent with
      | Some p ->
          let siblings = Option.value ~default:[] (Hashtbl.find_opt kids p) in
          Hashtbl.replace kids p ((sp.start_us, sp.start_us +. sp.dur_us) :: siblings)
      | None -> ())
    spans;
  List.map
    (fun sp ->
      let lo = sp.start_us and hi = sp.start_us +. sp.dur_us in
      let c = covered ~lo ~hi (Option.value ~default:[] (Hashtbl.find_opt kids sp.id)) in
      (sp, sp.dur_us -. c))
    spans

(* Rows sorted by self time, largest first. *)
let fold spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (sp, self) ->
      let k = group sp in
      let c, t, s = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (c + 1, t +. sp.dur_us, s +. self))
    (self_times spans);
  Hashtbl.fold
    (fun key (calls, t, s) acc -> { key; calls; total_ms = t /. 1e3; self_ms = s /. 1e3 } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.self_ms a.self_ms)

(* Spans belonging to the trees rooted at the spans satisfying [root]. *)
let trees ~root spans =
  let keep = Hashtbl.create 1024 in
  let sorted = List.sort (fun a b -> compare a.id b.id) spans in
  List.filter
    (fun sp ->
      let inside =
        (sp.parent = None && root sp)
        || match sp.parent with Some p -> Hashtbl.mem keep p | None -> false
      in
      if inside then Hashtbl.replace keep sp.id ();
      inside)
    sorted
