type labels = (string * string) list

type hist = {
  bounds : float array;
  counts : int array;
  sum : float;
  count : int;
}

type summary = {
  quantiles : (float * float) list;
  sum : float;
  count : int;
}

type family =
  | Counter of { name : string; help : string; samples : (labels * float) list }
  | Gauge of { name : string; help : string; samples : (labels * float) list }
  | Histogram of { name : string; help : string; samples : (labels * hist) list }
  | Summary of { name : string; help : string; samples : (labels * summary) list }

let sanitize_name s =
  let ok = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false in
  let b = Bytes.of_string s in
  Bytes.iteri (fun i c -> if not (ok c) then Bytes.set b i '_') b;
  let s = Bytes.to_string b in
  match s with
  | "" -> "_"
  | s when (match s.[0] with '0' .. '9' -> true | _ -> false) -> "_" ^ s
  | s -> s

let escape_label_value s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      let body =
        String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_name k) (escape_label_value v))
             labels)
      in
      "{" ^ body ^ "}"

let render_value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let render_bound v = if v = Float.infinity then "+Inf" else render_value v

let family_name = function
  | Counter { name; _ } | Gauge { name; _ } | Histogram { name; _ } | Summary { name; _ }
    ->
      sanitize_name name

(* Scrapers diff exposition text; sort families by name and each
   family's samples by label set so output never depends on hash-table
   iteration or construction order. *)
let sort_samples samples =
  List.stable_sort (fun (l1, _) (l2, _) -> compare (l1 : labels) l2) samples

let sort_families families =
  List.stable_sort (fun f1 f2 -> compare (family_name f1) (family_name f2)) families

let render families =
  let buf = Buffer.create 1024 in
  let header name help kind =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let sample name labels v =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s\n" name (render_labels labels) (render_value v))
  in
  List.iter
    (fun family ->
      match family with
      | Counter { name; help; samples } ->
          let name = sanitize_name name in
          header name help "counter";
          List.iter (fun (labels, v) -> sample name labels v) (sort_samples samples)
      | Gauge { name; help; samples } ->
          let name = sanitize_name name in
          header name help "gauge";
          List.iter (fun (labels, v) -> sample name labels v) (sort_samples samples)
      | Histogram { name; help; samples } ->
          let name = sanitize_name name in
          header name help "histogram";
          List.iter
            (fun (labels, h) ->
              let cum = ref 0 in
              Array.iteri
                (fun i bound ->
                  cum := !cum + h.counts.(i);
                  sample (name ^ "_bucket")
                    (labels @ [ ("le", render_bound bound) ])
                    (float_of_int !cum))
                h.bounds;
              (* +Inf bucket must equal _count even when per-bucket counts
                 do not cover every observation. *)
              sample (name ^ "_bucket")
                (labels @ [ ("le", "+Inf") ])
                (float_of_int h.count);
              sample (name ^ "_sum") labels h.sum;
              sample (name ^ "_count") labels (float_of_int h.count))
            (sort_samples samples)
      | Summary { name; help; samples } ->
          let name = sanitize_name name in
          header name help "summary";
          List.iter
            (fun (labels, s) ->
              List.iter
                (fun (q, v) ->
                  sample name (labels @ [ ("quantile", render_value q) ]) v)
                s.quantiles;
              sample (name ^ "_sum") labels s.sum;
              sample (name ^ "_count") labels (float_of_int s.count))
            (sort_samples samples))
    (sort_families families);
  Buffer.contents buf

(* --- span aggregation ---------------------------------------------------- *)

type agg = {
  mutable n : int;
  mutable total_ms : float;
  mutable eps : float;
  mutable delta : float;
  mutable charged : bool;
}

let of_spans ?(prefix = "privcluster") spans =
  let tbl : (string * string, agg) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (sp : Span.span) ->
      let key = (sp.name, sp.cat) in
      let a =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
            let a = { n = 0; total_ms = 0.; eps = 0.; delta = 0.; charged = false } in
            Hashtbl.add tbl key a;
            a
      in
      a.n <- a.n + 1;
      a.total_ms <- a.total_ms +. Clock.ns_to_ms sp.dur_ns;
      match sp.span_charge with
      | None -> ()
      | Some c ->
          a.charged <- true;
          a.eps <- a.eps +. c.eps;
          a.delta <- a.delta +. c.delta)
    spans;
  let rows =
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) tbl []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  let labels (name, cat) = [ ("name", name); ("cat", cat) ] in
  let counts = List.map (fun (k, a) -> (labels k, float_of_int a.n)) rows in
  let durs = List.map (fun (k, a) -> (labels k, a.total_ms)) rows in
  let charged = List.filter (fun (_, a) -> a.charged) rows in
  let epss = List.map (fun (k, a) -> (labels k, a.eps)) charged in
  let deltas = List.map (fun (k, a) -> (labels k, a.delta)) charged in
  [
    Counter
      {
        name = prefix ^ "_spans_total";
        help = "Completed spans by name and category.";
        samples = counts;
      };
    Counter
      {
        name = prefix ^ "_span_ms_total";
        help = "Total span duration in milliseconds by name and category.";
        samples = durs;
      };
  ]
  @ (if charged = [] then []
     else
       [
         Counter
           {
             name = prefix ^ "_span_epsilon_total";
             help = "Total epsilon carried by charged spans, by name and category.";
             samples = epss;
           };
         Counter
           {
             name = prefix ^ "_span_delta_total";
             help = "Total delta carried by charged spans, by name and category.";
             samples = deltas;
           };
       ])

module For_testing = struct
  let escape_label_value = escape_label_value
end
