type status = Ok | Warn | Firing

let status_to_string = function Ok -> "ok" | Warn -> "warn" | Firing -> "firing"

let status_of_string = function
  | "ok" -> Some Ok
  | "warn" -> Some Warn
  | "firing" -> Some Firing
  | _ -> None

let rank = function Ok -> 0 | Warn -> 1 | Firing -> 2
let worst statuses = List.fold_left (fun a s -> if rank s > rank a then s else a) Ok statuses

type rule =
  | Latency of { verb : string option; q : float; warn_s : float; fire_s : float }
  | Burn_rate of {
      tenant : string option;
      dataset : string option;
      warn_per_hour : float;
      fire_per_hour : float;
    }
  | Shed_rate of { warn : float; fire : float }

let fmt_opt = function None -> "*" | Some s -> s

let rule_to_line = function
  | Latency { verb; q; warn_s; fire_s } ->
      Printf.sprintf "latency q=%g verb=%s warn_ms=%g fire_ms=%g" q (fmt_opt verb)
        (warn_s *. 1000.) (fire_s *. 1000.)
  | Burn_rate { tenant; dataset; warn_per_hour; fire_per_hour } ->
      Printf.sprintf "burn tenant=%s dataset=%s warn=%g fire=%g" (fmt_opt tenant)
        (fmt_opt dataset) warn_per_hour fire_per_hour
  | Shed_rate { warn; fire } -> Printf.sprintf "shed warn=%g fire=%g" warn fire

let rule_of_line line =
  let tokens =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> Error "empty rule"
  | kind :: kvs -> (
      let pairs = ref [] in
      let bad = ref None in
      List.iter
        (fun tok ->
          match String.index_opt tok '=' with
          | None -> if !bad = None then bad := Some tok
          | Some i ->
              let k = String.sub tok 0 i in
              let v = String.sub tok (i + 1) (String.length tok - i - 1) in
              pairs := (k, v) :: !pairs)
        kvs;
      match !bad with
      | Some tok -> Error (Printf.sprintf "malformed token %S (expected key=value)" tok)
      | None -> (
          let find k = List.assoc_opt k !pairs in
          let subject k = match find k with None | Some "*" -> None | Some v -> Some v in
          let num k =
            match find k with
            | None -> Error (Printf.sprintf "missing %s=" k)
            | Some v -> (
                match float_of_string_opt v with
                | Some f when Float.is_finite f && f >= 0. -> Result.Ok f
                | _ -> Error (Printf.sprintf "bad number for %s: %S" k v))
          in
          let ( let* ) = Result.bind in
          match kind with
          | "latency" ->
              let* q = num "q" in
              if q < 0. || q > 1. then Error "latency q must be in [0,1]"
              else
                let* warn = num "warn_ms" in
                let* fire = num "fire_ms" in
                Result.Ok
                  (Latency
                     {
                       verb = subject "verb";
                       q;
                       warn_s = warn /. 1000.;
                       fire_s = fire /. 1000.;
                     })
          | "burn" ->
              let* warn = num "warn" in
              let* fire = num "fire" in
              Result.Ok
                (Burn_rate
                   {
                     tenant = subject "tenant";
                     dataset = subject "dataset";
                     warn_per_hour = warn;
                     fire_per_hour = fire;
                   })
          | "shed" ->
              let* warn = num "warn" in
              let* fire = num "fire" in
              Result.Ok (Shed_rate { warn; fire })
          | k -> Error (Printf.sprintf "unknown rule kind %S" k)))

let default_rules =
  [
    Latency { verb = None; q = 0.99; warn_s = 0.5; fire_s = 2.0 };
    Burn_rate { tenant = None; dataset = None; warn_per_hour = 0.5; fire_per_hour = 1.0 };
    Shed_rate { warn = 0.01; fire = 0.10 };
  ]

type observations = {
  latencies : unit -> (string * Hist.snapshot) list;
  burn_rates : unit -> (string * string * float) list;
  shed_rate : unit -> float * int;
}

type verdict = { rule : string; subject : string; status : status; reason : string }

let grade v ~warn ~fire = if v >= fire then Firing else if v >= warn then Warn else Ok

let eval obs rule =
  let line = rule_to_line rule in
  match rule with
  | Latency { verb; q; warn_s; fire_s } ->
      let rows = obs.latencies () in
      let rows =
        match verb with
        | None -> rows
        | Some v -> (
            match List.assoc_opt v rows with
            | Some h -> [ (v, h) ]
            | None -> [ (v, Hist.empty) ])
      in
      if rows = [] then
        [ { rule = line; subject = "verb=*"; status = Ok; reason = "no observations" } ]
      else
        List.map
          (fun (v, h) ->
            let subject = "verb=" ^ v in
            if h.Hist.count = 0 then
              { rule = line; subject; status = Ok; reason = "no observations" }
            else
              let got = Hist.quantile_ns h ~q /. 1e9 in
              {
                rule = line;
                subject;
                status = grade got ~warn:warn_s ~fire:fire_s;
                reason =
                  Printf.sprintf "p%g=%.1fms over %d requests (warn %.0fms fire %.0fms)"
                    (q *. 100.) (got *. 1000.) h.Hist.count (warn_s *. 1000.)
                    (fire_s *. 1000.);
              })
          rows
  | Burn_rate { tenant; dataset; warn_per_hour; fire_per_hour } ->
      let rows = obs.burn_rates () in
      let keep (t, d, _) =
        (match tenant with None -> true | Some x -> x = t)
        && match dataset with None -> true | Some x -> x = d
      in
      let rows = List.filter keep rows in
      if rows = [] then
        [
          {
            rule = line;
            subject =
              Printf.sprintf "tenant=%s dataset=%s" (fmt_opt tenant) (fmt_opt dataset);
            status = Ok;
            reason = "no observations";
          };
        ]
      else
        List.map
          (fun (t, d, rate) ->
            {
              rule = line;
              subject = Printf.sprintf "tenant=%s dataset=%s" t d;
              status = grade rate ~warn:warn_per_hour ~fire:fire_per_hour;
              reason =
                Printf.sprintf
                  "burning %.3f of epsilon budget per hour (warn %g fire %g)" rate
                  warn_per_hour fire_per_hour;
            })
          rows
  | Shed_rate { warn; fire } ->
      let rate, total = obs.shed_rate () in
      if total = 0 then
        [ { rule = line; subject = "queue"; status = Ok; reason = "no submissions" } ]
      else
        [
          {
            rule = line;
            subject = "queue";
            status = grade rate ~warn ~fire;
            reason =
              Printf.sprintf "shed %.2f%% of %d submissions (warn %g%% fire %g%%)"
                (rate *. 100.) total (warn *. 100.) (fire *. 100.);
          };
        ]

let eval_all obs rules = List.concat_map (eval obs) rules
let worst_of verdicts = worst (List.map (fun v -> v.status) verdicts)

let verdict_to_json v =
  Json.Obj
    [
      ("rule", Json.String v.rule);
      ("subject", Json.String v.subject);
      ("status", Json.String (status_to_string v.status));
      ("reason", Json.String v.reason);
    ]

let verdict_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  match (str "rule", str "subject", str "status", str "reason") with
  | Some rule, Some subject, Some st, Some reason ->
      Option.map
        (fun status -> { rule; subject; status; reason })
        (status_of_string st)
  | _ -> None

module For_testing = struct
  let eval = eval
  let rule_to_line = rule_to_line
end
