module Json = Obs.Json

type mutation_op =
  | Append_synth of { n : int; seed : int; frac : float; radius : float }
  | Retire_range of { from_ : int; count : int }

type kind =
  | One_cluster of { t_fraction : float }
  | K_cluster of { k : int; t_fraction : float }
  | Quantile of { axis : int; q : float }
  | Mutate of mutation_op
  | Standing of { t_fraction : float; periods : int }
  | Local_cluster of { t_fraction : float }
  | Meb of { t_fraction : float; coreset : int }

type spec = {
  id : string;
  kind : kind;
  eps : float;
  delta : float;
  beta : float;
  deadline_s : float option;
  fallback : bool;
}

let kind_name = function
  | One_cluster _ -> "one_cluster"
  | K_cluster _ -> "k_cluster"
  | Quantile _ -> "quantile"
  | Mutate _ -> "mutate"
  | Standing _ -> "standing"
  | Local_cluster _ -> "local_cluster"
  | Meb _ -> "meb_fptas"

let cost spec = { Prim.Dp.eps = spec.eps; delta = spec.delta }

(* The degraded path runs GoodRadius alone at half the job's price: the full
   pipeline splits (ε, δ) evenly between GoodRadius and GoodCenter, so the
   radius-only fallback is priced as exactly its stage share. *)
let fallback_cost spec =
  match spec.kind with
  | One_cluster _ when spec.fallback ->
      Some { Prim.Dp.eps = spec.eps /. 2.; delta = spec.delta /. 2. }
  | _ -> None

(* A kind's target-size fraction: [t = ⌈t_fraction · n⌉] for the kinds that
   locate a cluster, none for the others. *)
let t_fraction = function
  | One_cluster { t_fraction }
  | K_cluster { t_fraction; _ }
  | Standing { t_fraction; _ }
  | Local_cluster { t_fraction }
  | Meb { t_fraction; _ } ->
      Some t_fraction
  | Quantile _ | Mutate _ -> None

(* --- the jobs-file format ---------------------------------------------- *)

let ( let* ) = Result.bind
let ( let+ ) r f = Result.map f r

type _ key =
  | Float : float key
  | Int : int key
  | Pos_int : int key
  | Bool : bool key
  | Str : string key

(* One line's key=value pairs (the last of a repeated key wins), and the
   keys read from it so far: a key its kind never reads is an error. *)
type fields = { kind_tok : string; kvs : (string * string) list; mutable read : string list }

let get : type a. fields -> a key -> ?default:a -> string -> (a, string) result =
 fun f key ?default k ->
  f.read <- k :: f.read;
  let value : string -> a option =
    match key with
    | Float -> float_of_string_opt
    | Int -> int_of_string_opt
    | Pos_int -> fun v -> Option.bind (int_of_string_opt v) (fun i -> if i > 0 then Some i else None)
    | Bool -> ( function "true" | "1" -> Some true | "false" | "0" -> Some false | _ -> None)
    | Str -> Option.some
  in
  let what =
    match key with
    | Float -> "a number"
    | Int -> "an integer"
    | Pos_int -> "a positive integer"
    | Bool -> "true or false"
    | Str -> "a string"
  in
  match (List.assoc_opt k f.kvs, default) with
  | Some v, _ -> Option.to_result ~none:(Printf.sprintf "key %s: not %s: %S" k what v) (value v)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "%s requires %s=" f.kind_tok k)

(* How a kind reads its price: [Approx] requires both eps and delta;
   [Pure] is an (ε, 0) query, so delta defaults to 0; [Free] kinds touch no
   private data through a mechanism (mutations), so both default to 0. *)
type price = Approx | Pure | Free

(* The per-kind key table: each kind's name, price, and the keys its
   arguments are read from. *)
let kinds : (string * price * (fields -> (kind, string) result)) list =
  [
    ( "one_cluster",
      Approx,
      fun f ->
        let+ t_fraction = get f Float ~default:0.5 "t_fraction" in
        One_cluster { t_fraction } );
    ( "k_cluster",
      Approx,
      fun f ->
        let* k = get f Pos_int "k" in
        let+ t_fraction = get f Float ~default:0.5 "t_fraction" in
        K_cluster { k; t_fraction } );
    ( "quantile",
      Pure,
      fun f ->
        let* q = get f Float ~default:0.5 "q" in
        let* axis = get f Int ~default:0 "axis" in
        if q < 0. || q > 1. then Error "key q: must be in [0, 1]" else Ok (Quantile { axis; q }) );
    ( "mutate",
      Free,
      fun f ->
        let* op = get f Str "op" in
        match op with
        | "append" ->
            let* n = get f Pos_int "n" in
            let* seed = get f Int "seed" in
            let* frac = get f Float ~default:0.5 "frac" in
            let+ radius = get f Float ~default:0.05 "radius" in
            Mutate (Append_synth { n; seed; frac; radius })
        | "retire" ->
            let* from_ = get f Int "from" in
            let* count = get f Pos_int "count" in
            if from_ < 0 then Error "key from: must be >= 0"
            else Ok (Mutate (Retire_range { from_; count }))
        | op -> Error (Printf.sprintf "key op: expected append|retire, got %S" op) );
    ( "standing",
      Approx,
      fun f ->
        let* t_fraction = get f Float ~default:0.5 "t_fraction" in
        let+ periods = get f Pos_int "periods" in
        Standing { t_fraction; periods } );
    ( "local_cluster",
      Pure,
      fun f ->
        let+ t_fraction = get f Float ~default:0.5 "t_fraction" in
        Local_cluster { t_fraction } );
    ( "meb_fptas",
      Approx,
      fun f ->
        let* t_fraction = get f Float ~default:0.5 "t_fraction" in
        let+ coreset = get f Pos_int ~default:400 "coreset" in
        Meb { t_fraction; coreset } );
  ]

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun tok -> tok <> "")

let parse_fields kind_tok toks =
  List.fold_left
    (fun acc tok ->
      let* kvs = acc in
      match String.index_opt tok '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" tok)
      | Some i ->
          Ok ((String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)) :: kvs))
    (Ok []) toks
  |> Result.map (fun kvs -> { kind_tok; kvs; read = [] })

let parse_spec ~default_beta ~ordinal kind_tok toks =
  let* f = parse_fields kind_tok toks in
  let* price, read_kind =
    match List.find_opt (fun (name, _, _) -> name = kind_tok) kinds with
    | Some (_, price, read_kind) -> Ok (price, read_kind)
    | None ->
        Error
          (Printf.sprintf "unknown job kind %S (expected %s)" kind_tok
             (String.concat "|" (List.map (fun (name, _, _) -> name) kinds)))
  in
  let* kind = read_kind f in
  let* eps = get f Float ?default:(if price = Free then Some 0. else None) "eps" in
  let* delta = get f Float ?default:(if price = Approx then None else Some 0.) "delta" in
  let* beta = get f Float ~default:default_beta "beta" in
  let* deadline = get f Float ~default:Float.nan "deadline" in
  let* fallback = get f Bool ~default:false "fallback" in
  let* id = get f Str ~default:(Printf.sprintf "j%d" ordinal) "id" in
  match List.find_opt (fun (k, _) -> not (List.mem k f.read)) f.kvs with
  | Some (k, _) -> Error (Printf.sprintf "unknown key %S for %s" k kind_tok)
  | None ->
      if price <> Free && eps <= 0. then Error "key eps: must be > 0"
      else if delta < 0. || delta >= 1. then Error "key delta: must be in [0, 1)"
      else if fallback && (match kind with One_cluster _ -> false | _ -> true) then
        Error "key fallback: only one_cluster jobs have a degradation fallback"
      else
        let deadline_s = if Float.is_nan deadline then None else Some deadline in
        Ok { id; kind; eps; delta; beta; deadline_s; fallback }

let parse ?(default_beta = 0.1) contents =
  let rec go lineno ordinal acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
        in
        match split_ws line with
        | [] -> go (lineno + 1) ordinal acc rest
        | kind_tok :: toks -> (
            match parse_spec ~default_beta ~ordinal kind_tok toks with
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
            | Ok spec -> go (lineno + 1) (ordinal + 1) (spec :: acc) rest))
  in
  go 1 1 [] (String.split_on_char '\n' contents)

(* A kind's arguments in their one printed order, floats exact. *)
let hex = Printf.sprintf "%h"

let args = function
  | One_cluster { t_fraction } | Local_cluster { t_fraction } -> [ ("t_fraction", hex t_fraction) ]
  | K_cluster { k; t_fraction } -> [ ("k", string_of_int k); ("t_fraction", hex t_fraction) ]
  | Quantile { axis; q } -> [ ("axis", string_of_int axis); ("q", hex q) ]
  | Mutate (Append_synth { n; seed; frac; radius }) ->
      [
        ("op", "append");
        ("n", string_of_int n);
        ("seed", string_of_int seed);
        ("frac", hex frac);
        ("radius", hex radius);
      ]
  | Mutate (Retire_range { from_; count }) ->
      [ ("op", "retire"); ("from", string_of_int from_); ("count", string_of_int count) ]
  | Standing { t_fraction; periods } -> [ ("t_fraction", hex t_fraction); ("periods", string_of_int periods) ]
  | Meb { t_fraction; coreset } -> [ ("t_fraction", hex t_fraction); ("coreset", string_of_int coreset) ]

(* The mechanism parameters of a spec, excluding identity and scheduling
   knobs (id, deadline, fallback), in the jobs-file syntax.  Floats are
   rendered with %h (exact hex) — no two distinct parameterizations
   collide. *)
let params_line spec =
  args spec.kind @ [ ("eps", hex spec.eps); ("delta", hex spec.delta); ("beta", hex spec.beta) ]
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat " "
  |> Printf.sprintf "%s %s" (kind_name spec.kind)

(* The version of the answers a spec's parameters produce, bumped when
   the same parameters, epoch and RNG stream would yield different bits:
   a result-cache entry or journaled [cached] record made under an older
   version then never matches a new recomputation.  Signatures before
   the first bump carry no version field.
   2: every index is the k-d tree, counting [sqrt acc <= r] exactly, and
      the tree's k-th neighbour distance is exact (it was a bisection). *)
let answer_version = 2

(* Two specs with equal signatures drive the pipeline identically, so
   given the same dataset epoch and derived RNG stream they produce
   bit-identical outputs. *)
let signature spec = Printf.sprintf "%s version=%d" (params_line spec) answer_version

(* The parameters, then the identity and scheduling knobs: [parse]
   returns the same spec bit for bit. *)
let spec_to_line spec =
  params_line spec ^ " id=" ^ spec.id
  ^ (match spec.deadline_s with Some d -> " deadline=" ^ hex d | None -> "")
  ^ if spec.fallback then " fallback=true" else ""

(* --- results ----------------------------------------------------------- *)

type ball = { center : Geometry.Vec.t; radius : float; covered : int }

type output =
  | Cluster of { ball : ball; t : int; ratio_vs_hi : float; delta_bound : float }
  | Clusters of { balls : ball list; uncovered : int; failures : int }
  | Quantile_value of { value : float; target_rank : float }
  | Radius of { radius : float; t : int; delta_bound : float }
  | Epoch_advanced of { epoch : int; n : int }
  | Standing_accepted of { periods : int }

type status =
  | Completed of output
  | Refused of string
  | Timed_out of { elapsed_ms : float }
  | Solver_failed of string
  | Degraded of { output : output; reason : string }

let status_name = function
  | Completed _ -> "ok"
  | Refused _ -> "refused"
  | Timed_out _ -> "timeout"
  | Solver_failed _ -> "failed"
  | Degraded _ -> "degraded"

type result = { spec : spec; status : status; latency_ms : float; attempts : int }

(* The one output encoder.  [exact] selects the journal form: hex floats
   (bit-exact through {!output_of_wire}) and a [kind] tag; otherwise floats
   are decimal and untagged, the human-readable reply form. *)
let encode_output ~exact output =
  let float x = if exact then Json.String (hex x) else Json.Float x in
  let ball { center; radius; covered } =
    Json.Obj
      [
        ("center", Json.List (Array.to_list (Array.map float center)));
        ("radius", float radius);
        ("covered", Json.Int covered);
      ]
  in
  let tag, fields =
    match output with
    | Cluster { ball = b; t; ratio_vs_hi; delta_bound } ->
        ( "cluster",
          [
            ("ball", ball b);
            ("t", Json.Int t);
            ("ratio_vs_hi", float ratio_vs_hi);
            ("delta_bound", float delta_bound);
          ] )
    | Clusters { balls; uncovered; failures } ->
        ( "clusters",
          [
            ("balls", Json.List (List.map ball balls));
            ("uncovered", Json.Int uncovered);
            ("failures", Json.Int failures);
          ] )
    | Quantile_value { value; target_rank } ->
        ("quantile", [ ("value", float value); ("target_rank", float target_rank) ])
    | Radius { radius; t; delta_bound } ->
        ( "radius",
          [ ("radius", float radius); ("t", Json.Int t); ("delta_bound", float delta_bound) ] )
    | Epoch_advanced { epoch; n } -> ("epoch", [ ("epoch", Json.Int epoch); ("n", Json.Int n) ])
    | Standing_accepted { periods } -> ("standing", [ ("periods", Json.Int periods) ])
  in
  Json.Obj (if exact then ("kind", Json.String tag) :: fields else fields)

let output_json = encode_output ~exact:false
let output_to_wire = encode_output ~exact:true

let result_to_json r =
  let base =
    [
      ("id", Json.String r.spec.id);
      ("kind", Json.String (kind_name r.spec.kind));
      ("status", Json.String (status_name r.status));
      ("eps", Json.Float r.spec.eps);
      ("delta", Json.Float r.spec.delta);
      ("latency_ms", Json.Float r.latency_ms);
      ("attempts", Json.Int r.attempts);
    ]
  in
  let extra =
    match r.status with
    | Completed o -> [ ("output", output_json o) ]
    | Refused msg -> [ ("reason", Json.String msg) ]
    | Timed_out { elapsed_ms } -> [ ("elapsed_ms", Json.Float elapsed_ms) ]
    | Solver_failed msg -> [ ("reason", Json.String msg) ]
    | Degraded { output; reason } ->
        [ ("output", output_json output); ("reason", Json.String reason) ]
  in
  Json.Obj (base @ extra)

let output_detail = function
  | Cluster { ball; t; ratio_vs_hi; _ } ->
      Printf.sprintf "radius %.4f covered %d/%d (w=%.2f)" ball.radius ball.covered t ratio_vs_hi
  | Clusters { balls; uncovered; failures } ->
      Printf.sprintf "%d balls, %d uncovered, %d failed iters" (List.length balls) uncovered
        failures
  | Quantile_value { value; target_rank } ->
      Printf.sprintf "value %.4f (target rank %.0f)" value target_rank
  | Radius { radius; t; _ } -> Printf.sprintf "radius %.4f for t=%d (no center)" radius t
  | Epoch_advanced { epoch; n } -> Printf.sprintf "epoch %d (%d points)" epoch n
  | Standing_accepted { periods } -> Printf.sprintf "standing query accepted for %d periods" periods

let detail r =
  match r.status with
  | Completed o -> output_detail o
  | Refused msg | Solver_failed msg -> msg
  | Timed_out { elapsed_ms } -> Printf.sprintf "deadline exceeded after %.0f ms" elapsed_ms
  | Degraded { output; reason } -> Printf.sprintf "%s [degraded: %s]" (output_detail output) reason

let pp_result ppf r =
  Format.fprintf ppf "%-12s %-12s %-8s %6.1fms  %s" r.spec.id (kind_name r.spec.kind)
    (status_name r.status) r.latency_ms (detail r)

(* Decoding of the exact form: a replayed cache entry must reproduce the
   recorded answer bit-for-bit. *)
let dehex = function
  | Json.String s -> ( match float_of_string_opt s with Some f -> Ok f | None -> Error "bad float")
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error "expected float"

let output_of_wire json =
  let field obj k = Option.to_result ~none:("missing field " ^ k) (Json.member k obj) in
  let int obj k =
    let* v = field obj k in
    Option.to_result ~none:("field " ^ k ^ ": expected int") (Json.to_int v)
  in
  let float obj k = Result.bind (field obj k) dehex in
  let list obj k decode =
    match field obj k with
    | Ok (Json.List xs) ->
        List.fold_right
          (fun x acc ->
            let* acc = acc in
            let+ y = decode x in
            y :: acc)
          xs (Ok [])
    | Ok _ -> Error ("field " ^ k ^ ": expected list")
    | Error _ as e -> e
  in
  let ball b =
    let* center = list b "center" dehex in
    let* radius = float b "radius" in
    let+ covered = int b "covered" in
    { center = Array.of_list center; radius; covered }
  in
  let* kind =
    Result.bind (field json "kind") (fun v ->
        Option.to_result ~none:"field kind: expected string" (Json.to_str v))
  in
  match kind with
  | "cluster" ->
      let* ball = Result.bind (field json "ball") ball in
      let* t = int json "t" in
      let* ratio_vs_hi = float json "ratio_vs_hi" in
      let+ delta_bound = float json "delta_bound" in
      Cluster { ball; t; ratio_vs_hi; delta_bound }
  | "clusters" ->
      let* balls = list json "balls" ball in
      let* uncovered = int json "uncovered" in
      let+ failures = int json "failures" in
      Clusters { balls; uncovered; failures }
  | "quantile" ->
      let* value = float json "value" in
      let+ target_rank = float json "target_rank" in
      Quantile_value { value; target_rank }
  | "radius" ->
      let* radius = float json "radius" in
      let* t = int json "t" in
      let+ delta_bound = float json "delta_bound" in
      Radius { radius; t; delta_bound }
  | "epoch" ->
      let* epoch = int json "epoch" in
      let+ n = int json "n" in
      Epoch_advanced { epoch; n }
  | "standing" ->
      let+ periods = int json "periods" in
      Standing_accepted { periods }
  | k -> Error ("unknown output kind " ^ k)
