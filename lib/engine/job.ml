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
    | Bool -> ( function "true" | "1" -> Some true | "false" | "0" -> Some false | _ -> None)
    | Str -> Option.some
  in
  let what =
    match key with
    | Float -> "a number"
    | Int -> "an integer"
    | Bool -> "true or false"
    | Str -> "a string"
  in
  match (List.assoc_opt k f.kvs, default) with
  | Some v, _ -> Option.to_result ~none:(Printf.sprintf "key %s: not %s: %S" k what v) (value v)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "%s requires %s=" f.kind_tok k)

let get_t_fraction f = get f Float ~default:0.5 "t_fraction"

(* How a kind reads its price: [Approx] requires both eps and delta;
   [Pure] is an (ε, 0) query, so delta defaults to 0; [Free] kinds touch no
   private data through a mechanism (mutations), so both default to 0. *)
type price = Approx | Pure | Free

(* The per-kind key table: each kind's name, price, and the keys its
   arguments are read from.  Ranges are [validate]'s business. *)
let kinds : (string * price * (fields -> (kind, string) result)) list =
  [
    ( "one_cluster",
      Approx,
      fun f ->
        let+ t_fraction = get_t_fraction f in
        One_cluster { t_fraction } );
    ( "k_cluster",
      Approx,
      fun f ->
        let* k = get f Int "k" in
        let+ t_fraction = get_t_fraction f in
        K_cluster { k; t_fraction } );
    ( "quantile",
      Pure,
      fun f ->
        let* q = get f Float ~default:0.5 "q" in
        let+ axis = get f Int ~default:0 "axis" in
        Quantile { axis; q } );
    ( "mutate",
      Free,
      fun f ->
        let* op = get f Str "op" in
        match op with
        | "append" ->
            let* n = get f Int "n" in
            let* seed = get f Int "seed" in
            let* frac = get f Float ~default:0.5 "frac" in
            let+ radius = get f Float ~default:0.05 "radius" in
            Mutate (Append_synth { n; seed; frac; radius })
        | "retire" ->
            let* from_ = get f Int "from" in
            let+ count = get f Int "count" in
            Mutate (Retire_range { from_; count })
        | op -> Error (Printf.sprintf "key op: expected append|retire, got %S" op) );
    ( "standing",
      Approx,
      fun f ->
        let* t_fraction = get_t_fraction f in
        let+ periods = get f Int "periods" in
        Standing { t_fraction; periods } );
    ( "local_cluster",
      Pure,
      fun f ->
        let+ t_fraction = get_t_fraction f in
        Local_cluster { t_fraction } );
    ( "meb_fptas",
      Approx,
      fun f ->
        let* t_fraction = get_t_fraction f in
        let+ coreset = get f Int ~default:400 "coreset" in
        Meb { t_fraction; coreset } );
  ]

let price_of kind =
  let _, price, _ = List.find (fun (name, _, _) -> name = kind_name kind) kinds in
  price

(* Whether a worker running the kind reads the epoch's memoized GoodRadius
   sweep ([Registry.index]); the first such job of a cold epoch builds it
   while later ones wait on the memo.  [k_cluster] builds its own index. *)
let reads_sweep = function
  | One_cluster _ -> true
  | K_cluster _ | Quantile _ | Mutate _ | Standing _ | Local_cluster _ | Meb _ -> false

(* The range of the synthesis parameters an append and a registration
   share: [Synth.planted_ball] needs a cluster fraction in (0, 1] and a
   finite, non-negative radius.  Each comparison is false for NaN. *)
let synth_params_error ~frac ~radius =
  if not (frac > 0. && frac <= 1.) then Some (Printf.sprintf "frac must be in (0, 1] (got %g)" frac)
  else if not (Float.is_finite radius && radius >= 0.) then
    Some (Printf.sprintf "radius must be finite and >= 0 (got %g)" radius)
  else None

(* The most slices a standing query may reserve.  Registration reserves
   every slice up front, one ledger entry (and, in the daemon, one fsync'd
   journal record) each, and each reservation reads the ledger's history,
   so registration costs grow quadratically in [periods]; the cap keeps
   one line from holding the executor for seconds. *)
let max_periods = 1000

(* Every check a spec passes before admission, wherever it was built:
   [parse] runs each jobs-file line through it (a daemon request's jobs
   too) and the client each write it renders to a line, so nothing is
   charged or journaled for a spec a jobs line could not carry.  Each
   comparison is false for NaN. *)
let validate spec =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let positive key v = if v > 0 then Ok () else bad "key %s: must be a positive integer" key in
  let* () =
    if spec.id = "" || String.exists (fun c -> c <= ' ' || c = '#') spec.id then
      bad "key id: must be non-empty, without whitespace or '#' (got %S)" spec.id
    else Ok ()
  in
  let* () =
    match t_fraction spec.kind with
    (* so [t = ⌈t_fraction · n⌉] is in [1, n] *)
    | Some x when not (x > 0. && x <= 1.) -> bad "key t_fraction: must be in (0, 1]"
    | _ -> Ok ()
  in
  let* () =
    match spec.kind with
    | K_cluster { k; _ } -> positive "k" k
    | Quantile { q; _ } -> if q >= 0. && q <= 1. then Ok () else bad "key q: must be in [0, 1]"
    | Mutate (Append_synth { n; frac; radius; _ }) -> (
        let* () = positive "n" n in
        match synth_params_error ~frac ~radius with Some m -> Error m | None -> Ok ())
    | Mutate (Retire_range { from_; count }) ->
        if from_ < 0 then bad "key from: must be >= 0" else positive "count" count
    | Standing { periods; _ } ->
        if periods > max_periods then bad "key periods: must be at most %d" max_periods
        else positive "periods" periods
    | Meb { coreset; _ } -> positive "coreset" coreset
    | One_cluster _ | Local_cluster _ -> Ok ()
  in
  if price_of spec.kind <> Free && not (spec.eps > 0. && spec.eps < Float.infinity) then
    bad "key eps: must be finite and > 0"
  else if not (spec.delta >= 0. && spec.delta < 1.) then bad "key delta: must be in [0, 1)"
  else if spec.fallback && (match spec.kind with One_cluster _ -> false | _ -> true) then
    bad "key fallback: only one_cluster jobs have a degradation fallback"
  else Ok spec

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
      let deadline_s = if Float.is_nan deadline then None else Some deadline in
      validate { id; kind; eps; delta; beta; deadline_s; fallback }

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
      the tree's k-th neighbour distance is exact (it was a bisection).
   3: histogram cells in first-seen order (they were in the stdlib
      [Hashtbl]'s bucket order), so a box may get another noise draw. *)
let answer_version = 3

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

type ball = { center : Geometry.Vec.t; radius : float }

type output =
  | Cluster of { ball : ball; t : int; delta_bound : float }
  | Clusters of { balls : ball list; failures : int }
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
  let ball { center; radius } =
    Json.Obj
      [ ("center", Json.List (Array.to_list (Array.map float center))); ("radius", float radius) ]
  in
  let tag, fields =
    match output with
    | Cluster { ball = b; t; delta_bound } ->
        ("cluster", [ ("ball", ball b); ("t", Json.Int t); ("delta_bound", float delta_bound) ])
    | Clusters { balls; failures } ->
        ("clusters", [ ("balls", Json.List (List.map ball balls)); ("failures", Json.Int failures) ])
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
  | Cluster { ball; t; _ } -> Printf.sprintf "radius %.4f for t=%d" ball.radius t
  | Clusters { balls; failures } ->
      Printf.sprintf "%d balls, %d failed iters" (List.length balls) failures
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
    let+ radius = float b "radius" in
    { center = Array.of_list center; radius }
  in
  let* kind =
    Result.bind (field json "kind") (fun v ->
        Option.to_result ~none:"field kind: expected string" (Json.to_str v))
  in
  match kind with
  | "cluster" ->
      let* ball = Result.bind (field json "ball") ball in
      let* t = int json "t" in
      let+ delta_bound = float json "delta_bound" in
      Cluster { ball; t; delta_bound }
  | "clusters" ->
      let* balls = list json "balls" ball in
      let+ failures = int json "failures" in
      Clusters { balls; failures }
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
