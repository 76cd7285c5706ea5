type kind = Crash | Stall of float

type rule = { kind : kind; attempts : int }

let rule ?(attempts = 1) kind = { kind; attempts }

type t =
  | None_
  | Explicit of (int, rule) Hashtbl.t
  | Seeded of { seed : int; rate : float; attempts : int }

exception Injected of string

let none = None_
let is_none = function None_ -> true | _ -> false

let explicit rules =
  match rules with
  | [] -> None_
  | _ ->
      let tbl = Hashtbl.create (List.length rules) in
      List.iter
        (fun (i, r) ->
          if i < 0 then invalid_arg "Faults.explicit: negative job index";
          if r.attempts <= 0 then invalid_arg "Faults.explicit: attempts must be positive";
          Hashtbl.replace tbl i r)
        rules;
      Explicit tbl

let seeded ?(attempts = 1) ~seed ~rate () =
  if rate < 0. || rate > 1. then invalid_arg "Faults.seeded: rate must be in [0, 1]";
  if attempts <= 0 then invalid_arg "Faults.seeded: attempts must be positive";
  if rate = 0. then None_ else Seeded { seed; rate; attempts }

let lookup t ~index ~attempt =
  if index < 0 || attempt < 0 then invalid_arg "Faults.lookup: negative index or attempt";
  match t with
  | None_ -> None
  | Explicit tbl -> (
      match Hashtbl.find_opt tbl index with
      | Some r when attempt < r.attempts -> Some r.kind
      | _ -> None)
  | Seeded { seed; rate; attempts } ->
      if attempt >= attempts then None
      else
        (* One derived stream per job index: whether job [i] faults is a
           pure function of (seed, i), independent of batch composition,
           domain count or scheduling. *)
        let rng = Prim.Rng.derive (Prim.Rng.create ~seed ()) ~stream:index in
        if Prim.Rng.float rng 1.0 >= rate then None else Some Crash

let arm t ~index ~attempt =
  match lookup t ~index ~attempt with
  | None -> ()
  | Some Crash ->
      raise (Injected (Printf.sprintf "injected crash (job %d, attempt %d)" index attempt))
  | Some (Stall s) -> Unix.sleepf s

(* --- parsing ----------------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let parse_int name s =
  match int_of_string_opt s with Some i -> Ok i | None -> fail "%s: not an integer: %S" name s

let parse_float name s =
  match float_of_string_opt s with Some f -> Ok f | None -> fail "%s: not a number: %S" name s

let ( let* ) = Result.bind

(* kind@INDEX[=ARG][xATTEMPTS], e.g. "crash@2", "stall@5=0.25", "crash@7x3". *)
let parse_rule tok =
  match String.index_opt tok '@' with
  | None -> fail "expected kind@index, got %S" tok
  | Some at -> (
      let kind_s = String.sub tok 0 at in
      let rest = String.sub tok (at + 1) (String.length tok - at - 1) in
      let rest, attempts_s =
        match String.index_opt rest 'x' with
        | Some x ->
            (String.sub rest 0 x, Some (String.sub rest (x + 1) (String.length rest - x - 1)))
        | None -> (rest, None)
      in
      let rest, arg_s =
        match String.index_opt rest '=' with
        | Some eq ->
            (String.sub rest 0 eq, Some (String.sub rest (eq + 1) (String.length rest - eq - 1)))
        | None -> (rest, None)
      in
      let* index = parse_int "index" rest in
      let* attempts = match attempts_s with None -> Ok 1 | Some s -> parse_int "attempts" s in
      if index < 0 then fail "index must be non-negative in %S" tok
      else if attempts <= 0 then fail "attempts must be positive in %S" tok
      else
        let* kind =
          match (kind_s, arg_s) with
          | "crash", None -> Ok Crash
          | "stall", Some s ->
              let* d = parse_float "stall seconds" s in
              if d < 0. then fail "stall seconds must be non-negative in %S" tok else Ok (Stall d)
          | "stall", None -> fail "stall needs a duration: stall@INDEX=SECONDS"
          | "crash", Some _ -> fail "crash takes no =argument in %S" tok
          | k, _ -> fail "unknown fault kind %S (expected crash|stall)" k
        in
        Ok (index, { kind; attempts }))

(* seed=S,rate=R[,attempts=N] *)
let parse_seeded toks =
  let rec go seed rate attempts = function
    | [] -> (
        match (seed, rate) with
        | Some seed, Some rate ->
            if rate < 0. || rate > 1. then fail "rate must be in [0, 1]"
            else Ok (seeded ~attempts ~seed ~rate ())
        | None, _ -> fail "seeded schedule needs seed="
        | _, None -> fail "seeded schedule needs rate=")
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | None -> fail "expected key=value, got %S" tok
        | Some eq -> (
            let k = String.sub tok 0 eq in
            let v = String.sub tok (eq + 1) (String.length tok - eq - 1) in
            match k with
            | "seed" ->
                let* s = parse_int "seed" v in
                go (Some s) rate attempts rest
            | "rate" ->
                let* r = parse_float "rate" v in
                go seed (Some r) attempts rest
            | "attempts" ->
                let* a = parse_int "attempts" v in
                if a <= 0 then fail "attempts must be positive" else go seed rate a rest
            | k -> fail "unknown key %S (expected seed|rate|attempts)" k))
  in
  go None None 1 toks

let parse s =
  let toks =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  match toks with
  | [] -> Ok None_
  | [ "none" ] -> Ok None_
  | first :: _ when String.length first >= 5 && String.sub first 0 5 = "seed=" -> parse_seeded toks
  | _ ->
      let rec go acc = function
        | [] -> Ok (explicit (List.rev acc))
        | tok :: rest ->
            let* r = parse_rule tok in
            go (r :: acc) rest
      in
      go [] toks

let to_string = function
  | None_ -> "none"
  | Seeded { seed; rate; attempts } ->
      Printf.sprintf "seed=%d,rate=%g,attempts=%d" seed rate attempts
  | Explicit tbl ->
      Hashtbl.fold (fun i r acc -> (i, r) :: acc) tbl []
      |> List.sort compare
      |> List.map (fun (i, { kind; attempts }) ->
             let base =
               match kind with
               | Crash -> Printf.sprintf "crash@%d" i
               | Stall s -> Printf.sprintf "stall@%d=%g" i s
             in
             if attempts = 1 then base else Printf.sprintf "%sx%d" base attempts)
      |> String.concat ","

let env_var = "PRIVCLUSTER_FAULTS"

let of_env () =
  match Sys.getenv_opt env_var with
  | None -> None_
  | Some s -> (
      match parse s with
      | Ok t -> t
      | Error e -> invalid_arg (Printf.sprintf "Faults.of_env: %s=%S: %s" env_var s e))

module For_testing = struct
  let env_var = env_var
  let lookup = lookup
  let seeded = seeded
end
