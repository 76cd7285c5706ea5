(* End-to-end benchmark driver for privclusterd and the batch engine.

     run.exe --workload NAME [--seed S] [--trace 0|1] [--json FILE]
     run.exe [--seed S] [--trace 0|1] [--json FILE]     every workload
     run.exe --smoke                                     all four, tiny
     run.exe --compare DIR1 DIR2                         repeat.sh's verdicts

   One workload per process: without --workload the driver runs itself
   once per workload (and per tracing mode, both unless --trace is
   given).  Each measured phase is a fixed amount of work; benchmark
   runners that pass [--seconds T] get the same runs, T is ignored.  The
   last line of standard output is one JSON object,
   {"correct", "attempted", "failed", "metrics"}; the metrics are the
   end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
   See README.md for the workloads and the metrics. *)

open Common

let workloads =
  [
    ("serve-dense", Serve.serve_dense);
    ("serve-cached", Serve.serve_cached);
    ("churn-window", Serve.churn_window);
    ("batch-tree", Batch.batch_tree);
  ]

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME] [--seed S] [--trace 0|1] [--json FILE] [--smoke] | \
     --compare DIR1 DIR2";
  exit 2

type args = {
  workload : string option;
  seed : int;
  trace : int option;
  json : string option;
  smoke : bool;
  compare : (string * string) option;
}

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: r -> go { a with workload = Some w } r
    | "--seed" :: s :: r -> (
        match int_of_string_opt s with Some s -> go { a with seed = s } r | None -> usage ())
    | "--seconds" :: s :: r when float_of_string_opt s <> None -> go a r
    | "--trace" :: (("0" | "1") as t) :: r -> go { a with trace = Some (int_of_string t) } r
    | "--json" :: f :: r -> go { a with json = Some f } r
    | "--smoke" :: r -> go { a with smoke = true } r
    | "--compare" :: d1 :: d2 :: r -> go { a with compare = Some (d1, d2) } r
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = 1;
      trace = None;
      json = None;
      smoke = false;
      compare = None;
    }
    (List.tl (Array.to_list Sys.argv))

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let read_json f =
  match In_channel.with_open_text f In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> Result.to_option (Json.parse text)

let write_json f j =
  Out_channel.with_open_text f (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* --- run metadata -------------------------------------------------------- *)

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> Json.Null
  | text -> (
      let field line =
        match String.index_opt line ':' with
        | Some i
          when List.mem
                 (String.trim (String.sub line 0 i))
                 [ "model name"; "Processor"; "cpu model" ] ->
            Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None
      in
      match List.find_map field (String.split_on_char '\n' text) with
      | Some m -> Json.String m
      | None -> Json.Null)

let git_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error (_, _, _) -> Json.Null
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Json.String line
      | _ -> Json.Null)

let meta a =
  [
    ("hardware_threads", Json.Int (Domain.recommended_domain_count ()));
    ("cpu_model", cpu_model ());
    ("kernels_active", Json.Bool (Kernel.native_active ()));
    ("ocaml_version", Json.String Sys.ocaml_version);
    ("git_commit", git_commit ());
    ("seed", Json.Int a.seed);
    ("fsync", Json.Bool true);
  ]

(* --- the result line ----------------------------------------------------- *)

(* Every digit of the double: 15 significant digits when they read back
   exactly, 17 otherwise. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let metric (k, u, v) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (number v) u in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* --- one workload -------------------------------------------------------- *)

let print_report a ~name ~trace o metrics =
  Printf.printf "== %s (seed %d, trace %d)\n" name a.seed (if trace then 1 else 0);
  List.iter
    (fun (k, v) -> Printf.printf "  meta    %-32s %s\n" k (Json.to_string ~indent:false v))
    (meta a @ List.rev o.info);
  List.iter (fun (k, u, v) -> Printf.printf "  metric  %-32s %14.4f %s\n" k v u) metrics;
  if o.rows <> [] then begin
    (* The traced ledger: per request, each span group's calls, total and
       self time, and its self time as a share of the wall time. *)
    Printf.printf "  %-36s %8s %12s %12s %8s\n" "span group, per request" "calls" "total_ms"
      "self_ms" "share";
    List.iter
      (fun r ->
        Printf.printf "  %-36s %8.2f %12.4f %12.4f %7.1f%%\n" r.group r.calls r.total_ms r.self_ms
          (100. *. r.share))
      o.rows;
    Printf.printf "  %-36s %8s %12s %12s %7.1f%%\n" "(unattributed)" "" "" ""
      (100. *. (1. -. List.fold_left (fun acc r -> acc +. r.share) 0. o.rows))
  end;
  List.iter
    (fun (c, ok, detail) ->
      Printf.printf "  check   %s %s%s\n" (if ok then "PASS" else "FAIL") c
        (if ok then "" else " — " ^ detail))
    (List.rev o.checks)

let report_json a ~name ~trace ~correct o metrics =
  Json.Obj
    [
      ("workload", Json.String name);
      ("trace", Json.Bool trace);
      ("meta", Json.Obj (meta a @ List.rev o.info));
      ("correct", Json.Bool correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", Json.Obj (List.map (fun (k, _, v) -> (k, Json.Float v)) metrics));
      ( "checks",
        Json.List
          (List.rev_map
             (fun (c, ok, _) -> Json.Obj [ ("check", Json.String c); ("ok", Json.Bool ok) ])
             o.checks) );
      ( "spans",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("group", Json.String r.group);
                   ("calls", Json.Float r.calls);
                   ("total_ms", Json.Float r.total_ms);
                   ("self_ms", Json.Float r.self_ms);
                   ("share", Json.Float r.share);
                 ])
             o.rows) );
    ]

let run_one a name body =
  let root = Sys.getcwd () in
  (* run.exe sits in _build/default/bench/e2e, the CLI in _build/default/bin. *)
  let cli =
    let build = Filename.(dirname (dirname (dirname (absolute Sys.executable_name)))) in
    Filename.concat build "bin/privcluster_cli.exe"
  in
  if not (Sys.file_exists cli) then begin
    Printf.eprintf "run: %s not found; build it with `dune build ./bin/privcluster_cli.exe`\n" cli;
    exit 2
  end;
  let json_out = Option.map absolute a.json in
  let work = Filename.concat root ".bench_e2e" in
  let dir = Filename.concat work (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  at_exit (fun () ->
      Proc.kill_all ();
      Sys.chdir root;
      Proc.rm_rf dir;
      try Sys.rmdir work with Sys_error _ -> ());
  (* A watchdog under the 180 s a run may take: on expiry the at_exit
     handler stops every daemon and removes the run directory. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "run: watchdog expired";
         exit 3));
  ignore (Unix.alarm 170);
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  Sys.chdir dir;
  let trace = a.trace = Some 1 in
  let ctx =
    {
      cli;
      seed = a.seed;
      trace;
      smoke = a.smoke;
      setups = (if trace || a.smoke then 1 else 3);
    }
  in
  let o = outcome () in
  (try body o ctx
   with Failed m ->
     Printf.eprintf "run: %s: %s\n" name m;
     exit 1);
  Sys.chdir root;
  set o "fail_share" (float_of_int o.failed /. float_of_int (max 1 o.attempted));
  let catalog = if trace then Common.layer else Common.e2e in
  (* Every end-to-end metric is measured on every workload: a missing or
     non-finite one is a driver bug.  A per-layer metric the workload does
     not exercise reads 0; one it measured as nan or infinite fails a
     check and reads 0. *)
  let measured k = List.assoc_opt k o.metrics in
  let finite k = Option.fold ~none:false ~some:Float.is_finite (measured k) in
  (match List.filter (fun (k, _) -> not (finite k)) catalog with
  | missing when (not trace) && missing <> [] ->
      Printf.eprintf "run: %s did not measure a finite %s\n" name
        (String.concat ", " (List.map fst missing));
      exit 1
  | _ -> ());
  List.iter
    (fun (k, _) ->
      match measured k with
      | Some v when not (Float.is_finite v) ->
          check o ("metric " ^ k ^ " is finite") false (Printf.sprintf "measured %g" v)
      | _ -> ())
    catalog;
  let value k = match measured k with Some v when Float.is_finite v -> v | _ -> 0. in
  let metrics = List.map (fun (k, u) -> (k, u, value k)) catalog in
  let correct = o.failed = 0 in
  print_report a ~name ~trace o metrics;
  Option.iter (fun f -> write_json f (report_json a ~name ~trace ~correct o metrics)) json_out;
  print_endline (result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics);
  exit (if correct then 0 else 1)

(* --- every workload, each in its own process ----------------------------- *)

let child a ~workload ~trace ~json =
  let args =
    [
      Sys.executable_name;
      "--workload";
      workload;
      "--seed";
      string_of_int a.seed;
      "--trace";
      string_of_int trace;
      "--json";
      json;
    ]
    @ if a.smoke then [ "--smoke" ] else []
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr
  in
  Proc.waitpid pid = Some (Unix.WEXITED 0)

(* BENCHMARK.json must name exactly the workloads and metrics this driver
   reports. *)
let catalog_matches () =
  match read_json "BENCHMARK.json" with
  | None -> false
  | Some b ->
      let field k m = Option.value ~default:"" (str k m) in
      let listed key =
        List.sort compare (List.map (fun m -> (field "name" m, field "unit" m)) (list key b))
      in
      listed "end_to_end" = List.sort compare Common.e2e
      && listed "per_layer" = List.sort compare Common.layer
      && List.sort compare (List.filter_map (str "name") (list "workloads" b))
         = List.sort compare (List.map fst workloads)

let run_all a =
  let work = ".bench_e2e" in
  let tmp = Filename.concat work (Printf.sprintf "all-%d" (Unix.getpid ())) in
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir tmp 0o755;
  let modes = match a.trace with Some t -> [ t ] | None -> if a.smoke then [ 1 ] else [ 0; 1 ] in
  let runs =
    List.concat_map
      (fun (w, _) ->
        List.map
          (fun t ->
            let json = Filename.concat tmp (Printf.sprintf "%s-%d.json" w t) in
            let ok = child a ~workload:w ~trace:t ~json in
            (w, t, ok, read_json json))
          modes)
      workloads
  in
  Proc.rm_rf tmp;
  (try Sys.rmdir work with Sys_error _ -> ());
  let catalog_ok = (not a.smoke) || catalog_matches () in
  if not catalog_ok then
    prerr_endline "run: BENCHMARK.json's workloads or metrics differ from the driver's catalog";
  let correct = catalog_ok && List.for_all (fun (_, _, ok, j) -> ok && j <> None) runs in
  let sum k =
    List.fold_left
      (fun acc (_, _, _, j) -> acc + Option.value ~default:0 (Option.bind j (int k)))
      0 runs
  in
  (* Every workload's metrics, named WORKLOAD.METRIC. *)
  let metrics =
    List.concat_map
      (fun (w, t, _, j) ->
        let units = if t = 1 then Common.layer else Common.e2e in
        match Option.bind j (Json.member "metrics") with
        | Some (Json.Obj fs) ->
            List.map
              (fun (k, v) ->
                ( w ^ "." ^ k,
                  Option.value ~default:"" (List.assoc_opt k units),
                  Option.value ~default:0. (Json.to_float v) ))
              fs
        | _ -> [])
      runs
  in
  Option.iter
    (fun f ->
      write_json (absolute f)
        (Json.Obj
           [
             ("meta", Json.Obj (meta a));
             ("runs", Json.List (List.filter_map (fun (_, _, _, j) -> j) runs));
           ]))
    a.json;
  if a.smoke then print_endline (if correct then "smoke OK" else "smoke FAILED");
  print_endline (result_line ~correct ~attempted:(sum "attempted") ~failed:(sum "failed") metrics);
  exit (if correct then 0 else 1)

(* --- repeat.sh's comparison ---------------------------------------------- *)

(* Each DIR holds one round: a result line per run, WORKLOAD-K.json.  A
   metric passes when the medians of its two rounds differ by at most its
   bound, relative to the first; a missing or incorrect run fails every
   metric of its workload. *)
let compare_runs d1 d2 =
  let b =
    match read_json "BENCHMARK.json" with
    | Some b -> b
    | None ->
        prerr_endline "run: BENCHMARK.json not readable";
        exit 2
  in
  let value dir w k =
    let runs =
      List.filter (String.starts_with ~prefix:(w ^ "-")) (Array.to_list (Sys.readdir dir))
    in
    let v f =
      match read_json (Filename.concat dir f) with
      | Some j when Json.member "correct" j = Some (Json.Bool true) ->
          Option.bind (path [ "metrics"; k; "value" ] j) Json.to_float
      | _ -> None
    in
    match List.map v runs with
    | vs when runs <> [] && List.for_all Option.is_some vs ->
        Some (median (Array.of_list (List.filter_map Fun.id vs)))
    | _ -> None
  in
  let fails = ref 0 in
  Printf.printf "%-14s %-18s %14s %14s %9s %7s  verdict\n" "workload" "metric" "median 1"
    "median 2" "diff" "bound";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun m ->
          let k = Option.value ~default:"" (str "name" m) in
          let bound = Option.value ~default:0. (num "bound" m) in
          match (value d1 w k, value d2 w k) with
          | Some v1, Some v2 ->
              let diff = (v2 -. v1) /. v1 in
              let pass = Float.abs diff <= bound in
              if not pass then incr fails;
              Printf.printf "%-14s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n" w k v1 v2
                (100. *. diff) (100. *. bound)
                (if pass then "PASS" else "FAIL")
          | _ ->
              incr fails;
              Printf.printf "%-14s %-18s %14s %14s %9s %7s  FAIL (missing or incorrect run)\n" w k
                "-" "-" "-" "-")
        (list "end_to_end" b))
    workloads;
  exit (if !fails = 0 then 0 else 1)

let () =
  let a = parse_args () in
  match (a.compare, a.workload) with
  | Some (d1, d2), _ -> compare_runs d1 d2
  | None, Some w -> (
      match List.assoc_opt w workloads with
      | Some body -> run_one a w body
      | None ->
          Printf.eprintf "run: unknown workload %s (one of %s)\n" w
            (String.concat ", " (List.map fst workloads));
          exit 2)
  | None, None -> run_all a
