(* The privclusterd processes a workload drives.  Every child is recorded
   so that any exit path — a finished run, a failed check, an exception,
   the watchdog — kills it and waits for it. *)

let children : int list ref = ref []

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  | exception Unix.Unix_error (_, _, _) -> None

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      ignore (waitpid pid))
    !children;
  children := []

let () = at_exit kill_all

let tenant = "bench"
let token = "bench"

type daemon = {
  pid : int;
  out : in_channel;  (* the daemon's stdout: the ready line, then its exit report *)
  listen : Server.Daemon.listen;
  wal : string;
}

(* [serve -j 2] with the CLI's defaults otherwise: fsync'd WAL, serving
   telemetry on, seed 1, 2 retries.  [trace] adds [--trace FILE
   --trace-sample 1], so every request's span tree lands in FILE at the
   clean drain. *)
let spawn ~cli ~dir ?trace () =
  let sock = Filename.concat dir "d.sock" and wal = Filename.concat dir "d.wal" in
  let args =
    [ cli; "serve"; "--socket"; sock; "--wal"; wal; "--tenant"; tenant ^ ":" ^ token; "-j"; "2" ]
    @ match trace with Some f -> [ "--trace"; f; "--trace-sample"; "1" ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let pid = Unix.create_process cli (Array.of_list args) Unix.stdin wr log in
  Unix.close wr;
  Unix.close log;
  children := pid :: !children;
  let out = Unix.in_channel_of_descr rd in
  let rec ready () =
    match input_line out with
    | l when String.starts_with ~prefix:"privclusterd listening on" l -> true
    | _ -> ready ()
    | exception End_of_file -> false
  in
  if ready () then Ok { pid; out; listen = `Unix sock; wal }
  else Error (Printf.sprintf "privclusterd exited before listening (see %s/daemon.log)" dir)

(* SIGTERM is the graceful drain: the daemon finishes accepted work,
   flushes the WAL and, under --trace, writes the trace file before it
   exits.  Reading stdout to EOF keeps its exit report from hitting a
   closed pipe. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  (try
     while true do
       ignore (input_line d.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr d.out;
  let st = waitpid d.pid in
  children := List.filter (( <> ) d.pid) !children;
  match st with Some (Unix.WEXITED 0) -> Ok () | _ -> Error "privclusterd did not drain cleanly"

(* Peak resident set (VmHWM) of a live process — this one without [pid] —
   in MiB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with Some p -> Printf.sprintf "/proc/%d/status" p | None -> "/proc/self/status"
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text -> (
      let hwm line = Scanf.sscanf_opt line "VmHWM: %f kB" Fun.id in
      match List.find_map hwm (String.split_on_char '\n' text) with
      | Some kb -> kb /. 1024.
      | None -> Float.nan)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
