type 'a task = { payload : 'a; deadline_s : float option }

let task ?deadline_s payload = { payload; deadline_s }

type 'b outcome = Done of 'b | Timed_out of { elapsed_ms : float } | Failed of string

let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* Backoff before retry [attempt] (attempt ≥ 1): capped exponential.  Purely a
   pacing concern — determinism never depends on it, because every attempt of a
   task replays the same derived RNG stream. *)
let backoff_base_s = 1e-3

let backoff_delay attempt = Float.min 0.25 (backoff_base_s *. (2. ** float_of_int (attempt - 1)))

(* --- helper domains ------------------------------------------------------ *)

(* A batch while its caller runs it: the worker loop, the helpers that may
   still join it, the helpers inside its loop, and the first exception a
   helper's loop let out (re-raised on the caller). *)
type batch = {
  work : unit -> unit;
  mutable seats : int;
  mutable inside : int;
  mutable raised : exn option;
}

type helper = { mutable busy : bool; mutable dom : unit Domain.t option }

(* All of the state below is guarded by [lock]. *)
let lock = Mutex.create ()
let wake = Condition.create () (* a batch opened, or the pool shut down *)
let left = Condition.create () (* a helper left a batch's loop *)
let open_batches : batch list ref = ref [] (* oldest first *)
let helpers : helper list ref = ref []
let shut = ref false

(* A helper's life: join the oldest open batch with a free seat, run its
   loop, leave, repeat; return at shutdown. *)
let rec serve h =
  Mutex.lock lock;
  let rec next () =
    if !shut then None
    else
      match List.find_opt (fun b -> b.seats > 0) !open_batches with
      | Some b ->
          b.seats <- b.seats - 1;
          b.inside <- b.inside + 1;
          h.busy <- true;
          Some b
      | None ->
          Condition.wait wake lock;
          next ()
  in
  match next () with
  | None -> Mutex.unlock lock
  | Some b ->
      Mutex.unlock lock;
      let raised = match b.work () with () -> None | exception e -> Some e in
      Mutex.protect lock (fun () ->
          if b.raised = None then b.raised <- raised;
          b.inside <- b.inside - 1;
          h.busy <- false;
          Condition.broadcast left);
      serve h

(* At exit: no batch opens any more, idle helpers return and are joined.
   A helper still inside a batch (exit was called from a task) is left to
   the process's end rather than waited for. *)
let shutdown () =
  let idle =
    Mutex.protect lock (fun () ->
        shut := true;
        Condition.broadcast wake;
        List.filter_map (fun h -> if h.busy then None else h.dom) !helpers)
  in
  List.iter Domain.join idle

(* Spawn helpers until [want] exist; the first spawn registers [shutdown]. *)
let grow want =
  let fresh =
    Mutex.protect lock (fun () ->
        let have = List.length !helpers in
        if !shut || have >= want then []
        else begin
          if have = 0 then at_exit shutdown;
          let fresh = List.init (want - have) (fun _ -> { busy = false; dom = None }) in
          helpers := fresh @ !helpers;
          fresh
        end)
  in
  List.iter
    (fun h ->
      let d = Domain.spawn (fun () -> serve h) in
      Mutex.protect lock (fun () -> h.dom <- Some d))
    fresh

(* Open [b] to helpers, run its loop on the caller, close it, and wait
   for the helpers that joined: once the caller's loop runs dry no task is
   left to start, so the wait is for tasks already running, never for a
   helper busy elsewhere. *)
let run_with_helpers b ~helpers:want =
  grow want;
  Mutex.protect lock (fun () ->
      if not !shut then begin
        open_batches := !open_batches @ [ b ];
        Condition.broadcast wake
      end);
  let close () =
    Mutex.protect lock (fun () ->
        open_batches := List.filter (fun o -> o != b) !open_batches;
        b.seats <- 0;
        while b.inside > 0 do
          Condition.wait left lock
        done)
  in
  Fun.protect ~finally:close b.work;
  Option.iter raise b.raised

let run ?(retries = 0) ?(on_retry = fun ~index:_ ~attempt:_ -> ())
    ?trace_parent ~domains ~f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let domains = max 1 (min domains n) in
    let results = Array.make n (Failed "never ran") in
    let next = Atomic.make 0 in
    let t0 = Obs.Clock.now_ns () in
    let elapsed_ms () = Obs.Clock.ms_since t0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let { payload; deadline_s } = tasks.(i) in
        let expired () =
          match deadline_s with Some d -> elapsed_ms () >= d *. 1000. | None -> false
        in
        let rec attempt_task a =
          if a > 0 then begin
            on_retry ~index:i ~attempt:a;
            (* Helper domains have no open span; the batch span is
               stitched in explicitly. *)
            Obs.Span.event ~cat:"pool" ?parent:trace_parent
              ~attrs:(fun () -> [ ("index", Obs.Span.I i); ("attempt", Obs.Span.I a) ])
              "pool.retry";
            Unix.sleepf (backoff_delay a)
          end;
          if expired () then Timed_out { elapsed_ms = elapsed_ms () }
          else
            match f ~index:i ~attempt:a payload with
            | v -> if expired () then Timed_out { elapsed_ms = elapsed_ms () } else Done v
            | exception exn ->
                if a < retries then attempt_task (a + 1) else Failed (Printexc.to_string exn)
        in
        (* Slots are disjoint per index; a helper publishes its writes
           when it leaves the batch under [lock]. *)
        results.(i) <- attempt_task 0;
        worker ()
      end
    in
    if domains = 1 then worker ()
    else
      run_with_helpers { work = worker; seats = domains - 1; inside = 0; raised = None }
        ~helpers:(domains - 1);
    results
  end

module For_testing = struct
  let helpers () = Mutex.protect lock (fun () -> List.length !helpers)
end
