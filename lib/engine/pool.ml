type 'a task = { payload : 'a; deadline_s : float option }

let task ?deadline_s payload = { payload; deadline_s }

type 'b outcome = Done of 'b | Timed_out of { elapsed_ms : float } | Failed of string

exception Worker_crash of string

type event = Task_retry of { index : int; attempt : int } | Worker_restart

let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* Backoff before retry [attempt] (attempt ≥ 1): capped exponential.  Purely a
   pacing concern — determinism never depends on it, because every attempt of a
   task replays the same derived RNG stream. *)
let backoff_delay ~backoff_s attempt =
  Float.min 0.25 (backoff_s *. (2. ** float_of_int (attempt - 1)))

let run ?(retries = 0) ?(backoff_s = 1e-3) ?max_restarts ?(on_event = fun _ -> ())
    ?trace_parent ~domains ~f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let domains = max 1 (min domains n) in
    let max_restarts = match max_restarts with Some m -> max 0 m | None -> 2 * domains in
    let results = Array.make n (Failed "never ran") in
    let next = Atomic.make 0 in
    (* Tasks whose worker died mid-flight, waiting to be picked up again.  The
       dying worker pushes here *before* arranging its replacement, so every
       rescheduled index always has a live worker able to reach it. *)
    let rescheduled = ref [] in
    let resched_mutex = Mutex.create () in
    let restarts_left = Atomic.make max_restarts in
    (* Every attempt of task [i] bumps this; exclusive task ownership (each
       index is held by exactly one worker at a time) makes plain reads and
       writes safe, and a crash hands the count to the replacement so an
       injected fault keyed on the attempt number cannot re-fire forever. *)
    let attempts = Array.make n 0 in
    let t0 = Obs.Clock.now_ns () in
    let elapsed_ms () = Obs.Clock.ms_since t0 in
    (* Domains still to be joined; replacements register themselves here before
       their predecessor finishes dying, so the caller's drain loop below
       cannot miss one. *)
    let doms = ref [] in
    let doms_mutex = Mutex.create () in
    let register d =
      Mutex.lock doms_mutex;
      doms := d :: !doms;
      Mutex.unlock doms_mutex
    in
    let take () =
      Mutex.lock resched_mutex;
      match !rescheduled with
      | i :: rest ->
          rescheduled := rest;
          Mutex.unlock resched_mutex;
          Some i
      | [] ->
          Mutex.unlock resched_mutex;
          let i = Atomic.fetch_and_add next 1 in
          if i < n then Some i else None
    in
    let reschedule i =
      Mutex.lock resched_mutex;
      rescheduled := i :: !rescheduled;
      Mutex.unlock resched_mutex
    in
    (* [spawned] tells a dying worker how to arrange its succession: a spawned
       domain starts a replacement and returns (the domain ends — that is the
       death); the caller's inline worker simply continues as its own
       replacement. *)
    let rec worker ~spawned () =
      match take () with
      | None -> ()
      | Some i ->
          let { payload; deadline_s } = tasks.(i) in
          let expired () =
            match deadline_s with Some d -> elapsed_ms () >= d *. 1000. | None -> false
          in
          let rec attempt_task () =
            let a = attempts.(i) in
            attempts.(i) <- a + 1;
            if a > 0 then begin
              on_event (Task_retry { index = i; attempt = a });
              (* Spawned domains have no open span; the batch span is
                 stitched in explicitly. *)
              Obs.Span.event ~cat:"pool" ?parent:trace_parent
                ~attrs:(fun () ->
                  [ ("index", Obs.Span.I i); ("attempt", Obs.Span.I a) ])
                "pool.retry";
              Unix.sleepf (backoff_delay ~backoff_s a)
            end;
            if expired () then Timed_out { elapsed_ms = elapsed_ms () }
            else
              match f ~index:i ~attempt:a payload with
              | v -> if expired () then Timed_out { elapsed_ms = elapsed_ms () } else Done v
              | exception (Worker_crash _ as e) -> raise e
              | exception exn ->
                  if a < retries then attempt_task () else Failed (Printexc.to_string exn)
          in
          (match attempt_task () with
          | outcome ->
              (* Slots are disjoint per index; Domain.join publishes the writes. *)
              results.(i) <- outcome;
              worker ~spawned ()
          | exception Worker_crash msg ->
              if Atomic.fetch_and_add restarts_left (-1) > 0 then begin
                reschedule i;
                on_event Worker_restart;
                Obs.Span.event ~cat:"pool" ?parent:trace_parent
                  ~attrs:(fun () -> [ ("index", Obs.Span.I i) ])
                  "pool.restart";
                if spawned then register (Domain.spawn (worker ~spawned:true))
                else worker ~spawned ()
              end
              else begin
                (* Restart budget exhausted: dying now could strand the queue,
                   so the worker survives and the task takes the blame. *)
                results.(i) <- Failed ("worker crashed: " ^ msg);
                worker ~spawned ()
              end)
    in
    (* The caller is a worker too: it spawns [domains − 1] helpers, runs
       the inline loop, then joins every helper and every replacement they
       spawned, even if its own loop raised. *)
    for _ = 2 to domains do
      register (Domain.spawn (worker ~spawned:true))
    done;
    let rec drain () =
      Mutex.lock doms_mutex;
      match !doms with
      | [] -> Mutex.unlock doms_mutex
      | d :: rest ->
          doms := rest;
          Mutex.unlock doms_mutex;
          Domain.join d;
          drain ()
    in
    Fun.protect ~finally:drain (worker ~spawned:false);
    results
  end
