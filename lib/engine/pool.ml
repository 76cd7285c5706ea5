type 'a task = { payload : 'a; deadline_s : float option }

let task ?deadline_s payload = { payload; deadline_s }

type 'b outcome = Done of 'b | Timed_out of { elapsed_ms : float } | Failed of string

let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* Backoff before retry [attempt] (attempt ≥ 1): capped exponential.  Purely a
   pacing concern — determinism never depends on it, because every attempt of a
   task replays the same derived RNG stream. *)
let backoff_base_s = 1e-3

let backoff_delay attempt = Float.min 0.25 (backoff_base_s *. (2. ** float_of_int (attempt - 1)))

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
            (* Spawned domains have no open span; the batch span is
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
        (* Slots are disjoint per index; Domain.join publishes the writes. *)
        results.(i) <- attempt_task 0;
        worker ()
      end
    in
    (* The caller is a worker too: it spawns [domains − 1] helpers, runs
       the same loop, then joins every helper, even if its own loop raised. *)
    let helpers = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    Fun.protect ~finally:(fun () -> List.iter Domain.join helpers) worker;
    results
  end
