(* A process that ran a two-domain batch exits promptly: the pool's
   at-exit handler joins its idle helpers.  A batch run after that
   shutdown, here from an at-exit handler registered before the first
   helper started (so it runs later), runs every task on the caller.
   Run by `dune runtest`; exits 1 on a wrong outcome. *)

let fail msg =
  prerr_endline ("pool_exit: " ^ msg);
  exit 1

let run_on ~domains =
  Engine.Pool.run ~domains
    ~f:(fun ~index:_ ~attempt:_ _ -> (Domain.self () :> int))
    (Array.init 8 Engine.Pool.task)

let () =
  let caller = (Domain.self () :> int) in
  at_exit (fun () ->
      let ran = run_on ~domains:4 in
      if not (Array.for_all (function Engine.Pool.Done d -> d = caller | _ -> false) ran) then
        fail "a batch after shutdown ran off the caller");
  if not (Array.for_all (function Engine.Pool.Done _ -> true | _ -> false) (run_on ~domains:2))
  then fail "a two-domain batch did not finish";
  if Engine.Pool.For_testing.helpers () <> 1 then fail "expected exactly one helper"
