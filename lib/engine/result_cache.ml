(* Budget-aware result caching.

   The cache key pins everything that determines a job's output
   bit-for-bit: the dataset, its epoch (mutations change the answer), the
   job's mechanism parameters ([Job.signature]), and the derived RNG
   stream (batch seed + submission stream).  Under that key, re-running
   the job would replay the exact same mechanism on the exact same data
   with the exact same noise — so returning the recorded answer is
   post-processing of an output already released, and charges nothing.

   A store under a key that is already present keeps the first entry: the
   contract says both are bit-identical, and keeping the original makes
   WAL replay idempotent. *)

type key = { dataset : string; epoch : int; signature : string; seed : int; stream : int }

type t = {
  entries : (key, Job.output) Hashtbl.t;
  hits : (string, int) Hashtbl.t;  (* per dataset *)
  misses : (string, int) Hashtbl.t;
  mu : Mutex.t;
  mutable listeners : (key -> Job.output -> unit) list;
}

let create () =
  {
    entries = Hashtbl.create 64;
    hits = Hashtbl.create 8;
    misses = Hashtbl.create 8;
    mu = Mutex.create ();
    listeners = [];
  }

let bump tbl dataset =
  Hashtbl.replace tbl dataset (1 + Option.value ~default:0 (Hashtbl.find_opt tbl dataset))

let find t key =
  Mutex.lock t.mu;
  let r = Hashtbl.find_opt t.entries key in
  bump (match r with Some _ -> t.hits | None -> t.misses) key.dataset;
  Mutex.unlock t.mu;
  r

let subscribe t f = t.listeners <- f :: t.listeners

(* Listeners run outside the lock (they append to the WAL). *)
let store t key output =
  Mutex.lock t.mu;
  let fresh = not (Hashtbl.mem t.entries key) in
  if fresh then Hashtbl.replace t.entries key output;
  let listeners = if fresh then List.rev t.listeners else [] in
  Mutex.unlock t.mu;
  List.iter (fun f -> f key output) listeners

let restore t key output =
  Mutex.lock t.mu;
  if not (Hashtbl.mem t.entries key) then Hashtbl.replace t.entries key output;
  Mutex.unlock t.mu

let stats t ~dataset =
  Mutex.lock t.mu;
  let get tbl = Option.value ~default:0 (Hashtbl.find_opt tbl dataset) in
  let s = (get t.hits, get t.misses) in
  Mutex.unlock t.mu;
  s

let all_stats t =
  Mutex.lock t.mu;
  let names = Hashtbl.create 8 in
  Hashtbl.iter (fun d _ -> Hashtbl.replace names d ()) t.hits;
  Hashtbl.iter (fun d _ -> Hashtbl.replace names d ()) t.misses;
  let get tbl d = Option.value ~default:0 (Hashtbl.find_opt tbl d) in
  let rows = Hashtbl.fold (fun d () acc -> (d, get t.hits d, get t.misses d) :: acc) names [] in
  Mutex.unlock t.mu;
  List.sort compare rows
