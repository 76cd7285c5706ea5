module Json = Obs.Json

(* Epoch-versioned datasets.

   A dataset owns an append-only arena (one flat row-major [float array]);
   every epoch is an immutable view over it: a [Pointset.view] selecting
   the live rows plus the index built on them.  [append] writes new rows
   past the high-water mark (invisible to live views) and publishes a new
   epoch; [retire] drops a contiguous range of point indices.  Old epochs
   keep working through structural sharing — their views and trees hold a
   reference to whatever array backed them.

   An epoch holds its view and its index, which carries a one-entry memo
   of GoodRadius's sweep and its count matrix, a pure function of the
   epoch's rows.  Every mutation builds a fresh index
   ([Pointset.build_index], as registration does), so a new epoch starts
   cold.  The build (about 1 ms at n = 2000) is small
   beside the epoch's first GoodRadius sweep, which reads only the tree's
   leaf order (PERFORMANCE.md §4, "One build per epoch" and "Stop the
   first sweep at saturation"). *)

type epoch_state = {
  epoch : int;
  pointset : Geometry.Pointset.t;
  index : Geometry.Pointset.index;  (** carries the epoch's count-matrix memo *)
}

type mutation =
  | Appended of { epoch : int; dim : int; points : float array }
  | Retired of { epoch : int; from_ : int; count : int }

type dataset = {
  name : string;
  grid : Geometry.Grid.t;
  accountant : Accountant.t;
  mutable arena : float array;
  mutable used : int;  (** elements of [arena] below the high-water mark *)
  mutable current : epoch_state;
  mu : Mutex.t;  (** serializes mutations *)
  mutable mutation_listeners : (mutation -> unit) list;
}

type t = { mutable datasets : dataset list (* reverse registration order *) }

let create () = { datasets = [] }

let find t name = List.find_opt (fun d -> d.name = name) t.datasets
let names t = List.rev_map (fun d -> d.name) t.datasets

let fresh_epoch ~epoch ps = { epoch; pointset = ps; index = Geometry.Pointset.build_index ps }

let register t ~name ~grid ?mode ~budget points =
  if find t name <> None then
    invalid_arg (Printf.sprintf "Registry.register: duplicate dataset %S" name);
  let pointset = Geometry.Pointset.create points in
  let accountant = Accountant.create ?mode ~budget () in
  Accountant.subscribe accountant Accountant.trace;
  let dataset =
    {
      name;
      grid;
      accountant;
      arena = Geometry.Pointset.storage pointset;
      used = Geometry.Pointset.n pointset * Geometry.Pointset.dim pointset;
      current = fresh_epoch ~epoch:0 pointset;
      mu = Mutex.create ();
      mutation_listeners = [];
    }
  in
  t.datasets <- dataset :: t.datasets;
  dataset

let name d = d.name
let grid d = d.grid
let pointset d = d.current.pointset
let index d = d.current.index
let accountant d = d.accountant
let epoch d = d.current.epoch
let n d = Geometry.Pointset.n d.current.pointset
let dim d = Geometry.Pointset.dim d.current.pointset

let subscribe_mutations d f = d.mutation_listeners <- f :: d.mutation_listeners

let notify d mutation = List.iter (fun f -> f mutation) (List.rev d.mutation_listeners)

(* Publish the epoch after the current one over [ps']. *)
let publish d ps' =
  let epoch = d.current.epoch + 1 in
  d.current <- fresh_epoch ~epoch ps';
  epoch

(* Grow the arena so [extra] more elements fit past the high-water mark.
   Live epochs keep referencing the array that backed them; only the new
   epoch reads through the grown copy. *)
let ensure_capacity d ~extra =
  let needed = d.used + extra in
  let len = Array.length d.arena in
  if needed > len then begin
    let cap = max needed (2 * len) in
    let arena = Array.make cap 0. in
    Array.blit d.arena 0 arena 0 d.used;
    d.arena <- arena
  end

let append d points =
  let k = Array.length points in
  if k = 0 then invalid_arg "Registry.append: empty";
  let ps_dim = dim d in
  Array.iter
    (fun p ->
      if Geometry.Vec.dim p <> ps_dim then invalid_arg "Registry.append: dimension mismatch")
    points;
  Mutex.lock d.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock d.mu)
    (fun () ->
      let cur = d.current in
      ensure_capacity d ~extra:(k * ps_dim);
      let new_offs = Array.init k (fun i -> d.used + (i * ps_dim)) in
      Array.iteri (fun i p -> Geometry.Vec.set_row d.arena ~off:new_offs.(i) p) points;
      let flat = Array.sub d.arena d.used (k * ps_dim) in
      d.used <- d.used + (k * ps_dim);
      let offs' = Array.append (Geometry.Pointset.row_offsets cur.pointset) new_offs in
      let ps' = Geometry.Pointset.view ~storage:d.arena ~offs:offs' ~dim:ps_dim in
      let epoch' = publish d ps' in
      notify d (Appended { epoch = epoch'; dim = ps_dim; points = flat });
      epoch')

let retire d ~from_ ~count =
  Mutex.lock d.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock d.mu)
    (fun () ->
      let cur = d.current in
      let total = Geometry.Pointset.n cur.pointset in
      if from_ < 0 || count < 1 || from_ + count > total then
        invalid_arg "Registry.retire: range out of bounds";
      if count >= total then invalid_arg "Registry.retire: cannot retire every point";
      let offs = Geometry.Pointset.row_offsets cur.pointset in
      let offs' = Array.make (total - count) 0 in
      Array.blit offs 0 offs' 0 from_;
      Array.blit offs (from_ + count) offs' from_ (total - from_ - count);
      let ps' =
        Geometry.Pointset.view ~storage:d.arena ~offs:offs'
          ~dim:(Geometry.Pointset.dim cur.pointset)
      in
      let epoch' = publish d ps' in
      notify d (Retired { epoch = epoch'; from_; count });
      epoch')

let r_opt_bounds d ~t = Workload.Metrics.r_opt_bounds_indexed (index d) ~t

let to_json d =
  Json.Obj
    [
      ("name", Json.String d.name);
      ("epoch", Json.Int (epoch d));
      ("n", Json.Int (n d));
      ("dim", Json.Int (dim d));
      ("axis_size", Json.Int (Geometry.Grid.axis_size d.grid));
      ("index_backend", Json.String "kdtree");
      ("accountant", Accountant.summary_json d.accountant);
    ]
