type attr = S of string | I of int | F of float | B of bool

type charge = { eps : float; delta : float; rho : float }

let charge ?(rho = 0.) ~eps ~delta () = { eps; delta; rho }
let zero_charge = { eps = 0.; delta = 0.; rho = 0. }

let add_charges a b =
  { eps = a.eps +. b.eps; delta = a.delta +. b.delta; rho = a.rho +. b.rho }

type id = int

type span = {
  id : id;
  parent : id option;
  tid : int;
  name : string;
  cat : string;
  start_ns : int64;
  mutable dur_ns : int64;
  mutable attrs : (string * attr) list;
  mutable label : string option;
  mutable span_charge : charge option;
}

(* The whole hot path when tracing is off is the load of this flag. *)
let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let next_id = Atomic.make 1

(* Completed spans.  Workers push under the mutex; pushes only happen when
   tracing is on, so the contention cost is confined to traced runs. *)
let mutex = Mutex.create ()
let completed : span list ref = ref []

let push sp =
  Mutex.lock mutex;
  completed := sp :: !completed;
  Mutex.unlock mutex

let reset () =
  Mutex.lock mutex;
  completed := [];
  Mutex.unlock mutex

let spans () =
  Mutex.lock mutex;
  let l = !completed in
  Mutex.unlock mutex;
  List.sort
    (fun a b ->
      let c = Int64.compare a.start_ns b.start_ns in
      if c <> 0 then c else compare a.id b.id)
    l

let count () =
  Mutex.lock mutex;
  let n = List.length !completed in
  Mutex.unlock mutex;
  n

(* Per-domain stack of open spans; nesting within a domain is implicit. *)
let stack_key : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let make_span ?cat ?parent ?attrs name =
  let stack = Domain.DLS.get stack_key in
  let parent =
    match parent with
    | Some _ as p -> p
    | None -> ( match !stack with sp :: _ -> Some sp.id | [] -> None)
  in
  let sp =
    {
      id = Atomic.fetch_and_add next_id 1;
      parent;
      tid = (Domain.self () :> int);
      name;
      cat = Option.value ~default:"span" cat;
      start_ns = Clock.now_ns ();
      dur_ns = 0L;
      attrs = (match attrs with None -> [] | Some f -> f ());
      label = None;
      span_charge = None;
    }
  in
  stack := sp :: !stack;
  sp

let close_span sp =
  let stack = Domain.DLS.get stack_key in
  (match !stack with
  | top :: rest when top == sp -> stack := rest
  | _ ->
      (* Unbalanced start/finish: drop down to (and including) [sp] if it
         is on the stack at all, so one misuse cannot wedge the domain. *)
      let rec drop = function
        | top :: rest when top == sp -> rest
        | _ :: rest -> drop rest
        | [] -> !stack
      in
      stack := drop !stack);
  sp.dur_ns <- Int64.sub (Clock.now_ns ()) sp.start_ns;
  push sp

let with_span ?cat ?parent ?attrs name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let sp = make_span ?cat ?parent ?attrs name in
    match f () with
    | v ->
        close_span sp;
        v
    | exception e ->
        sp.attrs <- ("error", S (Printexc.to_string e)) :: sp.attrs;
        close_span sp;
        raise e
  end

let with_charged ?(cat = "mech") ?attrs ~eps ~delta name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let sp = make_span ~cat ?attrs name in
    sp.span_charge <- Some { eps; delta; rho = 0. };
    match f () with
    | v ->
        close_span sp;
        v
    | exception e ->
        sp.attrs <- ("error", S (Printexc.to_string e)) :: sp.attrs;
        close_span sp;
        raise e
  end

let event ?(cat = "event") ?parent ?attrs ?label ?charge name =
  if Atomic.get enabled_flag then begin
    let sp = make_span ~cat ?parent ?attrs name in
    sp.label <- label;
    sp.span_charge <- charge;
    close_span sp
  end

let top () =
  if not (Atomic.get enabled_flag) then None
  else match !(Domain.DLS.get stack_key) with sp :: _ -> Some sp | [] -> None

let set_label label =
  match top () with None -> () | Some sp -> sp.label <- Some label

(* --- handle API -------------------------------------------------------- *)

type h = span option

let start ?cat ?parent ?attrs name =
  if not (Atomic.get enabled_flag) then None else Some (make_span ?cat ?parent ?attrs name)

let finish = function None -> () | Some sp -> close_span sp
let h_id = Option.map (fun sp -> sp.id)
let h_set_attr h key v = Option.iter (fun sp -> sp.attrs <- (key, v) :: sp.attrs) h
let h_set_label h label = Option.iter (fun sp -> sp.label <- Some label) h

(* --- tree helpers ------------------------------------------------------ *)

let attributed all sp =
  let by_parent = Hashtbl.create (max 16 (List.length all)) in
  List.iter
    (fun c -> match c.parent with Some p -> Hashtbl.add by_parent p c | None -> ())
    all;
  let rec go sp =
    match sp.span_charge with
    | Some c -> c
    | None ->
        List.fold_left (fun acc c -> add_charges acc (go c)) zero_charge
          (Hashtbl.find_all by_parent sp.id)
  in
  go sp

(* Attrs are consed newest-first; the newest binding for a key wins. *)
let attr sp key = List.assoc_opt key sp.attrs
let attr_int sp key = match attr sp key with Some (I i) -> Some i | _ -> None
let attr_bool sp key = match attr sp key with Some (B b) -> Some b | _ -> None

module For_testing = struct
  let current () = Option.map (fun sp -> sp.id) (top ())

  let set_attr key v =
    match top () with None -> () | Some sp -> sp.attrs <- (key, v) :: sp.attrs
end
