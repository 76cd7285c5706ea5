module Json = Obs.Json

type mode = Basic | Advanced of { slack : float } | Zcdp of { slack : float }

let mode_name = function Basic -> "basic" | Advanced _ -> "advanced" | Zcdp _ -> "zcdp"

let mode_of_string ?(slack = 1e-9) = function
  | "basic" -> Ok Basic
  | "advanced" -> Ok (Advanced { slack })
  | "zcdp" -> Ok (Zcdp { slack })
  | s -> Error (Printf.sprintf "unknown composition mode %S (expected basic|advanced|zcdp)" s)

type refusal = {
  requested : Prim.Dp.params;
  would_spend : Prim.Dp.params;
  spent : Prim.Dp.params;
  budget : Prim.Dp.params;
}

type event =
  | Charged of { label : string; cost : Prim.Dp.params }
  | Refused of { label : string; cost : Prim.Dp.params; reserve : bool; refusal : refusal }
  | Reserved of { id : int; label : string; cost : Prim.Dp.params }
  | Committed of { id : int; label : string; cost : Prim.Dp.params }
  | Released of { id : int; label : string; cost : Prim.Dp.params }

type t = {
  mode : mode;
  budget : Prim.Dp.params;
  mutable charges : (string * Prim.Dp.params) list;  (* reverse charge order *)
  mutable reservations : (int * string * Prim.Dp.params) list;  (* outstanding only *)
  mutable next_reservation : int;
  mutable refusals : int;
  mutable listeners : (event -> unit) list;  (* reverse subscription order *)
}

type reservation = int

let create ?(mode = Basic) ~budget () =
  {
    mode;
    budget;
    charges = [];
    reservations = [];
    next_reservation = 0;
    refusals = 0;
    listeners = [];
  }

let subscribe t f = t.listeners <- f :: t.listeners

(* Listeners observe the ledger, they never steer it: events fire after the
   state change, in subscription order, and the decision that produced them
   is already final. *)
let emit t ev = List.iter (fun f -> f ev) (List.rev t.listeners)

(* One [cat="budget"] instant per ledger operation.  Attribution counts
   [charge] and [commit] — exactly the operations that create [entries] —
   so the event stream and the ledger reconcile term by term. *)
let trace ev =
  let instant ?cost op label =
    let charge =
      Option.map (fun (c : Prim.Dp.params) -> Obs.Span.charge ~eps:c.eps ~delta:c.delta ()) cost
    in
    Obs.Span.event ~cat:"budget" ~label ?charge op
  in
  match ev with
  | Charged { label; cost } -> instant "charge" label ~cost
  | Refused { label; cost; _ } -> instant "refuse" label ~cost
  | Reserved { label; cost; _ } -> instant "reserve" label ~cost
  | Committed { label; cost; _ } -> instant "commit" label ~cost
  | Released { label; _ } -> instant "release" label

let mode t = t.mode
let budget (t : t) = t.budget

let zero = { Prim.Dp.eps = 0.; delta = 0. }

(* Composed total of a charge list under the mode.  The advanced bound only
   applies to homogeneous charges.  Basic and advanced are both valid (ε, δ)
   pairs for the same composed mechanism, so we may report either; we pick
   the one with the smaller ε (advanced pays an extra δ' on the delta side,
   so a coordinate-wise min would not be a guarantee the mechanism has). *)
let total mode charges =
  match charges with
  | [] -> zero
  | _ :: _ -> (
      let basic = Prim.Composition.basic_list (List.map snd charges) in
      match mode with
      | Basic -> basic
      | Advanced { slack } ->
          let p0 = snd (List.hd charges) in
          let homogeneous =
            List.for_all
              (fun (_, p) -> p.Prim.Dp.eps = p0.Prim.Dp.eps && p.Prim.Dp.delta = p0.Prim.Dp.delta)
              charges
          in
          if not homogeneous then basic
          else
            let adv = Prim.Composition.advanced p0 ~k:(List.length charges) ~delta':slack in
            if adv.Prim.Dp.eps < basic.Prim.Dp.eps then adv else basic
      | Zcdp { slack } ->
          let rho =
            Prim.Zcdp.compose
              (List.map (fun (_, p) -> Prim.Zcdp.of_pure_dp ~eps:p.Prim.Dp.eps) charges)
          in
          let conv = Prim.Zcdp.to_dp rho ~delta:slack in
          {
            Prim.Dp.eps = conv.Prim.Dp.eps;
            delta = conv.Prim.Dp.delta +. basic.Prim.Dp.delta;
          })

let spent t = total t.mode t.charges

(* Headroom checks see every outstanding reservation as if it were already
   committed — a reservation is a promise the fallback charge will fit, so
   admission must be conservative against it. *)
let committed_and_reserved t =
  List.rev_append (List.rev_map (fun (_, label, p) -> (label, p)) t.reservations) t.charges

(* Relative, per coordinate: a budget split into equal parts still fills
   despite rounding, a δ budget far below 1e-9 is not overspent, and a
   zero budget admits only zero. *)
let tol = 1e-9

let fits budget p =
  p.Prim.Dp.eps <= budget.Prim.Dp.eps *. (1. +. tol)
  && p.Prim.Dp.delta <= budget.Prim.Dp.delta *. (1. +. tol)

let admit t ~label ~is_reserve p ~accept =
  if not (p.Prim.Dp.eps >= 0. && p.Prim.Dp.delta >= 0.) then
    invalid_arg
      (Printf.sprintf "Accountant.%s: cost (%g, %g) is negative or NaN"
         (if is_reserve then "reserve" else "charge")
         p.Prim.Dp.eps p.Prim.Dp.delta);
  let before = spent t in
  let after = total t.mode ((label, p) :: committed_and_reserved t) in
  if fits t.budget after then begin
    accept ();
    Ok ()
  end
  else begin
    t.refusals <- t.refusals + 1;
    let refusal = { requested = p; would_spend = after; spent = before; budget = t.budget } in
    emit t (Refused { label; cost = p; reserve = is_reserve; refusal });
    Error refusal
  end

let charge t ?(label = "anon") p =
  admit t ~label ~is_reserve:false p ~accept:(fun () ->
      t.charges <- (label, p) :: t.charges;
      emit t (Charged { label; cost = p }))

let reserve t ?(label = "reserved") p =
  let id = t.next_reservation in
  match
    admit t ~label ~is_reserve:true p ~accept:(fun () ->
        t.next_reservation <- id + 1;
        t.reservations <- (id, label, p) :: t.reservations;
        emit t (Reserved { id; label; cost = p }))
  with
  | Ok () -> Ok id
  | Error r -> Error r

let take_reservation t who id =
  match List.partition (fun (i, _, _) -> i = id) t.reservations with
  | [ entry ], rest ->
      t.reservations <- rest;
      entry
  | _ -> invalid_arg (Printf.sprintf "Accountant.%s: unknown or already-settled reservation" who)

let commit t id =
  let _, label, p = take_reservation t "commit" id in
  t.charges <- (label, p) :: t.charges;
  emit t (Committed { id; label; cost = p })

let release t id =
  let _, label, p = take_reservation t "release" id in
  emit t (Released { id; label; cost = p })

let reserved t = List.rev_map (fun (_, label, p) -> (label, p)) t.reservations
let outstanding t = List.rev_map (fun (id, label, p) -> (id, label, p)) t.reservations

let entries t = List.rev t.charges
let refusals t = t.refusals

let pp_refusal ppf r =
  Format.fprintf ppf
    "budget exhausted: charge (%g, %g) would compose to (%g, %g), budget is (%g, %g), already spent (%g, %g)"
    r.requested.Prim.Dp.eps r.requested.Prim.Dp.delta r.would_spend.Prim.Dp.eps
    r.would_spend.Prim.Dp.delta r.budget.Prim.Dp.eps r.budget.Prim.Dp.delta r.spent.Prim.Dp.eps
    r.spent.Prim.Dp.delta

let refusal_message r = Format.asprintf "%a" pp_refusal r

let params_json p = Json.Obj [ ("eps", Json.Float p.Prim.Dp.eps); ("delta", Json.Float p.Prim.Dp.delta) ]

let balance_json (t : t) =
  let s = spent t in
  [
    ("spent", params_json s);
    ( "remaining",
      params_json
        {
          Prim.Dp.eps = Float.max 0. (t.budget.Prim.Dp.eps -. s.Prim.Dp.eps);
          delta = Float.max 0. (t.budget.Prim.Dp.delta -. s.Prim.Dp.delta);
        } );
  ]

let summary_fields (t : t) =
  [ ("mode", Json.String (mode_name t.mode)); ("budget", params_json t.budget) ]
  @ balance_json t
  @ [ ("refusals", Json.Int t.refusals) ]

let summary_json t = Json.Obj (summary_fields t)

let to_json (t : t) =
  Json.Obj
    (summary_fields t
    @ [
      ( "reserved",
        Json.List
          (List.map
             (fun (label, p) -> Json.Obj [ ("label", Json.String label); ("params", params_json p) ])
             (reserved t)) );
      ( "charges",
        Json.List
          (List.map
             (fun (label, p) -> Json.Obj [ ("label", Json.String label); ("params", params_json p) ])
             (entries t)) );
      ])

module For_testing = struct
  let would_accept (t : t) p = fits t.budget (total t.mode ((" ", p) :: committed_and_reserved t))
  let reserved = reserved
end
