(* LDP 1-cluster: k-ary randomized response over a dyadic scale ladder.
   See the .mli for the protocol; the invariants tested elsewhere are
   (a) law sums to 1 exactly, (b) debias inverts the randomizer's
   expectation exactly (estimates sum to n for any report vector), and
   (c) the whole run is a deterministic function of the base RNG's
   creation seed, because every user stream is [derive]d. *)

type scale = {
  cells_per_axis : int;
  cell_side : float;
  cells : int;
  group_size : int;
  slack : float;
}

type result = {
  center : Geometry.Vec.t;
  radius : float;
  t_requested : int;
  est_count : float;
  delta_bound : float;
  scale_index : int;
  scales : scale array;
}

type failure =
  | Not_enough_mass of { best : float; needed : float }
  | All_certificates_vacuous of { t : int; min_delta : float }

let pp_failure ppf = function
  | Not_enough_mass { best; needed } ->
      Format.fprintf ppf "not enough mass: best block estimate %.1f, needed %.1f" best needed
  | All_certificates_vacuous { t; min_delta } ->
      Format.fprintf ppf
        "all certificates vacuous: even the coarsest scale's delta bound %.1f reaches t = %d \
         (too few users for this eps)"
        min_delta t

(* ---- the local randomizer ----------------------------------------- *)

let check_k_eps ~eps ~k =
  if k < 2 then invalid_arg "Local_cluster: k must be at least 2";
  if not (eps > 0.) then invalid_arg "Local_cluster: eps must be positive"

let p_keep ~eps ~k =
  check_k_eps ~eps ~k;
  let e = exp eps in
  e /. (e +. float_of_int (k - 1))

let p_other ~eps ~k =
  check_k_eps ~eps ~k;
  1. /. (exp eps +. float_of_int (k - 1))

let randomize rng ~eps ~k cell =
  check_k_eps ~eps ~k;
  if cell < 0 || cell >= k then invalid_arg "Local_cluster.randomize: cell out of range";
  if Prim.Rng.bernoulli rng ~p:(p_keep ~eps ~k) then cell
  else
    let j = Prim.Rng.int rng (k - 1) in
    if j >= cell then j + 1 else j

let law ~eps ~k ~cell =
  check_k_eps ~eps ~k;
  if cell < 0 || cell >= k then invalid_arg "Local_cluster.law: cell out of range";
  let p = p_keep ~eps ~k and q = p_other ~eps ~k in
  Array.init k (fun i -> if i = cell then p else q)

(* ---- the scale ladder --------------------------------------------- *)

let pow_capped base d ~cap =
  (* base^d, saturating just above [cap] so callers can compare safely. *)
  let rec go acc i = if i = 0 then acc else if acc > cap then acc else go (acc * base) (i - 1) in
  go 1 d

let plan ~grid ~eps ?(beta = 0.1) ?(max_cells = 4096) ~n () =
  let d = Geometry.Grid.dim grid in
  let step = Geometry.Grid.step grid in
  let rec ladder acc m =
    let cells = pow_capped m d ~cap:max_cells in
    if cells > max_cells || 1. /. float_of_int m < 2. *. step then List.rev acc
    else ladder (m :: acc) (2 * m)
  in
  let ms = ladder [] 2 in
  if ms = [] then
    invalid_arg
      (Printf.sprintf "Local_cluster.plan: coarsest scale needs 2^%d cells > max_cells %d" d
         max_cells);
  (* Never keep more scales than users: an empty group has no estimate. *)
  let ms = Array.of_list ms in
  let nl = max 1 (min (Array.length ms) n) in
  let ms = Array.sub ms 0 nl in
  Array.mapi
    (fun l m ->
      let cells = pow_capped m d ~cap:max_cells in
      let group_size = (n / nl) + if l < n mod nl then 1 else 0 in
      let blocks = pow_capped (max 1 (m - 1)) d ~cap:max_int in
      let p = p_keep ~eps ~k:cells and q = p_other ~eps ~k:cells in
      let slack =
        if group_size = 0 then infinity
        else
          let lg = log (2. *. float_of_int (blocks * nl) /. beta) in
          let dev_group = sqrt (float_of_int group_size *. lg /. 2.) in
          let dev_pop = sqrt (float_of_int n *. lg /. 2.) in
          (float_of_int n /. float_of_int group_size *. dev_group /. (p -. q)) +. dev_pop
      in
      { cells_per_axis = m; cell_side = 1. /. float_of_int m; cells; group_size; slack })
    ms

(* ---- the server-side search --------------------------------------- *)

let cell_of_row storage off ~d ~m =
  let cell = ref 0 in
  for a = 0 to d - 1 do
    let j = int_of_float (storage.(off + a) *. float_of_int m) in
    let j = if j < 0 then 0 else if j >= m then m - 1 else j in
    cell := (!cell * m) + j
  done;
  !cell

(* Fold [f] over every block corner (digits in [0, m-2]^d, or the single
   all-zero corner when m = 2 gives exactly one block per axis pair). *)
let iter_blocks ~d ~m f =
  let hi = max 0 (m - 2) in
  let corner = Array.make d 0 in
  let rec go a = if a = d then f corner else for j = 0 to hi do corner.(a) <- j; go (a + 1) done in
  go 0

let block_count counts corner ~d ~m =
  (* Sum of the 2^d cells at [corner .. corner+1] per axis. *)
  let total = ref 0 in
  let rec go a idx =
    if a = d then total := !total + counts.(idx)
    else
      let base = idx * m in
      go (a + 1) (base + corner.(a));
      go (a + 1) (base + corner.(a) + 1)
  in
  go 0 0;
  !total

let run rng ~grid ~eps ?(beta = 0.1) ?(max_cells = 4096) ~t ps =
  let d = Geometry.Grid.dim grid in
  if Geometry.Pointset.dim ps <> d then invalid_arg "Local_cluster.run: dimension mismatch";
  if t <= 0 then invalid_arg "Local_cluster.run: t must be positive";
  let n = Geometry.Pointset.n ps in
  let scales = plan ~grid ~eps ~beta ~max_cells ~n () in
  let nl = Array.length scales in
  let counts = Array.map (fun s -> Array.make s.cells 0) scales in
  let storage = Geometry.Pointset.storage ps in
  for i = 0 to n - 1 do
    let l = i mod nl in
    let s = scales.(l) in
    let cell = cell_of_row storage (Geometry.Pointset.row_offset ps i) ~d ~m:s.cells_per_axis in
    let report = randomize (Prim.Rng.derive rng ~stream:i) ~eps ~k:s.cells cell in
    counts.(l).(report) <- counts.(l).(report) + 1
  done;
  let best_overall = ref neg_infinity and needed_at_best = ref infinity in
  let winner = ref None in
  (* Finest qualifying scale wins: it has the smallest released radius.
     A scale only qualifies while its certificate is non-vacuous
     (2·slack < t) — otherwise any fine-grained block passes the
     threshold trivially and the released ball covers next to nothing
     while still "honouring" a Δ ≥ t promise. *)
  let l = ref (nl - 1) in
  while !winner = None && !l >= 0 do
    let s = scales.(!l) in
    if s.group_size > 0 && 2. *. s.slack < float_of_int t then begin
      let m = s.cells_per_axis in
      let p = p_keep ~eps ~k:s.cells and q = p_other ~eps ~k:s.cells in
      let ng = float_of_int s.group_size in
      let scale_up = float_of_int n /. ng in
      let cells_per_block = float_of_int (pow_capped 2 d ~cap:max_int) in
      let best = ref neg_infinity and best_corner = ref [||] in
      iter_blocks ~d ~m (fun corner ->
          let c = block_count counts.(!l) corner ~d ~m in
          let est = scale_up *. ((float_of_int c -. (ng *. cells_per_block *. q)) /. (p -. q)) in
          if est > !best then begin
            best := est;
            best_corner := Array.copy corner
          end);
      if !best > !best_overall then begin
        best_overall := !best;
        needed_at_best := float_of_int t -. s.slack
      end;
      if !best >= float_of_int t -. s.slack then
        let side = s.cell_side in
        let center = Array.map (fun j -> float_of_int (j + 1) *. side) !best_corner in
        winner :=
          Some
            {
              center;
              radius = side *. sqrt (float_of_int d);
              t_requested = t;
              est_count = !best;
              delta_bound = 2. *. s.slack;
              scale_index = !l;
              scales;
            }
    end;
    decr l
  done;
  match !winner with
  | Some r -> Ok r
  | None ->
      if !best_overall = neg_infinity then
        let min_delta =
          Array.fold_left
            (fun acc s -> if s.group_size > 0 then Float.min acc (2. *. s.slack) else acc)
            infinity scales
        in
        Error (All_certificates_vacuous { t; min_delta })
      else Error (Not_enough_mass { best = !best_overall; needed = !needed_at_best })

module For_testing = struct
  let pp_result ppf r =
    Format.fprintf ppf "center %a radius %.4f (scale 1/%d, est %.1f, delta <= %.1f)"
      Geometry.Vec.pp r.center r.radius r.scales.(r.scale_index).cells_per_axis r.est_count
      r.delta_bound

  let debias ~eps ~k ~n counts =
    check_k_eps ~eps ~k;
    if Array.length counts <> k then invalid_arg "Local_cluster.debias: counts length <> k";
    let p = p_keep ~eps ~k and q = p_other ~eps ~k in
    let nf = float_of_int n in
    Array.map (fun c -> (float_of_int c -. (nf *. q)) /. (p -. q)) counts

  let p_keep = p_keep
  let p_other = p_other
  let plan = plan
end
