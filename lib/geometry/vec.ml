type t = float array

let dim = Array.length
let zero d = Array.make d 0.
let copy = Array.copy
let check_same_dim a b name =
  if Array.length a <> Array.length b then invalid_arg (name ^ ": dimension mismatch")

let add a b =
  check_same_dim a b "Vec.add";
  Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let sub a b =
  check_same_dim a b "Vec.sub";
  Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let scale c a = Array.map (fun x -> c *. x) a

let dot a b =
  check_same_dim a b "Vec.dot";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2_sq a = dot a a
let norm2 a = sqrt (norm2_sq a)
let dist_sq a b =
  check_same_dim a b "Vec.dist_sq";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let dist a b = sqrt (dist_sq a b)

(* The largest [a] with [sqrt a <= r].  [r *. r] is within an ulp or two
   of it (or [infinity] when the square overflows); [sqrt] is monotone,
   so stepping down while the root overshoots and up while the next float
   still fits lands on the maximum in a few steps. *)
let ball_r2 r =
  if not (r >= 0.) then neg_infinity
  else begin
    let a = ref (r *. r) in
    while sqrt !a > r do
      a := Float.pred !a
    done;
    while !a < infinity && sqrt (Float.succ !a) <= r do
      a := Float.succ !a
    done;
    !a
  end

let mean vs =
  let n = Array.length vs in
  if n = 0 then invalid_arg "Vec.mean: empty";
  let acc = Array.make (Array.length vs.(0)) 0. in
  Array.iter (fun v -> Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) v) vs;
  Array.map (fun s -> s /. float_of_int n) acc

(* ------------------------------------------------------------------ *)
(* Flat row views.  A "row" is the slice [st.(off) .. st.(off+dim-1)] of a
   row-major backing store; none of these allocate (except [of_row]), and
   all accumulate in the same index order as the boxed operations above, so
   boxed and flat paths agree bit-for-bit. *)

let of_row st ~off ~dim = Array.sub st off dim
let set_row st ~off v = Array.blit v 0 st off (Array.length v)

let dist_sq_rows a oa b ob ~dim =
  let acc = ref 0. in
  for i = 0 to dim - 1 do
    let d = a.(oa + i) -. b.(ob + i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let dist_rows a oa b ob ~dim = sqrt (dist_sq_rows a oa b ob ~dim)

let dist_sq_to_row st ~off ~dim v =
  if Array.length v <> dim then invalid_arg "Vec.dist_sq_to_row: dimension mismatch";
  let acc = ref 0. in
  for i = 0 to dim - 1 do
    let d = st.(off + i) -. v.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let dist_to_row st ~off ~dim v = sqrt (dist_sq_to_row st ~off ~dim v)

let dot_row st ~off ~dim v =
  if Array.length v <> dim then invalid_arg "Vec.dot_row: dimension mismatch";
  let acc = ref 0. in
  for i = 0 to dim - 1 do
    acc := !acc +. (st.(off + i) *. v.(i))
  done;
  !acc

let dot_rows a oa b ob ~dim =
  let acc = ref 0. in
  for i = 0 to dim - 1 do
    acc := !acc +. (a.(oa + i) *. b.(ob + i))
  done;
  !acc

let axpy_row a st ~off ~dim y =
  if Array.length y <> dim then invalid_arg "Vec.axpy_row: dimension mismatch";
  for i = 0 to dim - 1 do
    y.(i) <- (a *. st.(off + i)) +. y.(i)
  done

let pp ppf a =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Format.pp_print_float)
    (Array.to_list a)

module For_testing = struct
  let of_list = Array.of_list

  let axpy a x y =
    check_same_dim x y "Vec.axpy";
    for i = 0 to Array.length x - 1 do
      y.(i) <- (a *. x.(i)) +. y.(i)
    done

  let norm1 a = Array.fold_left (fun acc x -> acc +. Float.abs x) 0. a
  let norm_inf a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a

  let normalize a =
    let n = norm2 a in
    if n = 0. then invalid_arg "Vec.normalize: zero vector";
    scale (1. /. n) a

  let equal ?(tol = 1e-12) a b =
    Array.length a = Array.length b
    &&
    let rec go i = i = Array.length a || (Float.abs (a.(i) -. b.(i)) <= tol && go (i + 1)) in
    go 0

  let get st ~off i = st.(off + i)

  let dot = dot
  let norm2_sq = norm2_sq
end
