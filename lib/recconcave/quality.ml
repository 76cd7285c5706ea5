type t = { f : int -> float; cache : (int, float) Hashtbl.t; size : int; mutable evals : int }

let create ~size ~f =
  if size < 1 then invalid_arg "Quality.create: size must be >= 1";
  { f; cache = Hashtbl.create 256; size; evals = 0 }

let of_array a = create ~size:(Array.length a) ~f:(Array.get a)
let size t = t.size

let eval t i =
  if i < 0 || i >= t.size then invalid_arg "Quality.eval: index out of range";
  match Hashtbl.find_opt t.cache i with
  | Some v -> v
  | None ->
      let v = t.f i in
      t.evals <- t.evals + 1;
      Hashtbl.add t.cache i v;
      v

let evals t = t.evals

(* Discrete quasi-concavity is equivalent to weak unimodality: non-decreasing
   up to the argmax, non-increasing after it. *)
let is_quasi_concave t =
  let m = ref 0 in
  for i = 1 to t.size - 1 do
    if eval t i > eval t !m then m := i
  done;
  let ok = ref true in
  for i = 1 to !m do
    if eval t i < eval t (i - 1) then ok := false
  done;
  for i = !m + 1 to t.size - 1 do
    if eval t i > eval t (i - 1) then ok := false
  done;
  !ok

module For_testing = struct
  let argmax t =
    let m = ref 0 in
    for i = 1 to t.size - 1 do
      if eval t i > eval t !m then m := i
    done;
    !m
end
