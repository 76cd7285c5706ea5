(* C-stub externals.  All [@@noalloc]: the stubs allocate nothing on the
   OCaml heap and never call back, so flat float arrays are stable for
   the duration of a call.  Stubs with more than five arguments need the
   bytecode argv wrapper; stubs returning unboxed floats need separate
   byte/native entry points. *)

external c_count_within :
  float array -> int array -> int -> int -> float array -> int -> int ->
  float -> int
  = "pc_count_within_bc" "pc_count_within" [@@noalloc]

external c_dists_to_rows :
  float array -> int array -> int -> float array -> int -> int ->
  float array -> unit
  = "pc_dists_to_rows_bc" "pc_dists_to_rows" [@@noalloc]

external c_kth_smallest : float array -> int -> int -> (float [@unboxed])
  = "pc_kth_smallest_byte" "pc_kth_smallest_nat" [@@noalloc]

external c_top_avg_capped :
  int array -> int -> int -> int -> int -> (float [@unboxed])
  = "pc_top_avg_capped_byte" "pc_top_avg_capped_nat" [@@noalloc]

external c_jl_project :
  float array -> float array -> int array -> int -> int -> int -> float ->
  float array -> unit
  = "pc_jl_project_bc" "pc_jl_project" [@@noalloc]

external c_sum_rows :
  float array -> int array -> int -> int -> float array -> unit
  = "pc_sum_rows" [@@noalloc]

external c_argmin_center :
  float array -> int -> float array -> int -> int -> int
  = "pc_argmin_center" [@@noalloc]

external c_argmax_dist :
  float array -> int array -> int -> float array -> int -> int -> int
  = "pc_argmax_dist_bc" "pc_argmax_dist" [@@noalloc]

external c_min_dist2_update :
  float array -> int -> int -> float array -> int -> float array -> unit
  = "pc_min_dist2_update_bc" "pc_min_dist2_update" [@@noalloc]

external c_leaf_multi_count :
  float array -> int array -> int -> int -> float array -> int -> int ->
  float array -> int -> int -> int array -> unit
  = "pc_leaf_multi_count_bc" "pc_leaf_multi_count" [@@noalloc]

let compiled = true

(* Runtime selection: one atomic read per kernel call.  The initial value
   honours PRIVCLUSTER_NO_NATIVE so the pure-OCaml tier (CI, debugging)
   needs no code change. *)
let env_disabled =
  match Sys.getenv_opt "PRIVCLUSTER_NO_NATIVE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let native = Atomic.make (compiled && not env_disabled)
let native_active () = Atomic.get native
let set_native b = Atomic.set native (b && compiled)

module Ref = struct
  let count_within ~st ~offs ~lo ~hi ~q ~qoff ~dim ~r2 =
    let c = ref 0 in
    for i = lo to hi do
      let off = Array.unsafe_get offs i in
      let acc = ref 0. in
      for j = 0 to dim - 1 do
        let d =
          Array.unsafe_get st (off + j) -. Array.unsafe_get q (qoff + j)
        in
        acc := !acc +. (d *. d)
      done;
      if !acc <= r2 then incr c
    done;
    !c

  let dists_to_rows ~st ~offs ~n ~q ~qoff ~dim ~out =
    for i = 0 to n - 1 do
      let off = Array.unsafe_get offs i in
      let acc = ref 0. in
      for j = 0 to dim - 1 do
        let d =
          Array.unsafe_get q (qoff + j) -. Array.unsafe_get st (off + j)
        in
        acc := !acc +. (d *. d)
      done;
      Array.unsafe_set out i (Float.sqrt !acc)
    done

  let kth_smallest a ~len ~k =
    let sub = Array.sub a 0 len in
    Array.sort Float.compare sub;
    sub.(k - 1)

  let top_avg_capped ~counts ~off ~len ~cap ~k =
    let hist = Array.make (cap + 1) 0 in
    for i = 0 to len - 1 do
      let c = min cap counts.(off + i) in
      hist.(c) <- hist.(c) + 1
    done;
    let sum = ref 0 and remaining = ref k in
    let v = ref cap in
    while !v >= 0 && !remaining > 0 do
      let take = min hist.(!v) !remaining in
      sum := !sum + (take * !v);
      remaining := !remaining - take;
      decr v
    done;
    float_of_int !sum /. float_of_int k

  let jl_project ~mat ~st ~offs ~n ~in_dim ~out_dim ~scale ~out =
    for i = 0 to n - 1 do
      let xoff = Array.unsafe_get offs i in
      let obase = i * out_dim in
      for r = 0 to out_dim - 1 do
        let mbase = r * in_dim in
        let acc = ref 0. in
        for j = 0 to in_dim - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get mat (mbase + j)
                *. Array.unsafe_get st (xoff + j))
        done;
        Array.unsafe_set out (obase + r) (scale *. !acc)
      done
    done

  let sum_rows ~st ~sel ~m ~dim ~acc =
    for s = 0 to m - 1 do
      let off = Array.unsafe_get sel s in
      for j = 0 to dim - 1 do
        Array.unsafe_set acc j
          (Array.unsafe_get acc j +. Array.unsafe_get st (off + j))
      done
    done

  let argmin_center ~st ~off ~centers ~k ~dim =
    let best = ref 0 and best_d = ref infinity in
    for j = 0 to k - 1 do
      let cbase = j * dim in
      let acc = ref 0. in
      for l = 0 to dim - 1 do
        let d =
          Array.unsafe_get st (off + l) -. Array.unsafe_get centers (cbase + l)
        in
        acc := !acc +. (d *. d)
      done;
      if !acc < !best_d then begin
        best_d := !acc;
        best := j
      end
    done;
    !best

  let argmax_dist ~st ~offs ~n ~q ~qoff ~dim =
    let best = ref 0 and best_d = ref neg_infinity in
    for i = 0 to n - 1 do
      let off = Array.unsafe_get offs i in
      let acc = ref 0. in
      for j = 0 to dim - 1 do
        let d =
          Array.unsafe_get st (off + j) -. Array.unsafe_get q (qoff + j)
        in
        acc := !acc +. (d *. d)
      done;
      if !acc > !best_d then begin
        best_d := !acc;
        best := i
      end
    done;
    !best

  let min_dist2_update ~st ~n ~dim ~centers ~coff ~dist2 =
    for i = 0 to n - 1 do
      let base = i * dim in
      let acc = ref 0. in
      for j = 0 to dim - 1 do
        let d =
          Array.unsafe_get st (base + j) -. Array.unsafe_get centers (coff + j)
        in
        acc := !acc +. (d *. d)
      done;
      if !acc < Array.unsafe_get dist2 i then Array.unsafe_set dist2 i !acc
    done

  let leaf_multi_count ~st ~idx ~lo ~hi ~q ~qoff ~dim ~r2s ~jlo ~jhi ~acc =
    if jlo < jhi then
      for i = lo to hi do
        let off = Array.unsafe_get idx i in
        let d2 = ref 0. in
        for j = 0 to dim - 1 do
          let d =
            Array.unsafe_get st (off + j) -. Array.unsafe_get q (qoff + j)
          in
          d2 := !d2 +. (d *. d)
        done;
        if !d2 <= r2s.(jhi - 1) then begin
          let a = ref jlo and b = ref (jhi - 1) in
          while !a < !b do
            let mid = (!a + !b) / 2 in
            if !d2 <= Array.unsafe_get r2s mid then b := mid else a := mid + 1
          done;
          acc.(!a) <- acc.(!a) + 1;
          acc.(jhi) <- acc.(jhi) - 1
        end
      done
end

let count_within ~st ~offs ~lo ~hi ~q ~qoff ~dim ~r2 =
  if Atomic.get native then c_count_within st offs lo hi q qoff dim r2
  else Ref.count_within ~st ~offs ~lo ~hi ~q ~qoff ~dim ~r2

let dists_to_rows ~st ~offs ~n ~q ~qoff ~dim ~out =
  if Atomic.get native then c_dists_to_rows st offs n q qoff dim out
  else Ref.dists_to_rows ~st ~offs ~n ~q ~qoff ~dim ~out

let kth_smallest a ~len ~k =
  if Atomic.get native then c_kth_smallest a len k
  else Ref.kth_smallest a ~len ~k

let top_avg_capped ~counts ~off ~len ~cap ~k =
  if Atomic.get native then begin
    let r = c_top_avg_capped counts off len cap k in
    (* Negative only on allocation failure inside the stub; counts are
       non-negative so a real result is always >= 0. *)
    if r >= 0. then r else Ref.top_avg_capped ~counts ~off ~len ~cap ~k
  end
  else Ref.top_avg_capped ~counts ~off ~len ~cap ~k

let jl_project ~mat ~st ~offs ~n ~in_dim ~out_dim ~scale ~out =
  if Atomic.get native then
    c_jl_project mat st offs n in_dim out_dim scale out
  else Ref.jl_project ~mat ~st ~offs ~n ~in_dim ~out_dim ~scale ~out

let sum_rows ~st ~sel ~m ~dim ~acc =
  if Atomic.get native then c_sum_rows st sel m dim acc
  else Ref.sum_rows ~st ~sel ~m ~dim ~acc

let argmin_center ~st ~off ~centers ~k ~dim =
  if Atomic.get native then c_argmin_center st off centers k dim
  else Ref.argmin_center ~st ~off ~centers ~k ~dim

let argmax_dist ~st ~offs ~n ~q ~qoff ~dim =
  if Atomic.get native then c_argmax_dist st offs n q qoff dim
  else Ref.argmax_dist ~st ~offs ~n ~q ~qoff ~dim

let min_dist2_update ~st ~n ~dim ~centers ~coff ~dist2 =
  if Atomic.get native then c_min_dist2_update st n dim centers coff dist2
  else Ref.min_dist2_update ~st ~n ~dim ~centers ~coff ~dist2

let leaf_multi_count ~st ~idx ~lo ~hi ~q ~qoff ~dim ~r2s ~jlo ~jhi ~acc =
  if Atomic.get native then
    c_leaf_multi_count st idx lo hi q qoff dim r2s jlo jhi acc
  else Ref.leaf_multi_count ~st ~idx ~lo ~hi ~q ~qoff ~dim ~r2s ~jlo ~jhi ~acc
