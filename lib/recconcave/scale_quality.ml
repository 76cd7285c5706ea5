let num_scales size =
  if size < 1 then invalid_arg "Scale_quality.num_scales: size must be >= 1";
  let rec go w j = if w >= size then j + 1 else go (2 * w) (j + 1) in
  go 1 0

let width ~size j =
  if j < 0 then invalid_arg "Scale_quality.width: negative scale";
  (* Guard against overflow for large j. *)
  if j >= 62 then size else min (1 lsl j) size

let interval_min q ~lo ~hi = Float.min (Quality.eval q lo) (Quality.eval q hi)

let eval q j =
  let size = Quality.size q in
  let w = width ~size j in
  let best = ref neg_infinity in
  for a = 0 to size - w do
    let v = interval_min q ~lo:a ~hi:(a + w - 1) in
    if v > !best then best := v
  done;
  !best

let quality q = Quality.create ~size:(num_scales (Quality.size q)) ~f:(eval q)

module For_testing = struct
  let eval = eval
  let interval_min = interval_min
end
