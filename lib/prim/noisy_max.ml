let argmax_value rng ~eps ~sensitivity scores =
  if Array.length scores = 0 then invalid_arg "Noisy_max.argmax: empty score set";
  let scale = 2. *. sensitivity /. eps in
  let best = ref 0 and best_v = ref neg_infinity in
  Array.iteri
    (fun i s ->
      let v = s +. Rng.laplace rng ~scale () in
      if v > !best_v then begin
        best_v := v;
        best := i
      end)
    scores;
  (!best, !best_v)

let argmax rng ~eps ~sensitivity scores = fst (argmax_value rng ~eps ~sensitivity scores)

module For_testing = struct
  let argmax_value = argmax_value
end
