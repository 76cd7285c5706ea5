external now_ns : unit -> int64 = "obs_clock_now_ns"

let ns_to_ms ns = Int64.to_float ns /. 1e6
let ns_to_us ns = Int64.to_float ns /. 1e3
let ms_since t0 = ns_to_ms (Int64.sub (now_ns ()) t0)
