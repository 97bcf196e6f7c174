type t = { per_segment : float; per_packet : float; per_byte : float }

let default_server = { per_segment = 4.0e-6; per_packet = 80.0e-9; per_byte = 0.08e-9 }

let segment_cost t ~packets ~bytes =
  t.per_segment +. (float_of_int packets *. t.per_packet) +. (float_of_int bytes *. t.per_byte)
