let msec x = x *. 1e-3
let mbps x = x *. 1e6
let gbps x = x *. 1e9

let tx_time ~rate_bps ~bytes =
  if rate_bps <= 0.0 then invalid_arg "Units.tx_time: rate must be positive";
  float_of_int (bytes * 8) /. rate_bps

let to_gbps ~bits_per_sec = bits_per_sec /. 1e9

let throughput_bps ~bytes ~seconds =
  if seconds <= 0.0 then 0.0 else float_of_int (bytes * 8) /. seconds
