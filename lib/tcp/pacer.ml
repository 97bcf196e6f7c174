type t = { mutable next_free : float }

let create () = { next_free = 0.0 }

let next_departure t ~now = Float.max now t.next_free

let commit t ~departure ~rate_bps ~bytes =
  if rate_bps = infinity || rate_bps <= 0.0 then t.next_free <- departure
  else t.next_free <- departure +. (float_of_int (bytes * 8) /. rate_bps)

let next_free t = t.next_free

let jump t delta = t.next_free <- Float.max 0.0 (t.next_free +. delta)
