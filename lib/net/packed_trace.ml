type t = Trace.t

let of_trace t = t
let to_bytes = Trace.to_bytes
let length = Trace.length
