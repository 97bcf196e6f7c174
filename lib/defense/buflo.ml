module Trace = Stob_net.Trace
module Packet = Stob_net.Packet

type params = {
  packet_size : int;  (** Fixed wire size, both directions. *)
  interval : float;  (** Seconds between packets in each direction. *)
  tau : float;  (** Minimum defended duration, seconds. *)
}

let params = { packet_size = 1500; interval = 0.004; tau = 10.0 }

let stream params dir bytes =
  (* Enough fixed-size packets to carry the real bytes, and never shorter
     than tau. *)
  let needed = (bytes + params.packet_size - 1) / params.packet_size in
  let minimum = int_of_float (params.tau /. params.interval) in
  let n = Int.max needed minimum in
  Trace.of_events
    (Array.init n (fun i ->
         { Trace.time = float_of_int i *. params.interval; dir; size = params.packet_size }))

let apply trace =
  let out = stream params Packet.Outgoing (Trace.bytes ~dir:Packet.Outgoing trace) in
  let inc = stream params Packet.Incoming (Trace.bytes ~dir:Packet.Incoming trace) in
  Trace.concat_sorted [ out; inc ]
