module Trace = Stob_net.Trace
module Packet = Stob_net.Packet

type params = {
  packet_size : int;
  interval_out : float;  (** Upload inter-packet interval, seconds. *)
  interval_in : float;  (** Download inter-packet interval, seconds. *)
  pad_multiple : int;  (** L: pad each direction's count to a multiple. *)
}

let params =
  { packet_size = 1500; interval_out = 0.04; interval_in = 0.012; pad_multiple = 100 }

let stream params dir ~interval bytes =
  let needed = (bytes + params.packet_size - 1) / params.packet_size in
  let l = Int.max 1 params.pad_multiple in
  let n = Int.max l ((needed + l - 1) / l * l) in
  Trace.of_events
    (Array.init n (fun i -> { Trace.time = float_of_int i *. interval; dir; size = params.packet_size }))

let apply trace =
  let out =
    stream params Packet.Outgoing ~interval:params.interval_out
      (Trace.bytes ~dir:Packet.Outgoing trace)
  in
  let inc =
    stream params Packet.Incoming ~interval:params.interval_in
      (Trace.bytes ~dir:Packet.Incoming trace)
  in
  Trace.concat_sorted [ out; inc ]
