module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng

type params = {
  burst_packets_mean : float;  (** Mean packets per reference burst. *)
  burst_gap_mean : float;  (** Mean silence between bursts, seconds. *)
  packet_interval : float;  (** In-burst packet spacing, seconds. *)
  packet_size : int;
  upload_every : int;  (** One upload packet per this many downloads. *)
}

let params =
  {
    burst_packets_mean = 30.0;
    burst_gap_mean = 0.06;
    packet_interval = 0.0015;
    packet_size = 1500;
    upload_every = 5;
  }

let apply ~rng trace =
  let real_bytes = Trace.bytes ~dir:Packet.Incoming trace in
  let out = ref [] in
  let sent = ref 0 in
  let t = ref 0.0 in
  let emitted = ref 0 in
  (* Draw reference bursts until the real payload is covered; every burst is
     fully transmitted (its tail beyond the real data is padding). *)
  while !sent < real_bytes do
    let burst_len = 1 + Rng.poisson rng ~lambda:params.burst_packets_mean in
    for _ = 1 to burst_len do
      out := { Trace.time = !t; dir = Packet.Incoming; size = params.packet_size } :: !out;
      sent := !sent + params.packet_size;
      incr emitted;
      if !emitted mod params.upload_every = 0 then
        out := { Trace.time = !t; dir = Packet.Outgoing; size = params.packet_size } :: !out;
      t := !t +. params.packet_interval
    done;
    t := !t +. Rng.exponential rng ~rate:(1.0 /. params.burst_gap_mean)
  done;
  Trace.sort (Trace.of_events (Array.of_list (List.rev !out)))
