module Trace = Stob_net.Trace
module Packet = Stob_net.Packet

type params = {
  initial_rate : float;  (** Packets per second at a surge start. *)
  decay : float;  (** Per-second multiplicative rate decay (0 < d <= 1). *)
  surge_threshold : int;  (** Queued packets that trigger a new surge. *)
  upload_ratio : int;  (** One upload packet per this many downloads. *)
  packet_size : int;
}

let params =
  { initial_rate = 300.0; decay = 0.9; surge_threshold = 60; upload_ratio = 4; packet_size = 1500 }

let apply trace =
  let arrivals =
    Array.to_list (Trace.times ~dir:Packet.Incoming trace)
  in
  match arrivals with
  | [] -> Trace.sort trace
  | first :: _ ->
      let out = ref [] in
      let emitted = ref 0 in
      let pending = ref arrivals in
      let queued = ref 0 in
      let t = ref first in
      let surge_start = ref first in
      let continue = ref true in
      while !continue do
        (* Move arrivals whose time has passed into the queue. *)
        let rec absorb () =
          match !pending with
          | a :: rest when a <= !t ->
              incr queued;
              pending := rest;
              absorb ()
          | _ -> ()
        in
        absorb ();
        (* Queue pressure starts a fresh surge (rate reset). *)
        if !queued >= params.surge_threshold then surge_start := !t;
        let rate = params.initial_rate *. (params.decay ** (!t -. !surge_start)) in
        (* Emit one download packet per slot: real if queued, dummy during a
           live surge otherwise. *)
        let emit_real = !queued > 0 in
        if emit_real then decr queued;
        out := { Trace.time = !t; dir = Packet.Incoming; size = params.packet_size } :: !out;
        incr emitted;
        if !emitted mod params.upload_ratio = 0 then
          out := { Trace.time = !t; dir = Packet.Outgoing; size = params.packet_size } :: !out;
        let gap = Float.min 1.0 (1.0 /. Float.max rate 1.0) in
        t := !t +. gap;
        if !pending = [] && !queued = 0 then continue := false
      done;
      Trace.sort (Trace.of_events (Array.of_list (List.rev !out)))
