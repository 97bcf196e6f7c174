module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng

type params = {
  window : float;  (** Shaping-decision interval, seconds. *)
  noise_scale : float;  (** Laplace scale, bytes per window. *)
  floor_bytes : int;  (** Minimum per-window budget (padding floor). *)
  packet_size : int;
}

let params =
  { window = 0.05; noise_scale = 20.0 *. 1024.0; floor_bytes = 8 * 1024; packet_size = 1500 }

let laplace rng ~scale =
  let u = Rng.uniform rng (-0.5) 0.5 in
  -.scale *. Float.copy_sign (log (1.0 -. (2.0 *. Float.abs u))) u

let apply ~rng trace =
  let events = List.init (Trace.length trace) (Trace.get trace) in
  let incoming = List.filter (fun e -> e.Trace.dir = Packet.Incoming) events in
  let outgoing =
    Trace.of_events (Array.of_list (List.filter (fun e -> e.Trace.dir = Packet.Outgoing) events))
  in
  match incoming with
  | [] -> Trace.sort trace
  | first :: _ ->
      let t0 = first.Trace.time in
      let last = List.fold_left (fun acc e -> Float.max acc e.Trace.time) t0 incoming in
      let out = ref [] in
      (* Demand per window; the shaper's budget chases it with DP noise. *)
      let queue = ref 0 in
      let pending = ref incoming in
      let w = ref 0 in
      let continue = ref true in
      while !continue do
        let w_start = t0 +. (float_of_int !w *. params.window) in
        let w_end = w_start +. params.window in
        (* Absorb this window's arrivals into the queue. *)
        let rec absorb () =
          match !pending with
          | e :: rest when e.Trace.time < w_end ->
              queue := !queue + e.Trace.size;
              pending := rest;
              absorb ()
          | _ -> ()
        in
        absorb ();
        (* Noisy budget: demand estimate (current queue) + Laplace noise,
           floored. *)
        let budget =
          Int.max params.floor_bytes
            (!queue + int_of_float (laplace rng ~scale:params.noise_scale))
        in
        (* Emit the budget as evenly spaced fixed-size packets: real bytes
           first, padding for the remainder. *)
        let n_packets = Int.max 1 (budget / params.packet_size) in
        let spacing = params.window /. float_of_int n_packets in
        for i = 0 to n_packets - 1 do
          out :=
            { Trace.time = w_start +. (float_of_int i *. spacing);
              dir = Packet.Incoming;
              size = params.packet_size }
            :: !out
        done;
        queue := Int.max 0 (!queue - (n_packets * params.packet_size));
        incr w;
        if !pending = [] && !queue = 0 && w_start > last then continue := false
      done;
      Trace.concat_sorted [ outgoing; Trace.of_events (Array.of_list (List.rev !out)) ]
