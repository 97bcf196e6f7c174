module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng

type params = {
  n_client_max : int;  (** Max dummies injected by the client side. *)
  n_server_max : int;  (** Max dummies injected by the server side. *)
  w_min : float;  (** Minimum Rayleigh window, seconds. *)
  w_max : float;  (** Maximum Rayleigh window, seconds. *)
  dummy_size : int;  (** Wire size of a dummy packet. *)
}

let params =
  { n_client_max = 600; n_server_max = 1400; w_min = 1.0; w_max = 8.0; dummy_size = 1500 }

let rayleigh rng ~sigma =
  let rec nonzero () =
    let u = Rng.float rng 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  sigma *. sqrt (-2.0 *. log (nonzero ()))

let inject params rng trace dir n_max =
  let n = 1 + Rng.int rng (Int.max 1 n_max) in
  let w = Rng.uniform rng params.w_min params.w_max in
  let t0 = if Trace.length trace = 0 then 0.0 else Trace.time trace 0 in
  let horizon = t0 +. Trace.duration trace in
  List.init n (fun _ ->
      let t = t0 +. rayleigh rng ~sigma:(w /. 2.0) in
      (* Dummies beyond the trace end are clipped to the live window: an
         implementation stops padding once the page is loaded. *)
      { Trace.time = Float.min t horizon; dir; size = params.dummy_size })

let apply ~rng trace =
  let client = inject params rng trace Packet.Outgoing params.n_client_max in
  let server = inject params rng trace Packet.Incoming params.n_server_max in
  Trace.concat_sorted
    [ trace; Trace.of_events (Array.of_list client); Trace.of_events (Array.of_list server) ]
