module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng

type params = {
  n_client_max : int;
  n_server_max : int;
  w_min : float;
  w_max : float;
  dummy_size : int;
}

let default_params =
  { n_client_max = 600; n_server_max = 1400; w_min = 1.0; w_max = 8.0; dummy_size = 1500 }

let rayleigh rng ~sigma =
  let rec nonzero () =
    let u = Rng.float rng 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  sigma *. sqrt (-2.0 *. log (nonzero ()))

let inject params rng trace dir n_max =
  let n = 1 + Rng.int rng (max 1 n_max) in
  let w = Rng.uniform rng params.w_min params.w_max in
  let t0 = if Trace.length trace = 0 then 0.0 else Trace.time trace 0 in
  let horizon = t0 +. Trace.duration trace in
  List.init n (fun _ ->
      let t = t0 +. rayleigh rng ~sigma:(w /. 2.0) in
      (* Dummies beyond the trace end are clipped to the live window: an
         implementation stops padding once the page is loaded. *)
      { Trace.time = Float.min t horizon; dir; size = params.dummy_size })

let apply ?(params = default_params) ~rng trace =
  let client = inject params rng trace Packet.Outgoing params.n_client_max in
  let server = inject params rng trace Packet.Incoming params.n_server_max in
  Trace.concat_sorted
    [ trace; Trace.of_events (Array.of_list client); Trace.of_events (Array.of_list server) ]
