module Packet = Stob_net.Packet
module Path = Stob_tcp.Path

type t = { client : Endpoint.t; server : Endpoint.t }

let create ~engine ~path ~flow ?(cc = Stob_tcp.Cubic.make) ?server_hooks ~flight_bytes () =
  let config = Endpoint.default_config in
  let wire = Endpoint.create_wire 1024 in
  let tx packets = Path.send path packets in
  let client = Endpoint.create ~engine ~cc:(cc config) ~flow ~dir:Packet.Outgoing ~wire ~tx () in
  let server =
    Endpoint.create ~engine ~cc:(cc config) ~flow ~dir:Packet.Incoming ~wire ?hooks:server_hooks
      ~tx ()
  in
  Endpoint.listen server ~flight_bytes;
  Path.register path ~flow
    ~client:(fun p -> Endpoint.receive client p)
    ~server:(fun p -> Endpoint.receive server p);
  { client; server }

let client t = t.client
let server t = t.server
let open_ t = Endpoint.connect t.client
let on_established t f = Endpoint.set_on_established t.client f
