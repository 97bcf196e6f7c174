module Engine = Stob_sim.Engine
module Packet = Stob_net.Packet

type t = { client : Endpoint.t; server : Endpoint.t; flow : int }

let create ~engine ~path ~flow ?(client_config = Config.default) ?(server_config = Config.default)
    ?(cc = Cubic.make) ?server_cpu ?server_hooks () =
  let tx packets = Path.send path packets in
  let client =
    Endpoint.create ~engine ~config:client_config ~cc:(cc client_config) ~flow
      ~dir:Packet.Outgoing ~tx ()
  in
  let server =
    Endpoint.create ~engine ~config:server_config ~cc:(cc server_config) ~flow
      ~dir:Packet.Incoming ?cpu:server_cpu ?hooks:server_hooks ~tx ()
  in
  Path.register path ~flow
    ~client:(fun p -> Endpoint.receive client p)
    ~server:(fun p -> Endpoint.receive server p);
  Path.set_serialized_callback path ~flow ~dir:Packet.Outgoing (Endpoint.notify_serialized client);
  Path.set_serialized_callback path ~flow ~dir:Packet.Incoming (Endpoint.notify_serialized server);
  { client; server; flow }

let client t = t.client
let server t = t.server
let flow t = t.flow
let open_ t = Endpoint.connect t.client
let on_established t f = Endpoint.set_on_established t.client f

let ccas = [ ("reno", Reno.make); ("cubic", Cubic.make); ("bbr", Bbr.make) ]

let cc_of_name name =
  match List.find_opt (fun (n, _) -> String.equal n name) ccas with
  | Some (_, cc) -> cc
  | None -> invalid_arg ("Connection.cc_of_name: unknown CCA " ^ name)

let bulk ~engine ~period ~low_water ~chunk t =
  let rec refill () =
    if Endpoint.established t.server && Endpoint.unsent t.server < low_water then
      Endpoint.write t.server chunk;
    Engine.schedule engine ~delay:period refill
  in
  Engine.schedule engine ~delay:0.0 refill;
  on_established t (fun () -> Endpoint.write t.client 64);
  open_ t

let throughput ~engine ~path ~warmup ~measure =
  let mark = ref 0 in
  Engine.schedule engine ~delay:warmup (fun () -> mark := Path.server_link_bytes path);
  Engine.run ~until:(warmup +. measure) engine;
  Stob_util.Units.throughput_bps ~bytes:(Path.server_link_bytes path - !mark) ~seconds:measure

type exchange = {
  mutable client_received : int;
  mutable server_received : int;
  mutable last_activity : float;
}

let request_response ~engine ~client ~server ~request ~response =
  let x = { client_received = 0; server_received = 0; last_activity = 0.0 } in
  let touch () = x.last_activity <- Engine.now engine in
  let responded = ref false in
  Endpoint.set_on_receive server (fun n ->
      touch ();
      x.server_received <- x.server_received + n;
      if (not !responded) && x.server_received >= request then begin
        responded := true;
        Endpoint.write server response;
        Endpoint.close server
      end);
  Endpoint.set_on_receive client (fun n ->
      touch ();
      x.client_received <- x.client_received + n);
  Endpoint.set_on_fin client (fun () ->
      touch ();
      Endpoint.close client);
  Endpoint.set_on_established client (fun () -> Endpoint.write client request);
  x
