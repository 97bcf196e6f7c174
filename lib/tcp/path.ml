module Packet = Stob_net.Packet
module Capture = Stob_net.Capture
module Link = Stob_sim.Link
module Netem = Stob_sim.Netem

(* Per-flow callback tables, one per direction: the flow id alone is the
   key, so a lookup hashes an int instead of a (flow, dir) tuple.  Each
   table remembers the flow it found last, so consecutive frames of one
   flow reach their callback without hashing or allocating.  [set] keeps
   that entry true, and nothing removes a flow. *)
module Flows = Stob_util.Int_table

type demux = {
  flows : (Packet.t -> unit) Flows.t;
  mutable last_flow : int;
  mutable last : Packet.t -> unit;  (* [last_flow]'s callback *)
}

(* An unregistered flow's packets silently sink. *)
let sink (_ : Packet.t) = ()

let demux () = { flows = Flows.create 16; last_flow = min_int; last = sink }

let set d ~flow f =
  Flows.replace d.flows flow f;
  d.last_flow <- flow;
  d.last <- f

let notify d (p : Packet.t) =
  let flow = p.Packet.flow in
  if flow <> d.last_flow then begin
    d.last_flow <- flow;
    d.last <- (match Flows.find_opt d.flows flow with Some f -> f | None -> sink)
  end;
  d.last p

type callbacks = { incoming : demux; outgoing : demux }

let callbacks () = { incoming = demux (); outgoing = demux () }

let for_dir tables = function
  | Packet.Incoming -> tables.incoming
  | Packet.Outgoing -> tables.outgoing

type t = {
  to_server : Packet.t Link.t;  (* carries Outgoing packets *)
  to_client : Packet.t Link.t;  (* carries Incoming packets *)
  capture : Capture.t option;  (* [None] when created with [~capture:false] *)
  rx : callbacks;
  serialized : callbacks;
  server_qdisc : Packet.t array Qdisc.t option;
  client_netem : Packet.t Netem.t option;  (* impairs deliveries to the client *)
  server_netem : Packet.t Netem.t option;  (* impairs deliveries to the server *)
}

let burst_wire_bytes packets = Array.fold_left (fun acc p -> acc + Packet.wire_size p) 0 packets

let create ~engine ~rate_bps ~delay ?queue_capacity ?(server_fq = false) ?(capture = true)
    ?client_netem ?server_netem () =
  let rx = callbacks () in
  let serialized = callbacks () in
  let deliver dir = notify (for_dir rx dir) in
  (* The impairment stage sits between a link's receive end and the
     endpoint demux: packets experience serialization and propagation
     first, then loss/reordering/duplication/jitter. *)
  let impaired spec dir =
    match spec with
    | None -> (deliver dir, None)
    | Some spec ->
        let n = Netem.of_spec ~engine ~deliver:(deliver dir) spec in
        (Netem.feed n, Some n)
  in
  let deliver_to_server, server_netem = impaired server_netem Packet.Outgoing in
  let deliver_to_client, client_netem = impaired client_netem Packet.Incoming in
  let to_server =
    Link.create engine ~rate_bps ~delay ?queue_capacity ~size:Packet.wire_size
      ~deliver:deliver_to_server ()
  in
  let to_client =
    Link.create engine ~rate_bps ~delay ?queue_capacity ~size:Packet.wire_size
      ~deliver:deliver_to_client ()
  in
  let capture = if capture then Some (Capture.create ()) else None in
  (* TSQ needs the serialization notification either way.  The closure is
     chosen once here, so no frame pays for the choice. *)
  let tap =
    match capture with
    | Some c ->
        fun ~time p ->
          Capture.record c ~time p;
          notify (for_dir serialized p.Packet.dir) p
    | None -> fun ~time:_ p -> notify (for_dir serialized p.Packet.dir) p
  in
  Link.set_tap to_server tap;
  Link.set_tap to_client tap;
  let server_qdisc =
    if server_fq then
      Some (Qdisc.fq ~limit_bytes:(64 * 1024 * 1024) ~size:burst_wire_bytes ())
    else None
  in
  let t =
    { to_server; to_client; capture; rx; serialized; server_qdisc; client_netem; server_netem }
  in
  (match server_qdisc with
  | None -> ()
  | Some q ->
      (* Feed the server->client link from the qdisc whenever it idles. *)
      Link.set_on_idle to_client (fun () ->
          match Qdisc.dequeue q with
          | None -> ()
          | Some (_, burst) -> Array.iter (fun p -> ignore (Link.send to_client p)) burst));
  t

let register t ~flow ~client ~server =
  set t.rx.incoming ~flow client;
  set t.rx.outgoing ~flow server

let set_serialized_callback t ~flow ~dir f = set (for_dir t.serialized dir) ~flow f

let send t packets =
  if Array.length packets > 0 then begin
    let dir = packets.(0).Packet.dir in
    match (dir, t.server_qdisc) with
    | Packet.Incoming, Some q ->
        if Link.busy t.to_client || Qdisc.backlog_bytes q > 0 then begin
          let flow = packets.(0).Packet.flow in
          ignore (Qdisc.enqueue q ~flow packets)
        end
        else Array.iter (fun p -> ignore (Link.send t.to_client p)) packets
    | Packet.Incoming, None -> Array.iter (fun p -> ignore (Link.send t.to_client p)) packets
    | Packet.Outgoing, _ -> Array.iter (fun p -> ignore (Link.send t.to_server p)) packets
  end

let capture t =
  match t.capture with
  | Some c -> c
  | None -> invalid_arg "Path.capture: this path was created with ~capture:false"
let server_qdisc t = t.server_qdisc
let server_link_bytes t = Link.bytes_sent t.to_client
let drops t =
  Link.drops t.to_client + Link.drops t.to_server
  + match t.server_qdisc with None -> 0 | Some q -> Qdisc.drops q

let netem_stats_of = function None -> Netem.zero_stats | Some n -> Netem.stats n

let netem_stats t =
  Netem.add_stats (netem_stats_of t.client_netem) (netem_stats_of t.server_netem)

let netem_lost t = (netem_stats t).Netem.lost
