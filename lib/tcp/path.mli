(** A client-server network path shared by many connections.

    Two unidirectional links (client->server and server->client) with a
    passive capture on each — the eavesdropper's vantage point.  Multiple
    connections are multiplexed by flow id, like tcpdump seeing all traffic
    between a browser and a site.

    The server egress (the direction a server-side defense controls) can
    optionally run a fair-queueing qdisc and a CPU model shared by all
    flows, matching the paper's server-side deployment scenario.

    Each direction can additionally run a netem-style impairment stage
    (seeded loss, reordering, duplication, jitter — {!Stob_sim.Netem})
    between the link's receive end and the endpoint demux, so recovery
    machinery is exercised under adverse-network conditions that queue
    overflow alone cannot produce. *)

type t

val create :
  engine:Stob_sim.Engine.t ->
  rate_bps:float ->
  delay:float ->
  ?queue_capacity:int ->
  ?server_fq:bool ->
  ?capture:bool ->
  ?client_netem:Stob_net.Packet.t Stob_sim.Netem.spec ->
  ?server_netem:Stob_net.Packet.t Stob_sim.Netem.spec ->
  unit ->
  t
(** [delay] is one-way propagation (RTT is twice that plus serialization).
    [queue_capacity] bounds each link's bottleneck queue in bytes.
    [server_fq] interposes a DRR fair-queueing qdisc on the server->client
    direction.  [capture] (default [true]) records every frame on both
    links into {!capture}; a probe that reads only byte counters (a bulk
    throughput measurement) passes [false] and keeps no trace — the
    simulation, TSQ's serialization notifications included, is otherwise
    identical.  [client_netem] impairs packets the {e client receives}
    (the download direction); [server_netem] impairs packets the server
    receives.  Give the two specs distinct seeds. *)

val register :
  t ->
  flow:int ->
  client:(Stob_net.Packet.t -> unit) ->
  server:(Stob_net.Packet.t -> unit) ->
  unit
(** Bind receive callbacks for a flow.  [client] receives Incoming packets;
    [server] receives Outgoing ones. *)

val set_serialized_callback :
  t -> flow:int -> dir:Stob_net.Packet.direction -> (Stob_net.Packet.t -> unit) -> unit
(** Notify the sending endpoint of [flow] when one of its packets starts
    serialization in direction [dir] (TSQ accounting). *)

val send : t -> Stob_net.Packet.t array -> unit
(** Inject a burst; each packet is routed by its direction field. *)

val capture : t -> Stob_net.Capture.t
(** The combined two-direction capture.  Raises [Invalid_argument] on a
    path created with [~capture:false]: it never hands out a silently
    empty trace. *)

val server_qdisc : t -> Stob_net.Packet.t array Qdisc.t option
(** The server-egress fair-queueing qdisc, when [server_fq] was requested.
    Exposed for the invariant monitor (backlog-vs-limit watch) and the
    chaos harness ({!Stob_sim.Fault.Qdisc_collapse} applies
    {!Qdisc.set_limit_bytes} here). *)

val server_link_bytes : t -> int
(** Bytes serialized so far on the server->client link (throughput probes). *)

val drops : t -> int
(** Total packets dropped at either bottleneck queue. *)

val netem_stats : t -> Stob_sim.Netem.stats
(** Combined impairment counters over both directions (all zero when no
    netem is configured). *)

val netem_lost : t -> int
(** Packets deliberately lost by the impairment stages — next to {!drops},
    which counts congestive queue-overflow losses.  Test seam: observes
    the impairment stages. *)
