(** A full client-server QUIC connection wired over a {!Stob_tcp.Path}.

    Creates both endpoints with the shared wire-frame table (the simulator's
    stand-in for encrypted packet contents), registers the path demux, and
    runs the handshake.  One QUIC connection multiplexes many streams, so a
    whole page load uses a single [flow] — the HTTP/3 deployment model the
    QUIC WF literature (QCSD, Siby et al.) studies. *)

type t

val create :
  engine:Stob_sim.Engine.t ->
  path:Stob_tcp.Path.t ->
  flow:int ->
  ?cc:Stob_tcp.Cc.factory ->
  ?server_hooks:Stob_tcp.Hooks.t ->
  flight_bytes:int ->
  unit ->
  t
(** [flight_bytes] is the server's handshake flight (certificate chain)
    size.  Both endpoints run {!Endpoint.default_config}; [cc] defaults to
    CUBIC. *)

val client : t -> Endpoint.t
val server : t -> Endpoint.t

val open_ : t -> unit
(** Client sends its Initial. *)

val on_established : t -> (unit -> unit) -> unit
(** Fires when the client completes the handshake. *)
