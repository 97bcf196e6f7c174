(** Page loads over QUIC (the HTTP/3 deployment model).

    Unlike the TCP driver ({!Browser}), a QUIC visit uses a {e single}
    connection: every resource is one bidirectional stream, with the
    browser capping concurrent streams.  The wire picture therefore differs
    from TCP exactly as it does in reality — one handshake, no per-
    connection TLS flights, stream multiplexing interleaving responses —
    which is what makes TCP-vs-QUIC fingerprintability comparable
    (Section 2.3 argues Stob's control points exist in both; the QCSD line
    of work studies the QUIC side).

    Returns the same {!Browser.result} record, so datasets can be generated
    over either transport interchangeably. *)

val load :
  ?policy:Stob_core.Policy.t ->
  ?cc:Stob_tcp.Cc.factory ->
  ?client_netem:Stob_net.Packet.t Stob_sim.Netem.spec ->
  ?server_netem:Stob_net.Packet.t Stob_sim.Netem.spec ->
  ?on_connection:(Stob_quic.Connection.t -> unit) ->
  rng:Stob_util.Rng.t ->
  Profile.t ->
  Browser.result
(** [policy] installs a server-side Stob policy on the connection's
    datagram path.  The handshake flight size is drawn from the profile's
    [tls_flight] (certificate chain), as in the TCP driver.
    [client_netem] impairs packets the client receives (the download
    direction) and [server_netem] those the server receives, as in
    {!Stob_tcp.Path.create}; the capture taps upstream of both, the
    result's [netem_stats] reports what the stages did, and the hardened
    endpoint's loss detection and PTO machinery recover the visit.
    [on_connection] receives the visit's connection before it opens, to
    read its endpoints' counters once the load returns.  Simulated time is
    capped at 60 s; [cc] defaults to CUBIC.  Test seam: [cc] and
    [client_netem]/[server_netem], for [quic.golden]'s CCAs and impaired
    paths, and [on_connection], for [web.golden]'s loss-detection work
    count. *)
