(** The page-load driver: a browser model over the simulated stack.

    One page load builds a client-server path with the profile's sampled
    network conditions, opens the browser's connection pool, performs a
    TLS handshake per connection, fetches the HTML on the first connection,
    then fans the head wave (css/js/fonts) and afterwards the body wave
    (images/media/api) across the pool — one outstanding request per
    connection, HTTP/1.1 keep-alive style.  All response/request byte counts
    pass through TLS record framing, so wire sizes include record overhead.

    The returned trace is exactly what tcpdump at the client's vantage would
    record for the visit. *)

type result = {
  trace : Stob_net.Trace.t;  (** Time-zeroed capture of the whole visit. *)
  completed : bool;  (** Every object fully delivered within the cap. *)
  load_time : float;  (** Time of the last object's completion. *)
  bytes_downloaded : int;  (** Application bytes received (plaintext). *)
  page : Resource.page;  (** The composition that was fetched. *)
  netem_stats : Stob_sim.Netem.stats;
      (** Impairment counters over both directions (all zero for a TCP
          visit, which runs without netem). *)
}

val load :
  ?policy:Stob_core.Policy.t ->
  ?client_config:Stob_tcp.Config.t ->
  rng:Stob_util.Rng.t ->
  Profile.t ->
  result
(** Run one visit.  [policy] installs a server-side Stob policy on every
    connection of the visit (one controller per flow, per Section 4.1's
    per-destination sharing).  [client_config] overrides the client
    endpoints' TCP configuration — e.g. an HTTPOS-style small advertised
    window.  Simulated time is capped at 60 s; a load still incomplete
    then reports [completed = false]. *)
