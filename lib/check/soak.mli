(** Million-flow TCP soak: population-scale endurance testing of the
    endpoint under the invariant monitor.

    The soak drives one full TCP connection (request, response, close) per
    {!Stob_experiments.Population.plan_shard} visit — the same planning
    layer that feeds the packed-trace factory supplies arrival times and
    per-flow seeds, so a soak models a whole user population's day of
    browsing at the {e transport} layer.  Each flow runs over a direct
    endpoint-to-endpoint link with i.i.d. loss and draws its shape from a
    per-flow generator: slow readers with tiny receive buffers (the
    zero-window / persist-probe path), peers refusing SACK or window
    scaling, reduced-MSS peers, delayed-ACK receivers, and all three CCAs.
    Every endpoint is observed by {!Monitor} ([Collect] mode), so the
    window-sanity invariants ([tcp-adv-window], [tcp-peer-window],
    [tcp-window-respect]) and the rest of the catalogue are armed on every
    segment of every flow.

    On shards selected by [fault_period] the chaos dimension is armed:
    a random subset of flows receives a forward pacer-clock jump
    ({!Stob_tcp.Endpoint.inject_pacer_jump}) mid-flow.  Faulted shards are
    reported separately so the fault-free gate stays strict.

    Memory: flows are reaped exactly [flow_horizon] after they start —
    results harvested, references dropped — so a shard's resident set is
    O(concurrently active flows).  {!run} asserts this with a heap-growth
    watchdog ([Gc.live_words] after each shard against the pre-run
    baseline).

    Determinism and durability: a shard report is a pure function of
    [(config, shard)] (per-visit pre-split seeds), so results are
    jobs-invariant; with [state_dir] each finished shard is journaled to a
    {!Stob_store.Store} and a killed soak resumes bit-identically, like
    every other sweep. *)

(** {1 Single flows} *)

type transport = Tcp | Quic

type flow_spec = {
  seed : int;  (** Seeds the flow's link-loss and nothing else. *)
  transport : transport;
  cca : string;  (** ["reno"], ["cubic"] or ["bbr"]. *)
  request : int;
  response : int;
  delay : float;  (** One-way link delay, seconds. *)
  loss : float;  (** I.i.d. per-packet loss, each direction. *)
  client : Stob_tcp.Config.t;
  server : Stob_tcp.Config.t;
  slow_reader : bool;
      (** Client reads manually ([read_chunk] bytes every [read_interval])
          instead of auto-consuming — the path that closes the window. *)
  read_chunk : int;
  read_interval : float;
  read_stall : float;
      (** Delay before the slow reader's {e first} read: a stalled reader
          holds the window closed across several persist backoffs, which is
          what makes zero-window probes actually fire. *)
  pacer_jump : (float * float) option;
      (** [(after, jump)]: jump the server's pacing clock forward by [jump]
          seconds, [after] seconds into the flow.  TCP flows only. *)
  flight : int;  (** QUIC: server handshake-flight bytes. *)
  blackhole : (float * float) option;
      (** QUIC fault: [(after, duration)] — every datagram in both
          directions vanishes inside the window
          ({!Stob_sim.Fault.Datagram_blackhole} at flow granularity). *)
  horizon : float;  (** Reap time relative to flow start, seconds. *)
}

type flow_result = {
  completed : bool;
      (** Exactly [response] bytes delivered to the client, the full
          request to the server, and both endpoints closed, by reap time. *)
  client_received : int;
  server_received : int;
  client_closed : bool;
  server_closed : bool;
  retransmissions : int;  (** Both endpoints. *)
  persist_probes : int;
  zero_windows : int;  (** Open->zero window transitions seen by senders. *)
  sack_negotiated : bool;
  wscale_negotiated : bool;
  snd_mss : int;  (** The server's negotiated send MSS. *)
  pto_events : int;  (** QUIC: probe-timeout firings, both endpoints. *)
  time_loss_detections : int;  (** QUIC: time-threshold loss declarations. *)
  persistent_congestions : int;  (** QUIC: persistent-congestion declarations. *)
  idle_closed : int;  (** QUIC: endpoints closed by the idle timeout (0-2). *)
}

val spec_of_rng :
  ?horizon:float ->
  ?transport:[ `Tcp | `Quic | `Mixed ] ->
  fault:bool ->
  Stob_util.Rng.t ->
  flow_spec
(** Draw one flow from the soak mix (slow reader 1/8, SACK refused 1/4,
    wscale refused 1/4, MSS 536 1/6, lossy link 1/4, delayed ACKs 1/2,
    uniform CCA; with [fault], 1/16 of TCP flows get a pacer jump and 1/16
    of QUIC flows a datagram-blackhole window).  All draws come from [rng]
    in a fixed order; [`Mixed] splits QUIC/TCP 50/50 with a leading draw,
    and QUIC-only draws (flight size, blackhole) trail, so a [`Tcp]
    (default) stream is identical to the pre-QUIC battery.  Test seam: the
    battery draws its flows through this; the property tests draw theirs
    the same way. *)

val run_flow : flow_spec -> flow_result * (string * int) list
(** Run one flow (TCP or QUIC, per [spec.transport]) on a private engine
    under a private monitor; returns the reaped result and the monitor's
    violation counts.  Test seam: the unit the randomized
    window-advertisement property battery drives and the regression tests
    replay. *)

(** {1 Shards and full runs} *)

type config = {
  population : Stob_experiments.Population.config;
      (** Supplies shard count, arrival times and per-visit seeds; expected
          flows = users x mean_sessions x mean_session_visits. *)
  flow_horizon : float;
  fault_period : int;  (** Arm faults on every [n]th shard; [0] disables. *)
  transport : [ `Tcp | `Quic | `Mixed ];  (** Flow population mix. *)
}

val default_config : config
(** The full soak: ~1.1M expected flows across 64 shards of a simulated
    day, faults on every 4th shard. *)

val smoke_config : config
(** CI variant: ~2.2k expected flows across 4 shards of a simulated hour —
    same mix, same gates, seconds of wall clock. *)

type shard_report = {
  shard : int;
  flows : int;
  quic_flows : int;
  completed : int;
  client_bytes : int;
  retransmissions : int;
  persist_probes : int;
  zero_window_flows : int;
  slow_reader_flows : int;
  sack_off_flows : int;
  wscale_off_flows : int;
  pto_events : int;
  time_loss_detections : int;
  persistent_congestions : int;
  idle_closed : int;
  faulted : bool;  (** Chaos dimension armed on this shard. *)
  faults : int;  (** Pacer jumps + datagram blackholes actually injected. *)
  violations : (string * int) list;  (** Monitor counts, invariant-sorted. *)
  total_violations : int;
  sim_seconds : float;
}

type summary = {
  shards : int;
  cached_shards : int;  (** Served from a previous run's journal. *)
  flows : int;
  quic_flows : int;
  completed : int;
  client_bytes : int;
  retransmissions : int;
  persist_probes : int;
  zero_window_flows : int;
  slow_reader_flows : int;
  sack_off_flows : int;
  wscale_off_flows : int;
  pto_events : int;
  time_loss_detections : int;
  persistent_congestions : int;
  idle_closed : int;
  faults : int;
  violations : (string * int) list;
  fault_free_violations : int;
      (** Violations on shards with the chaos dimension off — the strict
          gate: must be zero. *)
  sim_flow_hours : float;
  peak_heap_growth_words : int;
      (** Max [Gc.live_words] growth over the baseline, sampled after each
          shard — the O(active flows) memory gate. *)
  reports : shard_report list;
}

val run :
  ?pool:Stob_par.Pool.t ->
  ?state_dir:string ->
  ?retries:int ->
  ?on_shard:(shard_report -> unit) ->
  config ->
  summary
(** Run (or resume) the soak.  With [state_dir], finished shards are
    journaled as they complete ([on_shard] fires after the record is
    durable, in increasing shard order) and already-journaled shards are
    served from the cache; [retries] re-attempts a shard that raised
    before giving up.  Raises [Failure] if [state_dir] belongs to a
    different run. *)

val transport_name : [ `Tcp | `Quic | `Mixed ] -> string
val transport_of_name : string -> [ `Tcp | `Quic | `Mixed ]
(** Raises [Invalid_argument] on an unknown name. *)

val pp_summary : Format.formatter -> summary -> unit
