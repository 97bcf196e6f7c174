(** Always-on runtime invariant monitor.

    The monitor hangs observe-only checks off the simulation's natural
    boundaries — the engine's per-event probe ({!Stob_sim.Engine.set_probe})
    and the endpoint's per-segment hook ({!Stob_tcp.Hooks}) — and turns
    failures into structured {!Violation.t} values, which accumulate for a
    post-run report.

    The monitor never changes behaviour: checks read state, wrap hooks
    transparently, and draw no randomness, so a monitored run is
    byte-identical to an unmonitored one.

    {b Invariant catalogue} (names as they appear in reports):
    - [engine-clock-monotone] — the virtual clock never moves backwards.
    - [qdisc-backlog-bound] — qdisc backlog within its admission limit
      (trips when {!Stob_sim.Fault.Qdisc_collapse} strands a backlog).
    - [cpu-backlog-bound] — the CPU core is never booked more than a bound
      ahead of the clock (trips under {!Stob_sim.Fault.Cpu_overload}).
    - [progress-stall] — while work is pending, observable activity changes
      at least once per stall bound (trips under
      {!Stob_sim.Fault.Pacer_jump}).
    - [tcp-seq-order] — [snd_una <= snd_nxt].
    - [tcp-cwnd-bounds] — cwnd within
      [[1, max Stob_tcp.Config.snd_buf rcv_wnd]].
    - [tcp-sack-sanity] — SACK scoreboard sorted, disjoint, non-empty, and
      inside [(snd_una, snd_nxt]].
    - [tcp-recovery-window] — recovery bookkeeping within the outstanding
      window.
    - [tcp-tsq-accounting], [tcp-app-queue] — byte accounting never
      negative.
    - [tcp-adv-window] — the receive window granted to the peer plus
      delivered-but-unread bytes never exceeds the receive buffer (the
      advertisement never promises space the receiver does not have), and
      is never negative.
    - [tcp-peer-window] — the wscale-decoded peer window is never negative.
    - [tcp-window-respect] — at hook (commitment) time the stack never
      proposes a segment pushing [snd_nxt] past
      [snd_una + min cwnd peer_rwnd].  Persist probes and retransmissions
      bypass the hook, so recovery traffic cannot false-positive here.
    - [tcp-pacing-monotone] — the booked fq horizon never moves backwards.
    - [tcp-stack-departure] — the stack never proposes a departure in the
      past.
    - [defense-safety] — {!Stob_core.Safety.is_safe} holds for every hook
      answer (Section 4.2 promoted to a monitored invariant).
    - [rtx-oracle-agreement] — endpoint retransmission counters agree with
      the capture's {!Stob_net.Packet.t}[.rtx] oracle marks (loss-free,
      drained runs only).
    - [quic-pn-monotonic] — a QUIC endpoint's packet-number sequence never
      moves backwards across hook decisions.
    - [quic-ack-sanity] — the peer never acknowledges a packet number the
      endpoint has not sent ([largest_acked < pn_next]).
    - [quic-amplification] — the server's pre-handshake anti-amplification
      credit never goes negative (RFC 9000 §8.1: it never sends more than
      three times what it received).
    - [quic-inflight-accounting] — the endpoint's incremental inflight
      ledger equals the sum over its unacked sent packets, and is never
      negative.
    - [quic-sender-index] — the sender's active-stream index holds exactly
      the streams with data to send, and its low-water mark is at most
      every outstanding packet number.
    - [quic-quiesce] — a closed QUIC endpoint holds no armed idle timer
      (the close-time quiesce actually ran).
    - [quic-cwnd-bounds] — cwnd at least one byte.
    - [store-durability-degraded] — a result store dropped to
      journaling-off "completion over durability" mode after a journal
      write failed past its bounded retry budget (persistent
      ENOSPC/EIO).  The sweep still completes; its artifacts are not
      durable and are excluded from parity claims.
    - [store-replay-agreement] — see {!check_store_canary}; also stated
      across compactions by [Stob_store.Store.checkpoint].
    - [engine-livelock] is reported by the chaos harness when
      {!Stob_sim.Engine.Livelock} fires; the engine cannot depend on this
      library, so it raises its own exception and the harness translates. *)

type t

val create : Stob_sim.Engine.t -> t
(** Fresh monitor bound to an engine's clock.  At most 200 violations are
    kept while {!total} keeps counting past the cap. *)

val record : t -> Violation.t -> unit
(** Count a violation detected externally — the chaos harness feeds
    {!Stob_sim.Engine.Livelock} through this. *)

val violations : t -> Violation.t list
(** Stored violations, oldest first. *)

val total : t -> int
(** All violations counted, including any beyond the storage cap. *)

val counts : t -> (string * int) list
(** Per-invariant totals, sorted by invariant name (stable across runs —
    the chaos determinism tests compare these). *)

(** {1 Registration} *)

val register : t -> name:string -> (now:float -> string option) -> unit
(** Install a custom invariant: the callback returns [Some detail] while
    the invariant fails.  Checks are {e edge-triggered}: a violation is
    recorded when the check transitions from passing to failing, so a
    persistently broken component yields one violation per episode, not one
    per event. *)

val attach_engine : t -> unit
(** Install the engine probe: after every executed event, verify clock
    monotonicity and run all registered checks.  One monitor per engine;
    raises [Invalid_argument] on a second attach. *)

val detach_engine : t -> unit

val check_now : t -> now:float -> unit
(** Run all registered checks immediately (e.g. after {!Stob_sim.Engine.run}
    returns, to catch state the final event left broken). *)

val watch_qdisc : t -> name:string -> 'a Stob_tcp.Qdisc.t -> unit
(** Register [qdisc-backlog-bound] over the given qdisc. *)

val watch_cpu : t -> name:string -> Stob_sim.Cpu.t -> unit
(** Register [cpu-backlog-bound]: the core may never be booked more than
    0.5 s beyond the current virtual time. *)

val watch_progress :
  t -> name:string -> pending:(unit -> bool) -> activity:(unit -> int) -> unit
(** Register [progress-stall]: while [pending ()] holds, [activity ()] must
    change at least once per 0.5 s of virtual time.
    This is how pacer-clock faults surface: at the hook boundary the
    stack's departure always equals [now] (the endpoint waits out its own
    pacing before consulting the hook), so a parked pacing clock manifests
    as silence, not as a visible bad departure. *)

val watch_store : t -> name:string -> Stob_store.Store.t -> unit
(** Register [store-durability-degraded] over the given result store:
    edge-triggers once when {!Stob_store.Store.degraded} becomes [Some]
    (journaling off after the retry budget, see the store's module doc).
    Pair with {!check_now} at shard boundaries for sweeps that run
    without an engine probe. *)

(** {1 Endpoint observation} *)

val observe_endpoint : t -> name:string -> Stob_tcp.Endpoint.t -> unit
(** Wrap the endpoint's {e currently installed} hook chain with observe-only
    checks (state invariants, pacing monotonicity, the [defense-safety]
    predicate on the chain's answer).  Install the full chain (controller,
    fault wrapper, degradation guard) {e first}, then observe.  Exceptions
    from the chain pass through untouched. *)

val observe_quic : t -> name:string -> Stob_quic.Endpoint.t -> unit
(** QUIC analogue of {!observe_endpoint}: wrap the endpoint's installed
    hook chain with the [quic-*] state invariants, packet-number
    monotonicity across decisions, and [defense-safety] on the chain's
    answer.  Install the full chain first, then observe. *)

val check_quic_inspection :
  Stob_quic.Endpoint.inspection -> (string * string) option
(** The pure state checks behind {!observe_quic}, exposed for reap-time
    sweeps: the first failing [(invariant, detail)] pair, or [None]. *)

(** {1 End-of-run checks} *)

val check_rtx_oracle :
  t -> capture:Stob_net.Capture.t -> retransmissions:int -> drops:int -> drained:bool -> unit
(** Record [rtx-oracle-agreement] if [retransmissions], the sum of the
    endpoints' counters (TCP's [retransmissions], QUIC's [rtx_datagrams]),
    disagrees with the capture's marked-packet count.  Checked only when
    [drops = 0] and [drained]: the capture taps after the bottleneck
    queue and before netem, so netem loss keeps the counts comparable. *)

val check_store_canary :
  t ->
  sample:int ->
  seed:int ->
  entries:(string * string) list ->
  recompute:(string -> string option) ->
  unit
(** Cache-poisoning canary over a sweep's result store: draw [sample]
    entries (deterministically from [seed]) out of [entries] — the
    journal's [(label, payload)] records — recompute each via [recompute]
    and record a [store-replay-agreement] violation for every payload that
    is not byte-identical (or that [recompute] no longer recognizes).
    Sampling keeps the canary affordable on large sweeps; [sample >= length
    entries] checks everything. *)
