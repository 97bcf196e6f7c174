(** One side of a TCP connection: sender and receiver machinery.

    The endpoint implements the data-transmission process Figure 1 shades:
    the send() path (socket buffer, window checks), the transport decisions
    (segmentation into TSO segments, packetization at MSS, pacing release
    times from the CCA), loss recovery (RTO and three-dupack fast
    retransmit), and the receive path (cumulative ACKs with out-of-order
    reassembly and delayed ACKs).

    Packet transmission is asynchronous, exactly as Section 2.3 describes:
    data written by the application may be deferred by window or pacing, and
    segments may be further delayed by the CPU model.  The Stob hook (see
    {!Hooks}) intercepts the per-segment decision; the endpoint clamps the
    hook's answer so it can never exceed the stack's own decision. *)

type t

val create :
  engine:Stob_sim.Engine.t ->
  config:Config.t ->
  cc:Cc.t ->
  flow:int ->
  dir:Stob_net.Packet.direction ->
  ?cpu:Stob_sim.Cpu.t * Cpu_costs.t ->
  ?hooks:Hooks.t ->
  tx:(Stob_net.Packet.t array -> unit) ->
  unit ->
  t
(** [dir] is the direction of packets this endpoint {e sends}.  [tx] hands a
    burst (one TSO segment's packets, or a lone control packet) to the path.
    With [cpu], data segments consume core time before reaching [tx]. *)

(** {1 Connection lifecycle} *)

val connect : t -> unit
(** Actively open: send SYN.  The peer endpoint answers from its [receive]. *)

val established : t -> bool

val close : t -> unit
(** Send FIN once queued data drains. *)

val closed : t -> bool
(** Both FIN sent+acked and peer FIN received. *)

(** {1 Application interface} *)

val write : t -> int -> unit
(** Queue [n] bytes for transmission (the send() syscall).  Raises if the
    byte count is not positive or the connection is closing. *)

val send_dummy : t -> int -> unit
(** Transmit a padding packet of [n] payload bytes.  Dummies consume pacing
    budget and CPU but no sequence space and are not acknowledged; the
    receiver discards them.  Used by padding-style defenses.  Raises (like
    {!write}) once the connection is closing; while the peer advertises a
    zero window the dummy is suppressed and counted
    ({!dummies_suppressed}) — padding may not bypass flow control.  No
    program calls it yet: it is the padding action of a
    [Stob_core.Machine]-driven defense placed in the stack (ROADMAP.md,
    "One defense representation"). *)

val read : t -> int -> int
(** Consume up to [n] delivered-but-unread bytes from the receive buffer,
    returning the count consumed.  Only meaningful with {!set_auto_read}
    off; re-opening enough buffer space triggers a window-update ACK
    (receiver-side silly-window avoidance). *)

val set_auto_read : t -> bool -> unit
(** With auto-read (the default) the application consumes payload the
    instant it is delivered and the advertised window tracks the reassembly
    queue only.  With auto-read off, delivered bytes accumulate in the
    receive buffer until {!read}, shrinking the advertised window — the
    slow-reader model that drives the window to zero. *)

val rcv_buffered : t -> int
(** Delivered-but-unread bytes held in the receive buffer.  Test seam, as
    are the other receive-side and sender-state observers below. *)

val advertised_window : t -> int
(** Receive window the peer currently holds: the advertised right edge
    minus [rcv_nxt], after window-scale decoding.  Test seam. *)

val set_on_established : t -> (unit -> unit) -> unit
val set_on_receive : t -> (int -> unit) -> unit
(** Called with byte counts as in-order real payload is delivered. *)

val set_on_fin : t -> (unit -> unit) -> unit

(** {1 Stob interface} *)

val set_hooks : t -> Hooks.t -> unit
val hooks : t -> Hooks.t

(** {1 Path interface} *)

val receive : t -> Stob_net.Packet.t -> unit
(** Deliver an incoming packet (called by the path demux). *)

val notify_serialized : t -> Stob_net.Packet.t -> unit
(** A packet this endpoint sent started serialization; data-bearing packets
    release TCP-small-queues budget. *)

(** {1 Introspection (tests, experiments)} *)

val inflight : t -> int
(** Unacknowledged bytes in the network.  Test seam. *)

val unsent : t -> int
(** Application bytes still queued in the socket buffer. *)

val retransmissions : t -> int

val fast_recoveries : t -> int
(** Dupack/SACK-triggered loss-recovery episodes entered (fast retransmit,
    not timeouts). *)

val rto_events : t -> int
(** Retransmission timeouts that actually fired recovery. *)

val packets_sent : t -> int

val persist_probes : t -> int
(** Zero-window persist probes sent (exponentially backed off, capped at
    60 s). *)

val zero_windows : t -> int
(** Times the peer's advertised window transitioned to zero. *)

val dummies_suppressed : t -> int
(** Padding packets dropped because the peer's window was closed.  Test
    seam. *)

val srtt : t -> float option
(** Smoothed RTT, once sampled.  Test seam. *)

val config : t -> Config.t
(** The configuration the endpoint was created with. *)

(** Consistent snapshot of the sender/receiver state machine, taken for the
    runtime invariant monitor ({!Stob_check.Monitor}).  Field meanings match
    the internal state: [sacked] are the peer-reported [[lo, hi)] ranges,
    [recover_point]/[rtx_next] are only meaningful while [in_recovery], and
    [pacer_next_free] is the booked fq departure horizon. *)
type inspection = {
  snd_una : int;
  snd_nxt : int;
  rcv_nxt : int;
  cwnd : int;
  inflight : int;
  in_stack : int;
  app_queue : int;
  sacked : (int * int) list;
  in_recovery : bool;
  recover_point : int;
  rtx_next : int;
  fin_sent : bool;
  fin_acked : bool;
  retransmissions : int;
  pacer_next_free : float;
  peer_rwnd : int;  (** Peer's advertised window after wscale decoding. *)
  adv_wnd : int;  (** Window we have granted the peer beyond [rcv_nxt]. *)
  rcv_buffered : int;  (** Delivered-but-unread bytes in the receive buffer. *)
  rcv_capacity : int;  (** Configured receive-buffer size. *)
  snd_mss : int;  (** Negotiated effective send MSS. *)
  sack_ok : bool;  (** SACK negotiated by both sides. *)
  snd_wscale : int;  (** Shift applied to windows the peer advertises. *)
  rcv_wscale : int;  (** Shift applied to windows we advertise. *)
  persist_armed : bool;
  delack_armed : bool;
  persist_probes : int;
  zero_windows : int;
}

val inspect : t -> inspection

val inject_pacer_jump : t -> float -> unit
(** Shift this endpoint's pacing clock ({!Pacer.jump}) — the
    {!Stob_sim.Fault.Pacer_jump} surface.  Never called on the happy path. *)
