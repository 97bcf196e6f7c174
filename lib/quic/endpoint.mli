(** One side of a QUIC connection.

    Figure 1's third stack organization: QUIC provides the stream
    abstraction and makes the datagram-sizing, pacing and scheduling
    decisions itself (in the library), handing UDP datagrams to the kernel.
    Section 2.3 argues the application therefore has no more control over
    the final packet sequence than with TCP — and with UDP GSO/USO offload
    the segmentation behaviour converges on TLS/TCP's.  This endpoint
    reproduces those decision points and exposes the same Stob hook
    ({!Stob_tcp.Hooks.t}): the decision triple is (GSO burst bytes,
    datagram payload size, earliest departure).

    Model notes: packet-number loss detection with ACK ranges and a
    threshold of 3, a PTO probe timer, reassembling streams, and the same
    congestion-controller interface as TCP (Reno/CUBIC/BBR all plug in).
    Flow-control credit is modelled as unbounded (the experiments never
    exercise backpressure); handshake flights travel as CRYPTO-like data on
    reserved streams 0 (each side's flight) and 2 (client finished).
    Loss detection visits only the holes below the largest acknowledged
    packet ({!Sent}).

    {b Loss-declaration order.}  Several losses found by one check are
    declared in descending bucket [Hashtbl.hash pn land (buckets - 1)],
    and in ascending packet number within a bucket, where [buckets]
    starts at 256 and doubles whenever a send leaves more than
    [2 * buckets] packets outstanding ({!Sent.detect_losses}).  Each lost
    chunk is pushed onto its stream's retransmission queue in that order,
    so the order decides which bytes each retransmission carries, and
    every lossy trace depends on it. *)

type t

type wire
(** The frame table both endpoints of a connection share: the frames of
    each datagram on the wire, keyed by direction and packet number (the
    simulator's stand-in for packet contents — see {!Connection}).  An
    entry leaves when the peer's ACK acknowledges its datagram, or, for an
    ACK-only datagram, when the peer reads it; a datagram declared lost
    keeps its entry, which late and duplicated copies read. *)

val create_wire : int -> wire
(** An empty table sized for about that many entries. *)

val wire_length : wire -> int
(** Entries held: datagrams whose frames may still be read.  Test seam. *)

val default_config : Stob_tcp.Config.t
(** TCP's config record reused with QUIC framing: 1350-byte datagram
    payloads, 43 bytes of IP+UDP+QUIC header, 64 KiB GSO bursts. *)

val create :
  engine:Stob_sim.Engine.t ->
  config:Stob_tcp.Config.t ->
  cc:Stob_tcp.Cc.t ->
  flow:int ->
  dir:Stob_net.Packet.direction ->
  wire:wire ->
  ?hooks:Stob_tcp.Hooks.t ->
  tx:(Stob_net.Packet.t array -> unit) ->
  unit ->
  t
(** [wire] is the table the peer endpoint shares. *)

(** {1 Lifecycle} *)

val connect : t -> unit
(** Client active open: sends its Initial flight (350 CRYPTO bytes, padded
    to 1200 B). *)

val listen : t -> flight_bytes:int -> unit
(** Server passive open with the size of its handshake flight (certificate
    chain — the site-characteristic bytes). *)

val established : t -> bool
(** Test seam: the handshake has completed. *)

val set_on_established : t -> (unit -> unit) -> unit

val close : t -> unit
(** Application close: marks the connection closed and quiesces every
    pending timer (send, PTO, loss-detection, delayed-ACK, idle) so a
    closed endpoint never keeps the engine busy.  Subsequent sends and
    receives are no-ops. *)

val closed : t -> bool

val close_reason : t -> string option
(** ["application"], ["idle-timeout"], or [None] while open.  The idle
    timeout ({!Stob_tcp.Config.t}[.idle_timeout], RFC 9000 §10.1) closes
    the connection after that many seconds without receiving a packet or
    sending a first ack-eliciting packet since the last receive. *)

(** {1 Streams} *)

val send_stream : t -> stream:int -> ?fin:bool -> int -> unit
(** Queue bytes on a stream (ids >= 4 for application data). *)

val set_on_stream : t -> (stream:int -> int -> unit) -> unit
(** In-order delivery callback: [stream, bytes]. *)

val set_on_stream_fin : t -> (stream:int -> unit) -> unit

val send_padding_datagram : t -> int -> unit
(** Emit a PADDING-only datagram (defense dummy traffic); not
    acknowledged.  No program calls it yet: it is the padding action of a
    [Stob_core.Machine]-driven defense placed in the stack (ROADMAP.md,
    "One defense representation"). *)

(** {1 Stob / path interface} *)

val set_hooks : t -> Stob_tcp.Hooks.t -> unit
val hooks : t -> Stob_tcp.Hooks.t
val receive : t -> Stob_net.Packet.t -> unit

(** {1 Introspection} *)

val datagrams_sent : t -> int
(** Test seam, as is {!retransmitted_chunks}. *)

val retransmitted_chunks : t -> int
(** Stream chunks pulled from a retransmission queue (a resent chunk split
    across two datagrams counts twice — it is a chunk count, not a
    datagram count). *)

val rtx_datagrams : t -> int
(** Datagrams that carried at least one retransmitted stream chunk.  This
    is the count {!Stob_net.Capture.rtx_count} sees for this endpoint's
    direction, so capture and endpoint can be cross-checked (the QUIC rtx
    oracle). *)

val pto_events : t -> int
(** Probe-timeout firings (RFC 9002 §6.2). *)

val time_loss_detections : t -> int
(** Packets declared lost by the 9/8·RTT time threshold (RFC 9002 §6.1.2)
    rather than the packet threshold. *)

val persistent_congestions : t -> int
(** Persistent-congestion declarations (RFC 9002 §7.6): lost-packet span
    exceeded 3 PTOs with no forward progress, collapsing the congestion
    window. *)

(** {1 Invariant-monitor surface} *)

type inspection = {
  pn_next : int;  (** Next packet number; strictly monotone. *)
  largest_acked : int;  (** Largest packet number acked by the peer; -1 initially. *)
  inflight : int;  (** Ack-eliciting payload bytes in flight (sender's ledger). *)
  unacked_bytes : int;
      (** Recomputed sum over the sent-packet table; must equal [inflight]
          (the quic-inflight-accounting invariant). *)
  unacked_packets : int;
  active_streams : int list;
      (** The sender's index of streams with data to send, ascending. *)
  pending_streams : int list;
      (** Recomputed by scanning every stream for retransmission chunks,
          queued bytes or an unsent FIN; must equal [active_streams] (the
          quic-sender-index invariant). *)
  low_water : int;
      (** The sender's lower bound on outstanding packet numbers. *)
  lowest_unacked : int;
      (** Recomputed lowest packet number in the sent-packet table
          ([pn_next] when it is empty); [low_water] must not exceed it
          (the quic-sender-index invariant). *)
  unindexed_holes : int list;
      (** Recomputed: outstanding packet numbers below the hole index's
          edge that the index lacks, ascending; must be empty (the
          quic-sender-index invariant). *)
  loss_visits : int;
      (** Loss-detection work so far: hole-index entries examined plus
          packet numbers walked to extend the index. *)
  cwnd : int;
  pto_count : int;
  pto_backoff : float;
  amp_credit : int;
      (** Remaining anti-amplification budget in wire bytes; [max_int] when
          the limit does not apply (client, or handshake confirmed).  Never
          negative (the quic-amplification invariant). *)
  bytes_received : int;
  bytes_sent : int;
  established : bool;
  closed : bool;
  close_reason : string option;
  idle_armed : bool;
  rtx_datagrams : int;
  rtx_chunks : int;
  time_loss_detections : int;
  persistent_congestions : int;
}

val inspect : t -> inspection
(** Observe-only snapshot; never mutates the endpoint. *)
