(** TCP endpoint configuration.

    Defaults mirror a contemporary Linux sender: MSS 1448 (1500 MTU minus
    headers and timestamps), initial window 10 segments, 64 KB maximum TSO
    size, fq pacing targeting roughly one segment per millisecond, and a TCP
    small queues limit bounding in-stack buffering. *)

type t = {
  mss : int;  (** Maximum payload per packet, bytes. *)
  header_bytes : int;  (** IP + TCP header bytes per packet. *)
  initial_cwnd_pkts : int;  (** Initial congestion window in segments. *)
  initial_ssthresh : int;  (** Initial slow-start threshold, bytes. *)
  rto_min : float;  (** Lower bound on the retransmission timeout, seconds. *)
  rto_init : float;  (** RTO before the first RTT sample, seconds. *)
  ack_every : int;  (** Send an ACK for every n-th data packet. *)
  delayed_ack : float;  (** Delayed-ACK timer, seconds; [0.] disables it. *)
  rcv_wnd : int;  (** Advertised receive window, bytes. *)
  snd_buf : int;  (** Socket send buffer, bytes. *)
  tso_max_bytes : int;  (** Largest transport segment handed to the NIC. *)
  tso_min_bytes : int;  (** Smallest TSO segment the autosizer will pick. *)
  pacing : bool;  (** Enable fq-style pacing of segment departures. *)
  pacing_segment_interval : float;
      (** TSO autosizing target: pick segment sizes so one segment departs
          roughly every this many seconds at the current pacing rate (the
          Linux behaviour that shrinks TSO on long-RTT paths). *)
  tsq_limit_bytes : int;  (** TCP small queues: max unsent bytes in stack. *)
  sack : bool;  (** Offer SACK-permitted on SYN; use SACK when both sides do. *)
  wscale : bool;  (** Offer window scaling on SYN (RFC 7323). *)
  persist_max : float;
      (** Upper bound on the zero-window persist-probe backoff, seconds. *)
  pto_max : float;
      (** QUIC: upper bound on the backed-off probe timeout, seconds.  The
          backoff multiplier doubles per PTO and resets on forward progress
          (RFC 9002 §6.2); this caps the resulting interval. *)
  idle_timeout : float;
      (** QUIC: close the connection after this many seconds with no
          activity (RFC 9000 §10.1), quiescing every timer; [0.] disables
          the timeout. *)
  amp_factor : int;
      (** QUIC: pre-handshake-confirmation anti-amplification limit — a
          server may send at most [amp_factor] times the bytes it has
          received from the unvalidated client address (RFC 9000 §8.1). *)
}

val default : t

val wscale_shift : t -> int
(** Smallest shift count that makes [rcv_wnd] fit the 16-bit window field,
    clamped to 14 (RFC 7323). *)

val tso_autosize : t -> pacing_rate_bps:float -> int
(** The stack's TSO sizing decision: segment bytes such that segments depart
    every [pacing_segment_interval] at [pacing_rate_bps], clamped to
    [\[tso_min_bytes, tso_max_bytes\]] and rounded down to a whole number of
    MSS-sized packets (at least one). *)
