(** TCP endpoint configuration.

    Defaults mirror a contemporary Linux sender: MSS 1448 (1500 MTU minus
    headers and timestamps), initial window 10 segments, 64 KB maximum TSO
    size, fq pacing targeting roughly one segment per millisecond, and a TCP
    small queues limit bounding in-stack buffering.  The record holds what
    callers set; the rest of those decisions are constants beside the code
    that reads them. *)

type t = {
  mss : int;  (** Maximum payload per packet, bytes. *)
  header_bytes : int;  (** IP + TCP header bytes per packet. *)
  ack_every : int;
      (** Send an ACK for every n-th data packet.  Test seam: for
          [tcp.window] "delack lifecycle and teardown". *)
  delayed_ack : float;  (** Delayed-ACK timer, seconds; [0.] disables it. *)
  rcv_wnd : int;  (** Advertised receive window, bytes. *)
  tso_min_bytes : int;  (** Smallest TSO segment the autosizer will pick. *)
  sack : bool;  (** Offer SACK-permitted on SYN; use SACK when both sides do. *)
  wscale : bool;  (** Offer window scaling on SYN (RFC 7323). *)
}

val default : t

val initial_cwnd_pkts : int
(** Initial congestion window in segments (10). *)

val initial_ssthresh : int
(** Initial slow-start threshold, bytes ([max_int]: slow start runs until
    the first loss). *)

val snd_buf : int
(** Socket send buffer, bytes (16 MiB): no congestion controller grows its
    window past it. *)

val wscale_shift : t -> int
(** Smallest shift count that makes [rcv_wnd] fit the 16-bit window field,
    clamped to 14 (RFC 7323). *)

val tso_autosize : t -> pacing_rate_bps:float -> int
(** The stack's TSO sizing decision: segment bytes such that segments depart
    every millisecond at [pacing_rate_bps], clamped to
    [\[tso_min_bytes, 65535\]] and rounded down to a whole number of
    MSS-sized packets (at least one). *)
