(** Passive capture point (the simulated tcpdump).

    A capture accumulates trace events as packets hit the wire.  Attach one
    to both directions of a path and every packet of every connection on
    that path is recorded — the same vantage the paper's eavesdropper (and
    its data collection) has. *)

type t

val create : unit -> t

val record : t -> time:float -> Packet.t -> unit
(** Record one packet.  Pure ACKs and dummies are recorded like any other
    packet: they are visible on the wire. *)

val trace : t -> Trace.t
(** Snapshot of everything recorded so far, time-ordered. *)

val clear : t -> unit

val count : t -> int
(** Packets recorded so far.  Test seam. *)

val rtx_count : t -> int
(** Packets recorded so far that carried the simulation's retransmission
    oracle mark ({!Packet.t}[.rtx]).  A real eavesdropper cannot see this
    bit; it exists so experiments under impairment can report how much of
    a captured trace is recovery traffic. *)
