(** Wire packets.

    This is the unit the links carry and the unit a passive eavesdropper
    observes.  The fields cover what the TCP model needs (sequence and ACK
    numbers, flags, advertised window) plus what traffic-analysis code needs
    (direction, sizes, dummy marking). *)

type direction = Outgoing | Incoming
(** From the client's point of view: [Outgoing] flows client -> server. *)

type t = {
  flow : int;  (** Connection identifier (demux key on a shared path). *)
  dir : direction;
  seq : int;  (** Sequence number of the first payload byte. *)
  ack : int;  (** Cumulative acknowledgement number. *)
  payload : int;  (** Payload bytes carried. *)
  header : int;  (** Header bytes (IP + TCP). *)
  syn : bool;
  fin : bool;
  is_ack : bool;  (** ACK flag set (true on everything but the initial SYN). *)
  dummy : bool;  (** Padding packet carrying no real data. *)
  rtx : bool;
      (** Retransmission of previously sent sequence space.  Not a real wire
          bit — an oracle the simulation keeps so captures can separate
          first transmissions from recovery traffic under impairment. *)
  rwnd : int;
      (** Advertised receive window.  On a SYN the field is the raw unscaled
          window (at most 65535); after a successful window-scale negotiation
          every other segment carries the window right-shifted by the
          advertiser's shift count (RFC 7323). *)
  sack : (int * int) list;
      (** SACK blocks: received-but-not-yet-acked [lo, hi) byte ranges (at
          most three, like real TCP options). *)
  mss_opt : int option;  (** SYN-only MSS option. *)
  wscale_opt : int option;  (** SYN-only window-scale option (shift count). *)
  sack_permitted : bool;  (** SYN-only SACK-permitted option. *)
}

val default_header_bytes : int
(** IPv4 + TCP with timestamps: 52 bytes. *)

val wire_size : t -> int
(** [payload + header]: the size an eavesdropper observes. *)

val data :
  flow:int ->
  dir:direction ->
  seq:int ->
  ack:int ->
  payload:int ->
  ?header:int ->
  ?fin:bool ->
  ?dummy:bool ->
  ?rtx:bool ->
  rwnd:int ->
  unit ->
  t
(** Data-bearing packet (ACK flag set). *)

val pure_ack :
  flow:int ->
  dir:direction ->
  seq:int ->
  ack:int ->
  ?sack:(int * int) list ->
  rwnd:int ->
  unit ->
  t
(** Payload-less acknowledgement, optionally carrying SACK blocks. *)

val syn :
  flow:int ->
  dir:direction ->
  seq:int ->
  ?ack:int option ->
  ?rtx:bool ->
  ?mss:int ->
  ?wscale:int ->
  ?sack_permitted:bool ->
  rwnd:int ->
  unit ->
  t
(** SYN, or SYN|ACK when [ack] is provided.  Occupies one sequence number.
    The options default to absent, which models a peer that negotiates
    nothing (no MSS clamp, no window scaling, no SACK). *)

val seq_end : t -> int
(** Sequence number just past this packet's payload (SYN/FIN occupy one
    sequence number each, per TCP). *)
