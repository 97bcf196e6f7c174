(** Unidirectional link with serialization, propagation and a drop-tail queue.

    A link transmits one frame at a time at [rate_bps]; frames arriving while
    the transmitter is busy wait in a finite FIFO measured in bytes (a
    bottleneck router queue).  After serialization, a frame propagates for
    [delay] seconds and is handed to the receiver callback.

    The type is polymorphic in the frame so the same model carries TCP
    packets, ACKs, or abstract records; only a [size] function is needed.
    Duplex paths are two links.  A tap point (see {!set_tap}) observes every
    frame at the moment it enters the wire — that is where tcpdump sits in
    the paper's data collection.

    Event cost: one serialization event per frame, and propagation through
    one {!Engine.line} per link, so the frames in flight occupy one event
    queue entry between them.  A frame is pushed onto the line when its
    serialization ends, after {!frames_sent} and {!bytes_sent} count it
    and before the next waiting frame starts (and its tap runs): a
    delivery therefore wins a same-instant tie against any event that tap
    schedules, exactly as when each delivery was scheduled on its own. *)

type 'a t

val create :
  Engine.t ->
  rate_bps:float ->
  delay:float ->
  ?queue_capacity:int ->
  size:('a -> int) ->
  deliver:('a -> unit) ->
  unit ->
  'a t
(** [queue_capacity] is in bytes; default is effectively unbounded
    ([max_int]).  [delay] is one-way propagation.  Raises on non-positive
    [rate_bps] or negative [delay]. *)

val send : 'a t -> 'a -> bool
(** Offer a frame.  [false] means the queue was full and the frame was
    dropped (the drop is also counted in {!drops}). *)

val set_tap : 'a t -> (time:float -> 'a -> unit) -> unit
(** Install a wire observer, called when each frame starts serialization. *)

val set_on_idle : 'a t -> (unit -> unit) -> unit
(** Install a callback invoked whenever the transmitter finishes a frame and
    finds no queued successor — i.e., the link has gone idle.  A qdisc uses
    this to feed the next scheduled frame. *)

val frames_sent : 'a t -> int
(** Frames fully serialized onto the wire.  Test seam. *)

val bytes_sent : 'a t -> int
(** Bytes fully serialized onto the wire. *)

val drops : 'a t -> int
(** Frames dropped at the queue. *)

val busy : 'a t -> bool
(** Whether a frame is currently being serialized. *)
