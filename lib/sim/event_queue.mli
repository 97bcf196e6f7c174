(** The engine's event queue, keyed by [(time, sequence)].

    Events scheduled for the same instant fire in insertion order — a
    property the TCP model relies on (e.g., an ACK processed before the
    timer armed after it).

    Two implementations sit behind this interface: the production
    hierarchical {!Timing_wheel} (O(1) amortized, the default) and the
    seed's binary heap kept verbatim as the differential oracle
    ({!Heap_queue}).  They produce identical pop sequences on every
    schedule — the [sim.wheel] battery is the proof — so selection is a
    performance knob, not a semantic one: set the [STOB_EVENT_QUEUE]
    environment variable to [heap] (or [wheel]) to pin a run to one
    implementation. *)

type 'a t

type impl = Heap | Wheel

val create : unit -> 'a t
(** A queue of the implementation [STOB_EVENT_QUEUE] names, the wheel by
    default.  Raises [Invalid_argument] on any other value. *)

val create_impl : impl -> 'a t
(** Explicit implementation choice (the differential tests drive both). *)

val create_wheel : ?granularity:float -> unit -> 'a t
(** A wheel with a specific tick granularity (see {!Timing_wheel.create}). *)

val impl : 'a t -> impl

val push : 'a t -> time:float -> 'a -> unit
(** Insert an element with priority [time]. *)

val add : 'a t -> time:float -> 'a -> int
(** {!push} that returns a handle for {!remove}: the wheel's node id,
    valid until the element is popped or removed (the pool then recycles
    it).  Always [0] on the heap. *)

val reserve : 'a t -> int
(** The wheel's {!Timing_wheel.reserve}.  The heap oracle, kept verbatim,
    has no such operation: raises [Invalid_argument] on it. *)

val add_reserved : 'a t -> time:float -> seq:int -> 'a -> int
(** The wheel's {!Timing_wheel.add_reserved}; raises [Invalid_argument]
    on the heap. *)

val remove : 'a t -> int -> unit
(** Take a queued element out of the wheel ({!Timing_wheel.remove}).  The
    heap oracle cannot remove, so on it this is a no-op and the element
    still pops: a caller that removes marks the element itself and skips
    it on pop, as {!Engine} does.  {!size} counts such elements until they
    pop. *)

val top : 'a t -> 'a
(** Earliest element without removing it; allocation-free on the wheel.
    Raises [Invalid_argument] when empty. *)

val take : 'a t -> 'a
(** Remove and return the earliest element; allocation-free on the
    wheel.  Raises [Invalid_argument] when empty. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest element, or [None] when empty. *)

val size : 'a t -> int
(** Test seam: the number of queued elements. *)

val is_empty : 'a t -> bool
