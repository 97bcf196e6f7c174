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

val default_impl : unit -> impl
(** [Wheel], unless [STOB_EVENT_QUEUE=heap].  The variable is read once,
    when the program starts.  Raises [Invalid_argument] on an unrecognized
    value of the variable. *)

val create : unit -> 'a t
(** A queue of the {!default_impl}. *)

val create_impl : impl -> 'a t
(** Explicit implementation choice (the differential tests drive both). *)

val create_wheel : ?granularity:float -> unit -> 'a t
(** A wheel with a specific tick granularity (see {!Timing_wheel.create}). *)

val impl : 'a t -> impl

val push : 'a t -> time:float -> 'a -> unit
(** Insert an element with priority [time]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest element, or [None] when empty. *)

val peek : 'a t -> (float * 'a) option
(** Earliest element without removing it. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
