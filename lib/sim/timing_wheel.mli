(** Hierarchical timing-wheel event queue with exact [(time, sequence)]
    ordering.

    Replaces the heap oracle ({!Heap_queue}) with the same pop sequence on
    every schedule — including same-instant bursts, pushes at or before
    the current instant, and far-future timers — but O(1) amortized per
    operation instead of O(log n), which is what makes population-scale
    simulation affordable.  Unlike the oracle it can also {!remove} a
    queued element.  The [sim.wheel] differential battery and the
    [stobctl perf simperf] kernel gate check both properties.

    Structure: 4 levels of 2^8 slots each bucket events by
    tick ([trunc (time / granularity)]); events whose tick is at or before
    the cursor sit in a small exact-order binary heap, so tick
    quantization never leaks into pop order.  Events beyond the
    [2^32]-tick horizon (about twelve days of simulated time at the default
    granularity) wait in an overflow list and are re-placed
    when the wheel drains past them.

    Elements live in a recycled node pool: {!add}, {!remove} and
    {!take_due} allocate nothing once the pool has grown to the queue's peak
    size, and a popped or removed element is no longer reachable from the
    queue. *)

type 'a t

val create : ?granularity:float -> unit -> 'a t
(** [granularity] is the tick width in seconds, 256e-6 unless given:
    coarse enough that a microsecond-RTT flow's events mostly go straight
    to the ready heap, and that twelve days of simulated time fit inside
    the wheel horizon.  Ordering is exact for {e any} positive granularity;
    granularity only tunes bucketing efficiency.  Raises
    [Invalid_argument] on a non-positive granularity. *)

val push : 'a t -> time:float -> 'a -> unit
(** Insert an element with priority [time].  Same-instant inserts pop in
    insertion order, exactly like the heap oracle. *)

val add : 'a t -> time:float -> 'a -> int
(** {!push} that returns the element's node id, the handle for {!remove}.
    The id is valid until the element is popped or removed; after that
    the pool may hand it to another element. *)

val reserve : 'a t -> int
(** Take the sequence number the next {!add} would have given, without
    queueing anything. *)

val add_reserved : 'a t -> time:float -> seq:int -> 'a -> int
(** {!add} under a sequence number taken earlier by {!reserve}: the
    element pops exactly where an element added at the moment of the
    reservation would have.  Each reserved number may be used once. *)

val remove : 'a t -> int -> unit
(** Take a queued element out: O(1) from a wheel slot or the overflow
    list, O(log n) from the ready heap.  The remaining elements pop
    exactly as if the removed one had been skipped.  Raises
    [Invalid_argument] if the node is free. *)

val take_due : 'a t -> limit:float -> 'a -> 'a
(** [take_due t ~limit default] removes and returns the earliest element
    if its time is not beyond [limit], and returns [default] otherwise
    (an empty queue included).  One refill and one removal, allocating
    nothing. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest element, or [None] when empty. *)

val size : 'a t -> int
(** Queued elements; removed ones are not counted. *)
