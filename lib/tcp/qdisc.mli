(** Queueing disciplines between the transport layer and the NIC.

    This is the second asynchronous stage Figure 1 highlights: a segment
    pushed by TCP may sit in the qdisc and be dequeued later — by fair
    queueing, after other flows' segments — so the application cannot know
    when it reaches the wire.  The discipline is byte-quantum
    deficit-round-robin fair queueing (the behaviour of fq).

    Items are whole TSO segments; fairness is in bytes via each item's
    size. *)

type 'a t

val fq : ?quantum:int -> limit_bytes:int -> size:('a -> int) -> unit -> 'a t
(** Deficit-round-robin across flows; [quantum] (default 2 * 1514) bytes of
    service per flow per round; [limit_bytes] bounds the total backlog. *)

val enqueue : 'a t -> flow:int -> 'a -> bool
(** [false] when the item was dropped for lack of space. *)

val dequeue : 'a t -> (int * 'a) option
(** Next scheduled [(flow, item)], or [None] when idle. *)

val backlog_bytes : 'a t -> int
(** Total queued bytes. *)

val limit_bytes : 'a t -> int
(** Current admission limit. *)

val set_limit_bytes : 'a t -> int -> unit
(** Change the admission limit at runtime (like [tc change]).  Queued items
    are kept — only new admissions are gated — so the invariant monitor can
    observe a backlog stranded above a collapsed limit.  Raises
    [Invalid_argument] on a negative limit. *)

val flow_backlog : 'a t -> flow:int -> int
(** Queued bytes belonging to [flow].  Test seam: observes the per-flow
    deficit-round-robin state. *)

val drops : 'a t -> int
