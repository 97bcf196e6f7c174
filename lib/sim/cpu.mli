(** Single-core CPU cost model for the sending host.

    Figure 3 of the paper measures a CPU-bound effect: shrinking packet and
    TSO sizes multiplies per-packet and per-segment work on one core, which
    caps single-connection throughput well below the 100 Gb/s link rate.
    This model captures that mechanism: work items queue on a core and run
    serially, each occupying the core for its cost.

    Costs are supplied by the stack when it pushes segments (see
    {!Stob_tcp.Connection}); typical decomposition is a fixed per-segment
    cost plus per-packet and per-byte terms. *)

type t

val create : Engine.t -> t
(** A core bound to the engine's clock, idle at time 0. *)

val submit : t -> cost:float -> (unit -> unit) -> unit
(** [submit t ~cost f] enqueues a work item that occupies the core for
    [cost] seconds and then runs [f].  Items execute in submission order.
    A non-positive cost still preserves ordering (runs as soon as the core
    is free). *)

val busy_until : t -> float
(** Absolute time at which the core next becomes idle. *)

val busy_time : t -> float
(** Cumulative seconds of work executed (for utilization reporting). *)

val utilization : t -> float
(** [busy_time /. now]; [0.] at time zero.  Test seam. *)

val queue_depth : t -> int
(** Work items submitted but not yet completed. *)

val set_overload : t -> float -> unit
(** Multiply the cost of subsequently submitted work by [factor] (an
    overload burst: interrupts, co-tenant contention).  [1.0] restores
    nominal costs; already-queued work is unaffected.  Raises
    [Invalid_argument] on a non-positive factor.  Used by the fault
    injector ({!Fault}). *)
