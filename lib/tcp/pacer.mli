(** Per-connection pacing clock (the fq qdisc's virtual departure time).

    Tracks when the next segment may enter the wire so that, at pacing rate
    [r], a segment of [b] bytes reserves [8b/r] seconds of departure budget.
    The decision (query) and the commitment (reservation) are separate so
    that the Stob hook can observe — and delay — the departure before it is
    booked. *)

type t

val create : unit -> t

val next_departure : t -> now:float -> float
(** Earliest permissible departure time for the next segment (>= [now]). *)

val commit : t -> departure:float -> rate_bps:float -> bytes:int -> unit
(** Book a segment: the following segment may not depart before
    [departure + 8*bytes/rate].  An [infinity] rate books no spacing. *)

val next_free : t -> float
(** The booked departure horizon itself (introspection: the invariant
    monitor asserts it never moves backwards on the happy path). *)

val jump : t -> float -> unit
(** [jump t delta] shifts the pacing clock by [delta] seconds (clamped at
    zero).  A forward jump parks the flow until the horizon passes — the
    {!Stob_sim.Fault.Pacer_jump} fault; the happy path never calls this. *)
