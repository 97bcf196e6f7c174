(** The discrete-event simulation engine.

    A simulation is a set of callbacks scheduled on a virtual clock.  The
    engine pops the earliest event, advances the clock to its timestamp and
    runs its callback, which may schedule further events.  All simulated
    subsystems (links, TCP timers, the CPU model, page-load drivers) share
    one engine, so cross-subsystem causality is exact. *)

type t

exception Livelock of { time : float; events : int }
(** Raised by {!step}/{!run} when more than the same-instant budget of
    consecutive events execute without the clock advancing — the signature
    of a callback rescheduling itself with zero delay.  Without the budget
    such a bug hangs the process; with it, the hang becomes a structured,
    catchable failure (the chaos monitor reports it as a violation). *)

val create : ?queue:Event_queue.impl -> unit -> t
(** [queue] pins the event-queue implementation (the differential tests
    run identical scenarios on both); defaults to the timing wheel, unless
    the [STOB_EVENT_QUEUE] environment variable says otherwise.  Test seam:
    [queue], for the [sim.engine] wheel-vs-heap differentials. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].  A negative delay is
    clamped to zero (fires "immediately", after already-queued events for the
    current instant).  Raises [Invalid_argument] on a NaN delay.  An event
    cannot be cancelled: anything that may be stopped or moved before it
    fires is a {!timer}. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant.  Times before [now] are clamped to [now].
    Raises [Invalid_argument] on a NaN time. *)

(** {1 Re-armable timers} *)

type timer
(** One callback that is armed, re-armed and disarmed many times: a
    retransmission timeout that every ACK pushes back, or a delayed ACK
    that the next packet makes moot.  A new timer is disarmed. *)

val timer : t -> (unit -> unit) -> timer
(** [timer t f] makes a disarmed timer that runs [f] when it fires.  It
    fires at most once per arm and is disarmed by then, so [f] may arm it
    again. *)

val arm : timer -> delay:float -> unit
(** [arm tm ~delay] (re-)arms [tm] to fire at [now +. delay], exactly
    where a cancel of its last arm followed by [schedule ~delay] would
    run it: the arm takes the sequence number that schedule would have
    taken at this moment, so same-instant ties break as they would for
    that event.  A negative delay is clamped to zero.  Raises
    [Invalid_argument] on a NaN delay.

    On the timing wheel an arm costs the queue nothing when the timer's
    entry is already queued no later than the new key.  The timer owns at
    most one queue entry, keyed at or before its logical (time, sequence):
    a re-arm to a later key leaves the entry where it is, and a re-arm to
    an earlier key moves it.  An entry that comes due before its timer's
    key, or whose timer is disarmed, {e surfaces}: it is queued again under
    the logical key, or dropped.  A surfacing is not an event: it does not
    count in {!events_processed}, run the probe, move the clock or spend
    the same-instant budget.  On the heap oracle, which can neither remove
    nor queue under a reserved number, every arm is that cancel plus that
    schedule, so [STOB_EVENT_QUEUE=heap] checks timers independently. *)

val arm_at : timer -> time:float -> unit
(** Absolute-time {!arm}.  Times before [now] are clamped to [now].
    Raises [Invalid_argument] on a NaN time. *)

val disarm : timer -> unit
(** Stop [tm] from firing until it is armed again.  Disarming a disarmed
    or fired timer is a no-op.  On the timing wheel its entry stays queued
    until it comes due and is dropped, so the callback stays reachable
    until the time of the entry. *)

val armed : timer -> bool
(** Whether [tm] is armed: true from an arm until it fires or is
    disarmed. *)

(** {1 Constant-delay lines} *)

type 'a line
(** A FIFO of values each delivered a fixed delay after its push — a
    link's propagation, say.  Only the earliest waiting value is in the
    event queue, so a line with thousands of values in flight costs the
    queue one entry. *)

val line : t -> delay:float -> ('a -> unit) -> 'a line
(** [line t ~delay deliver] creates an empty line.  Raises
    [Invalid_argument] on a negative or NaN delay. *)

val push : 'a line -> 'a -> unit
(** [push l v] calls [deliver v] at [now +. delay], exactly where
    [schedule ~delay (fun () -> deliver v)] called at this moment would
    run it: the push takes the sequence number that schedule would have
    taken, so same-instant ties break as they would for that event.  Each
    delivery is one fired event for {!events_processed}, the probe and the
    same-instant budget, and a value counts in {!pending} until delivered.
    On the timing wheel a push allocates nothing once the line's ring has
    grown to its peak occupancy; queueing a new head costs one event, as
    {!schedule} does.  On the heap oracle, which cannot queue under a
    reserved number, a push {e is} that {!schedule}, so
    [STOB_EVENT_QUEUE=heap] checks the line independently. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stops once the next event lies
    strictly beyond [until] and sets the clock to [until]. *)

val step : t -> bool
(** Run exactly one event; [false] when none was left.  Test seam: lets a
    test observe the engine between events. *)

val pending : t -> int
(** Number of scheduled events that have not fired, plus the values
    waiting in lines, plus the armed timers (one each, however often they
    were re-armed). *)

val events_processed : t -> int
(** Total callbacks executed so far (for engine-level sanity checks). *)

(** {1 Robustness instrumentation} *)

val set_same_instant_budget : t -> int -> unit
(** Maximum number of {e consecutive} events the engine will execute at one
    virtual instant before raising {!Livelock}.  The default
    ({!default_same_instant_budget}) is far above anything a legitimate
    workload produces; tests lower it to catch zero-delay self-rescheduling
    quickly.  Raises [Invalid_argument] on a non-positive budget. *)

val same_instant_budget : t -> int
(** Test seam: reads the budget back. *)

val default_same_instant_budget : int
(** 1_000_000.  Test seam: the budget a fresh engine starts with. *)

val set_probe : t -> (now:float -> unit) -> unit
(** [set_probe t f] installs an observe-only probe called after every
    executed event with the event's timestamp.  One probe at a time; the
    invariant monitor ({!Stob_check}) chains its checks through this.  The
    probe must not schedule events or arm or disarm timers. *)

val clear_probe : t -> unit
