(** Seeded component-fault injector.

    Where {!Netem} perturbs the {e wire}, this module perturbs the
    {e components} of the stack itself: the defense hook misbehaves, the
    policy table stops answering, the CPU model is suddenly slow, the
    pacing clock jumps, the qdisc loses its capacity.  A fault {e plan} is
    a deterministic function of a single seed (pre-split RNG per fault
    class, in {!all_kinds} order, per the [lib/par] rule), so a failing
    chaos run replays exactly.

    The module is deliberately mechanism-only: it knows {e when} faults
    happen and {e how hard} they hit, but not what they hit — the chaos
    harness ({!Stob_check.Chaos}) wires each {!kind} to the concrete
    component via {!arm}'s [apply]/[revert] callbacks. *)

type kind =
  | Hook_exception  (** Defense hook raises on every consultation in the window. *)
  | Hook_stall  (** Hook consumes [magnitude] seconds of compute per call. *)
  | Policy_failure  (** Policy-table lookups fail inside the window. *)
  | Cpu_overload  (** CPU-model costs multiplied by [magnitude]. *)
  | Pacer_jump
      (** Pacing clock jumps forward by [magnitude] seconds (point event;
          drawn from an absolute 0.75-2.5 s range so it dominates stall
          bounds at any horizon). *)
  | Qdisc_collapse  (** Qdisc capacity collapses to [magnitude] bytes. *)

val all_kinds : kind list
(** Fixed order; the per-kind RNG pre-split follows it.  New kinds append
    at the end so existing classes' draw streams are stable across
    versions. *)

val kind_name : kind -> string

exception Injected of { kind : kind; at : float }
(** The exception injected faults raise.  Distinct from [Invalid_argument]
    on purpose: API-precondition violations (e.g. [Endpoint.write] with a
    non-positive count) are genuine bugs and must never be mistaken for an
    injected fault — the degradation report counts the two separately. *)

type event = { kind : kind; at : float; duration : float; magnitude : float }
(** One fault: active on [[at, at +. duration)] ([duration = 0] is a point
    event).  [magnitude]'s unit depends on the kind (see {!kind}). *)

type config = { kinds : kind list; events_per_kind : int; horizon : float; seed : int }

val plan : config -> event list
(** Deterministic plan, sorted by activation time.  Equal seeds give equal
    plans; a kind's draws do not depend on which other kinds are enabled.
    Raises [Invalid_argument] on a negative event count or non-positive
    horizon. *)

val arm :
  engine:Engine.t -> apply:(event -> unit) -> revert:(event -> unit) -> event list -> unit
(** Schedule the plan: [apply ev] runs at [ev.at]; for windowed events
    [revert ev] runs at [ev.at +. ev.duration]. *)

val pp_event : Format.formatter -> event -> unit
