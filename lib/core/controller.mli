(** The packet-sequence controller: compiles a {!Policy.t} into stack hooks.

    One controller instance serves one flow; it carries the mutable state a
    policy needs (cycle counters, RNG stream, last release time) and emits a
    {!Stob_tcp.Hooks.t} the endpoint consults once per segment.  The
    controller never proposes anything more aggressive than the stack's own
    decision — and even if a buggy policy did, the endpoint clamps it (see
    {!Stob_tcp.Hooks.clamp} and {!Safety}). *)

type t

type stats = {
  segments : int;  (** Segment decisions seen. *)
  modified : int;  (** Decisions the policy actually changed. *)
  added_delay : float;  (** Total departure delay added, seconds. *)
  stood_down : int;  (** Decisions skipped due to an exempt CCA phase. *)
}

val create : ?seed:int -> Policy.t -> t
(** Instantiate the policy's per-flow state.  [seed] fixes the random
    stream used by stochastic rules (default 0). *)

val hooks : t -> Stob_tcp.Hooks.t
(** The hook to install with {!Stob_tcp.Endpoint.set_hooks} (or pass at
    endpoint creation). *)

val stats : t -> stats
val policy : t -> Policy.t

(** {1 Graceful degradation}

    A guarded hook wraps any {!Stob_tcp.Hooks.t} in a fallback ladder:

    {v full policy -> clamp-only -> defense-off passthrough v}

    On the {e full-policy} rung the hook's answer is trusted (modulo the
    safety clamp); on {e clamp-only} its size decisions survive but timing
    proposals are discarded; on {e passthrough} the hook is no longer
    consulted and the stack's own decision ships.  A circuit breaker trips
    to the next rung when [trip_failures] hook failures land within a
    sliding [window] of virtual seconds — each consultation that raises,
    exceeds the [stall_budget], or proposes something the clamp must
    correct counts as one failure, and ships the stack's unmodified
    decision for that segment.  The page load always completes; it merely
    completes less defended, and the {!degradation_report} says exactly how
    much less. *)

(** The ladder, most- to least-defended. *)
type rung = Full_policy | Clamp_only | Passthrough

val rung_name : rung -> string

type breaker = {
  trip_failures : int;  (** Failures within [window] that trip one rung. *)
  window : float;  (** Sliding-window length, virtual seconds. *)
  stall_budget : float;
      (** Max hook compute time per consultation, seconds.  Within budget,
          hook latency is {e added to the departure} (the safe direction);
          beyond it the consultation is killed and counted as a failure. *)
}

type degradation_report = {
  rung : rung;  (** Final rung when the report was read. *)
  decisions : int;
  full_policy_decisions : int;
  clamp_only_decisions : int;
  passthrough_decisions : int;
  hook_exceptions : int;  (** Hook raised something other than [Fault.Injected]. *)
  injected_faults : int;  (** Hook raised {!Stob_sim.Fault.Injected}. *)
  stalls : int;  (** Consultations killed for exceeding the stall budget. *)
  fallbacks : int;  (** Decisions where the stack's answer shipped because the
                        hook failed (excludes passthrough-rung decisions). *)
  unsafe_proposals : int;  (** Proposals {!Safety.is_safe} rejected. *)
  trips : (float * rung) list;  (** Breaker trips: (virtual time, new rung). *)
}

val guard :
  ?breaker:breaker ->
  ?latency:(now:float -> float) ->
  Stob_tcp.Hooks.t ->
  Stob_tcp.Hooks.t * (unit -> degradation_report)
(** [guard hooks] is the guarded hook plus a report thunk.  [breaker]
    defaults to 3 failures within 1 s and a 50 ms stall budget.  [latency]
    is an oracle for the hook's compute time at a given consultation (the chaos
    harness's {!Stob_sim.Fault.Hook_stall} surface); omitted means free.
    Raises [Invalid_argument] on a non-positive [trip_failures] or [window]
    or a negative [stall_budget].  Install the wrapped hook; read the
    report after the run.  Test seam: [breaker], for [chaos.guard]'s
    tripping and validation cases. *)
