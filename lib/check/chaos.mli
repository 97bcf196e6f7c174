(** The chaos battery: seeded fault sweeps over monitored page loads.

    A chaos {e cell} runs a defended workload (CCA x fault class x
    workload shape) with the full robustness stack engaged: the
    {!Monitor} watching every invariant, a {!Stob_sim.Fault} plan armed
    against the stack's components, and — when [degrade] is set — each
    flow's hook wrapped in {!Stob_core.Controller.guard}'s fallback
    ladder.  A cell is a pure function of its parameters and [seed]:
    {!run_sweep} pre-splits one seed per scenario in scenario order (the
    [lib/par] rule), so reports are identical at every [--jobs] level and
    a failing seed replays exactly.

    What counts as failure is deliberately split in two:
    - {!survived}: the page load completed and nothing escaped — the gate
      every degradation-enabled cell must pass.  Tripped invariants do
      {e not} fail this gate; for a fault cell they are the monitor doing
      its job.
    - {!clean}: survived {e and} zero violations — the bar for no-fault
      cells.

    Injected faults raise {!Stob_sim.Fault.Injected}, which is distinct
    from [Invalid_argument] by construction: an API-precondition bug
    (e.g. {!Stob_tcp.Endpoint.write} with a non-positive count) crashes
    the cell and is reported as such, never absorbed as chaos. *)

type workload =
  | Oneshot  (** One connection, one request/response/close. *)
  | Sequential of int  (** [n] connections back-to-back (later flows look up
                           policy mid-run — the {!Stob_sim.Fault.Policy_failure}
                           surface). *)
  | Fanout of int  (** [n] connections opening 300 ms apart, sharing the
                       server CPU and fq qdisc. *)

type scenario = {
  cca : string;  (** ["reno"], ["cubic"] or ["bbr"]. *)
  fault : Stob_sim.Fault.kind option;  (** [None] = control cell. *)
  workload : workload;
  degrade : bool;  (** Wrap hooks in the {!Stob_core.Controller.guard} ladder. *)
}

val scenario_name : scenario -> string

type degradation_summary = {
  final_rung : string;  (** Worst rung any flow ended on. *)
  trips : int;
  decisions : int;
  fallbacks : int;
  injected : int;
  stalls : int;
  hook_exceptions : int;
  unsafe_proposals : int;
}

type report = {
  scenario : scenario;
  seed : int;
  completed : bool;
  crashed : string option;
  livelock : bool;
  total_violations : int;
  violation_counts : (string * int) list;
  degradation : degradation_summary option;
  policy_fallbacks : int;
  client_received : int;
  fault_events : int;
  finish_time : float;
  pending_events : int;
}

val run_cell :
  ?rate_bps:float ->
  ?delay:float ->
  ?horizon:float ->
  ?fault_horizon:float ->
  ?events_per_kind:int ->
  ?request:int ->
  ?response:int ->
  ?stall_bound:float ->
  ?plan:Stob_sim.Fault.event list ->
  seed:int ->
  scenario ->
  report
(** One cell.  Defaults: 20 Mb/s, 15 ms one-way delay, 60 s run horizon,
    faults drawn inside the first [fault_horizon] (1 s — the thick of the
    transfer) with 2 events per kind, 2 KB requests, 400 KB responses,
    0.5 s progress-stall bound.
    [plan] overrides the drawn fault plan (used by {!shrink}).  The cell
    never raises: escaped exceptions land in [crashed], and
    {!Stob_sim.Engine.Livelock} is translated into an [engine-livelock]
    violation.  Test seam: the sweep runs its cells through this; tests
    replay one. *)

val default_scenarios : unit -> scenario list
(** \{reno, cubic, bbr\} x \{no-fault + every fault kind\}, fanout-3,
    degradation on: 21 cells. *)

val smoke_scenarios : unit -> scenario list
(** cubic x \{no-fault + every fault kind\}, fanout-2, degradation on:
    7 cells — the [dune runtest] / [@chaos] smoke. *)

val run_sweep :
  ?pool:Stob_par.Pool.t ->
  ?rate_bps:float ->
  ?delay:float ->
  ?horizon:float ->
  ?fault_horizon:float ->
  ?events_per_kind:int ->
  ?request:int ->
  ?response:int ->
  ?stall_bound:float ->
  seed:int ->
  scenario list ->
  report list
(** Run every scenario (in parallel over [pool] when given) with per-cell
    seeds pre-split from [seed].  Report order follows the input order and
    the reports are bit-identical for every pool size. *)

val survived : report -> bool
(** Completed, no crash, no livelock. *)

val clean : report -> bool
(** {!survived} with zero violations (the no-fault bar). *)

val shrink :
  ?failed:(report -> bool) ->
  ?rate_bps:float ->
  ?delay:float ->
  ?horizon:float ->
  ?fault_horizon:float ->
  ?events_per_kind:int ->
  ?request:int ->
  ?response:int ->
  ?stall_bound:float ->
  seed:int ->
  scenario ->
  (int * Stob_sim.Fault.event list * report) option
(** Minimise a failing cell to the shortest prefix of its time-sorted
    fault plan that still fails [failed] (default: [not (survived r)]).
    Returns [None] when the full plan does not fail; otherwise the prefix
    length, the prefix itself, and the report of the minimal replay.
    Deterministic: the same seed always shrinks to the same prefix. *)

val print_sweep : report list -> unit
