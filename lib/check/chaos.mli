(** The chaos battery: seeded fault sweeps over monitored page loads.

    A chaos {e cell} runs a defended workload (CCA x fault class x
    fanout) with the full robustness stack engaged: the {!Monitor}
    watching every invariant, a {!Stob_sim.Fault} plan armed against the
    stack's components, and each flow's hook wrapped in
    {!Stob_core.Controller.guard}'s fallback ladder.  A cell is a pure
    function of its parameters and [seed]: {!run_sweep} derives each
    cell's seed from the sweep seed and the scenario's CCA and fault
    kind, so reports are identical at every [--jobs] level, a cell keeps
    its row in any list that contains it, and a failing seed replays
    exactly.

    What counts as failure is deliberately split in two:
    - {!survived}: the page load completed and nothing escaped — the gate
      every cell must pass.  Tripped invariants do
      {e not} fail this gate; for a fault cell they are the monitor doing
      its job.
    - {!clean}: survived {e and} zero violations — the bar for no-fault
      cells.

    Injected faults raise {!Stob_sim.Fault.Injected}, which is distinct
    from [Invalid_argument] by construction: an API-precondition bug
    (e.g. {!Stob_tcp.Endpoint.write} with a non-positive count) crashes
    the cell and is reported as such, never absorbed as chaos. *)

type scenario = {
  cca : string;  (** ["reno"], ["cubic"] or ["bbr"]. *)
  fault : Stob_sim.Fault.kind option;  (** [None] = control cell. *)
  fanout : int;
      (** Connections opening 300 ms apart, sharing the server CPU and fq
          qdisc; each does one request/response/close. *)
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
  degradation : degradation_summary;
  policy_fallbacks : int;
  client_received : int;
  fault_events : int;
  finish_time : float;
  pending_events : int;
}

val run_cell : ?plan:Stob_sim.Fault.event list -> seed:int -> scenario -> report
(** One cell: 20 Mb/s, 15 ms one-way delay, 60 s run horizon, faults
    drawn inside the first second (the thick of the transfer) with 2
    events per kind, 2 KB requests, 400 KB responses, 0.5 s progress-stall
    bound.  [plan] overrides the drawn fault plan (used by {!shrink}).
    The cell never raises: escaped exceptions land in [crashed], and
    {!Stob_sim.Engine.Livelock} is translated into an [engine-livelock]
    violation.  Test seam: the sweep runs its cells through this, and
    [chaos.faults] replays one with an explicitly timed [plan]. *)

val default_scenarios : unit -> scenario list
(** \{reno, cubic, bbr\} x \{no-fault + every fault kind\}, fanout-3:
    21 cells. *)

val smoke_scenarios : unit -> scenario list
(** cubic x \{no-fault + every fault kind\}, fanout-2: 7 cells — the
    [dune runtest] / [@chaos] smoke. *)

val run_sweep : ?pool:Stob_par.Pool.t -> seed:int -> scenario list -> report list
(** Run every scenario (in parallel over [pool] when given).  A cell's
    seed is a hash of [seed], its CCA and its fault kind's name, not of
    its position: a one-cell sweep reproduces that cell's row of any
    longer sweep.  Report order follows the input order and the reports
    are bit-identical for every pool size. *)

val survived : report -> bool
(** Completed, no crash, no livelock. *)

val clean : report -> bool
(** {!survived} with zero violations (the no-fault bar). *)

val shrink :
  failed:(report -> bool) ->
  seed:int ->
  scenario ->
  (int * Stob_sim.Fault.event list * report) option
(** Minimise a failing cell to the shortest prefix of its time-sorted
    fault plan that still fails [failed].
    Returns [None] when the full plan does not fail; otherwise the prefix
    length, the prefix itself, and the report of the minimal replay.
    Deterministic: the same seed always shrinks to the same prefix. *)

val print_sweep : report list -> unit
