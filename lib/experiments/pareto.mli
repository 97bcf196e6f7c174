(** Extension experiment: the protection/overhead frontier of Stob policies.

    Section 3 closes with "implementing these and more sophisticated
    countermeasures at the kernel level is likely to enable a broader range
    of tunable parameters and thus a greater effectiveness".  This harness
    makes that range concrete: it sweeps the split threshold and the delay
    range of the combined policy, measures k-FP accuracy (protection) and
    latency/packet overheads (cost) for each point, and reports the Pareto-
    efficient set — the design tool an operator would use to pick a policy. *)

type point = {
  policy : Stob_core.Policy.t;
  accuracy : float;  (** k-FP closed-world accuracy under this policy. *)
  latency_overhead : float;
  packet_overhead : float;
  pareto : bool;  (** No other point is better on both accuracy and cost. *)
}

val run :
  ?samples_per_site:int ->
  ?trees:int ->
  ?folds:int ->
  ?seed:int ->
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?store:Stob_store.Store.t ->
  ?on_report:(Stob_store.Supervisor.report -> unit) ->
  unit ->
  point list
(** Defaults: 30 visits/site, 100 trees, 3 folds; sweeps thresholds
    {600, 900, 1200} x delay ranges {none, 10-30 %, 30-60 %}.
    Countermeasures are applied trace-level (Section 3 style) so all points
    share one generated corpus.

    Each sweep point is a supervised checkpoint cell ([?pool] runs them
    concurrently, [?store] makes the sweep crash-safe/resumable).  A
    poisoned point carries [nan] measurements and is excluded from the
    Pareto frontier.  See {!Stob_store.Supervisor} for
    [?retries]/[?on_report]. *)

val print : point list -> unit
