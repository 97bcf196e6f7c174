(** Extension experiment: deep-learning vs. feature-engineered WF attacks.

    The paper's motivation is that DL attacks (Deep Fingerprinting,
    Var-CNN) made WF practical.  This harness runs both attack families on
    the same corpora: k-FP (random forest over ~165 engineered features)
    and DF-lite (a batched CNN over raw packet directions,
    {!Stob_kfp.Dfnet}), undefended and under the Stob combined
    (split+delay) policy.

    Notably, packet splitting changes the {e direction sequence} that DF
    consumes (more incoming packets) while delaying does not — so the two
    attack families respond differently to the same defense.

    The sweep runs as 4 supervised cells ({k-FP, DF} x {original,
    defended}) through {!Evalcommon.run_cells}, sharing one set of
    per-corpus encodings computed up front — crash-safe journal/resume,
    [stobctl status] visibility and retry/poison semantics like the other
    sweeps.  {!run_population} additionally evaluates both families on the
    packed population-scale corpus of {!Population}, zero-copy from the
    shard journals. *)

type row = { attack : string; original : float; defended : float }

val run :
  ?samples_per_site:int ->
  ?trees:int ->
  ?epochs:int ->
  ?seed:int ->
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?store:Stob_store.Store.t ->
  ?on_report:(Stob_store.Supervisor.report -> unit) ->
  unit ->
  row list
(** Defaults: 60 visits/site (70/30 split), 100 trees, 30 epochs.
    [?pool] parallelizes dataset generation and the four cells (each cell
    trains sequentially — cells must not nest into the sweep's pool); with
    a [?store] finished cells are journaled and a rerun resumes from the
    cache.  A poisoned cell's accuracy is reported as [nan] and printed as
    ["poisoned"]. *)

val print : row list -> unit

(** {1 Population-scale corpus} *)

type population_result = {
  users : int;
  flows : int;  (** Traces in the whole generated corpus. *)
  monitored_sites : int;
  train_samples : int;
  test_samples : int;
  kfp : float;
  dfnet : float;
}

val run_population :
  ?users:int ->
  ?trees:int ->
  ?epochs:int ->
  ?max_per_site:int ->
  ?seed:int ->
  ?quiet:bool ->
  ?pool:Stob_par.Pool.t ->
  state_dir:string ->
  unit ->
  population_result
(** Generate (or resume — {!Population.generate} is crash-safe) a
    population corpus under [state_dir], recover site labels by re-running
    the pure visit planner against the shard journals, and evaluate k-FP
    (zero-copy packed featurization) vs DF-lite (zero-copy
    {!Stob_kfp.Dfnet.encode_batch}) on the monitored-site visits, capped
    at [max_per_site] samples per site (70/30 split).  Defaults: 80 users,
    100 trees, 15 epochs, 60 samples/site cap.  [?pool] parallelizes
    generation, forest training and the DF minibatch shards; results are
    identical at any domain count.  Raises [Failure], naming the shard
    file, when a shard journal replays more or fewer traces than its plan
    (damage in place, which generation cannot see). *)

val print_population : population_result -> unit
