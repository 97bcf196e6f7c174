(** Shared evaluation helpers: cross-validated k-FP accuracy, and the
    cell runner the crash-safe sweeps are built on. *)

val run_cells :
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?store:Stob_store.Store.t ->
  experiment:string ->
  'a Stob_store.Supervisor.cell list ->
  ('a, string) result list * Stob_store.Supervisor.report
(** Run a sweep's cells through {!Stob_store.Supervisor} with the shared
    Marshal codec (bit-exact round trips, so resume = uninterrupted).
    Results in cell order; [Error] is a poisoned cell's exception text. *)

val dataset_fingerprint : Stob_web.Dataset.t -> string
(** Content hash of a corpus, used as a cell config field so cached
    results can never be replayed against a different dataset.  It is the
    MD5 of explicit bytes: the site names, then per sample its site, label,
    completion flag, [total_in_bytes] and {!Stob_net.Trace.to_bytes} of
    its trace (strings and numbers length-prefixed). *)

val accuracy_cv :
  ?folds:int -> ?trees:int -> ?seed:int -> ?pool:Stob_par.Pool.t -> Stob_web.Dataset.t ->
  float * float
(** Stratified CV accuracy (mean, sample std) of the forest-vote attack on
    full traces.  Defaults: 5 folds, 100 trees, seed 42.  [?pool]
    parallelizes over folds; results are identical for any domain count. *)
