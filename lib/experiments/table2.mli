(** Experiment E1: reproduce Table 2 — k-FP closed-world accuracy under
    emulated kernel countermeasures, as a function of how much of the
    connection the censor observes.

    Pipeline (paper Section 3): generate ~100 visits for each of the nine
    sites, sanitize (errors dropped, IQR outlier filter, classes balanced),
    build 16 dataset variants = {Original, Split, Delayed, Combined} x
    {N = 15, 30, 45, All} where both the countermeasure and the attack are
    restricted to the first N packets, then evaluate k-FP (random-forest
    vote) with stratified cross-validation, reporting mean +/- std. *)

type config = {
  samples_per_site : int;
  folds : int;
  forest_trees : int;
  seed : int;
  quiet : bool;  (** Suppress progress output. *)
}

val default_config : config
(** 100 samples/site, 5 folds, 100 trees, seed 42. *)

type cell = { mean : float; std : float }
(** A poisoned sweep cell (see {!Stob_store.Supervisor}) is reported as
    [nan +/- nan] and rendered as ["poisoned"] by {!print}. *)

type row = { n_label : string; original : cell; split : cell; delayed : cell; combined : cell }

type result = {
  rows : row list;  (** N = 15, 30, 45, All — the paper's four rows. *)
  per_site : (string * int) list;  (** Surviving samples per site. *)
}

val run :
  ?config:config ->
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?store:Stob_store.Store.t ->
  ?on_report:(Stob_store.Supervisor.report -> unit) ->
  unit ->
  result
(** [?pool] parallelizes dataset generation (per visit) and the sweep (per
    cell); the table is identical for any domain count.  The sweep runs as
    16 supervised cells ({!Stob_store.Supervisor}): with a [?store] each
    finished cell is journaled durably and a rerun resumes from the cache;
    [?retries] sets the retry policy; [?on_report] receives the supervisor's cached/retried/poisoned tallies. *)

val run_on :
  ?config:config ->
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?store:Stob_store.Store.t ->
  ?on_report:(Stob_store.Supervisor.report -> unit) ->
  Stob_web.Dataset.t ->
  result
(** Same evaluation on a pre-generated (unsanitized) dataset.  Test seam:
    the only way to run the sweep over a corpus of a few sites.  Test seam:
    [?inject], with which [store.resume] slows each cell of the sweep it
    kills. *)

val print : result -> unit
(** Render the table in the paper's layout. *)
