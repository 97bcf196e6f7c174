(** The seed's naive row-major CART trainer, kept verbatim.

    This is {e not} a production path: it re-sorts sample indices per
    feature per node with polymorphic [compare] and partitions children
    through list round-trips, exactly as the original row-major trainer
    did.  It exists for two jobs only, and every value here is an entry
    point for one of them:

    - the parity oracle in [test/test_ml.ml] — the presorted column-major
      trainer must reproduce its trees bit-for-bit (structure, thresholds,
      leaf ids and distributions, feature gains) on any input;
    - the "before" baseline of [stobctl perf forest], which records the
      naive-vs-presorted wall-clock ratio in [BENCH_forest.json].

    The node type is exposed concretely so tests can compare tree shapes
    structurally (see {!Decision_tree.fold}). *)

type node =
  | Leaf of { id : int; label : int; dist : float array }
  | Split of { feature : int; threshold : float; left : node; right : node }

type tree = { root : node; n_leaves : int; depth : int; gains : float array }

val train_tree :
  ?params:Decision_tree.params ->
  rng:Stob_util.Rng.t ->
  n_classes:int ->
  features:float array array ->
  labels:int array ->
  unit ->
  tree
(** Byte-for-byte the seed [Decision_tree.train]: per-node per-feature
    re-sorts, midpoint thresholds, [<=] partitioning, first-strictly-better
    tie-breaking in feature order. *)

type forest = { trees : tree array; n_classes : int }

val train_forest :
  ?params:Random_forest.params ->
  n_classes:int ->
  features:float array array ->
  labels:int array ->
  unit ->
  forest
(** The seed [Random_forest.train] restricted to its sequential path:
    per-tree generators pre-split in tree order, bootstrap rows copied
    into fresh per-tree arrays (the allocation behaviour being benchmarked
    against). *)

val forest_predict : forest -> float array -> int
val forest_fingerprint : forest -> float array -> int array
val forest_importance : forest -> float array
