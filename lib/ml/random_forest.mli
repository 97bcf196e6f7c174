(** Random forests: bagged CART trees with random feature subsets.

    This is the classifier inside k-FP (Hayes & Danezis): each tree trains
    on a bootstrap resample considering ~sqrt(d) features per split;
    classification is the majority vote.  [leaf_fingerprint] exposes the
    per-tree leaf identifiers — the "fingerprint" that gives k-FP its name,
    used with Hamming-distance k-NN in the open-world attack variant.

    Training runs on the column-major presorted path ({!Matrix},
    {!Decision_tree.train_presorted}): the matrix and its per-feature
    presort are built once and shared — immutably — across all trees and
    worker domains; each tree draws only a bootstrap {e index} array
    instead of copying row pointers. *)

type params = {
  n_trees : int;
  max_depth : int;
  min_samples_leaf : int;
  features_per_split : [ `Sqrt | `All | `N of int ];
  seed : int;
}

val default_params : params
(** 100 trees, depth 32, leaf 1, sqrt features, seed 0. *)

type t

val train :
  ?params:params ->
  ?pool:Stob_par.Pool.t ->
  n_classes:int ->
  features:float array array ->
  labels:int array ->
  unit ->
  t
(** Row-major convenience wrapper over {!train_m} ([Matrix.of_rows] once,
    then the shared-presort path). *)

val train_m :
  ?params:params ->
  ?pool:Stob_par.Pool.t ->
  n_classes:int ->
  matrix:Matrix.t ->
  labels:int array ->
  unit ->
  t
(** [?pool] parallelizes per-tree training.  The per-tree generators are
    pre-split from the seed in tree order, so the forest is bit-identical
    for any domain count (and to the historical sequential behavior).
    Build the matrix once per fold and share it — it is read-only. *)

val predict_all : t -> Matrix.t -> int array
(** Majority vote over the trees (ties break toward the lower label) for
    every row of a test matrix: one reusable vote buffer, no row
    materialization. *)

val predict_proba : t -> float array -> float array
(** Mean leaf class distribution over trees (accumulated in place — no
    per-tree copies). *)

val leaf_fingerprint_m : t -> Matrix.t -> int -> int array
(** One leaf id per tree for one row of a column matrix. *)

val leaf_fingerprints : t -> Matrix.t -> int array array
(** Batch fingerprints for every row of a matrix. *)

val feature_importance : t -> float array
(** Mean Gini importance over the trees, normalized to sum to 1 (all zeros
    for a forest of stumps that never split). *)

val trees : t -> Decision_tree.t array
(** The individual trees, in training order (fresh array, shared trees) —
    for the parity battery and the forest benchmark. *)
