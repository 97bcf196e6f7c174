(** CART decision trees (Gini impurity) with random feature subsets.

    The building block of the random forest behind k-FP.  Trees grow fully
    (until purity or the configured limits) on bootstrap samples; at each
    split only a random subset of features is considered, which is what
    decorrelates the forest's trees.

    Training uses classic CART presorting over a column-major
    {!Matrix.t}: every feature is sorted once per matrix (shared across a
    whole forest), node splits walk the precomputed orders with
    incremental class counts, and children are carved out by stable
    in-place partition — no per-node sorting, no list round-trips, no
    allocation in the scan loop.  The produced trees are bit-identical to
    the seed's naive row-major trainer (kept as {!Reference}); the
    tie-breaking rules that guarantee this are documented in HACKING.md
    ("Classifier hot path") and pinned by the parity battery in
    [test/test_ml.ml]. *)

type params = {
  max_depth : int;
  min_samples_leaf : int;
  features_per_split : int option;
      (** [None] = all features; forests pass ~sqrt(n_features). *)
}

val default_params : params
(** Depth 32, leaf size 1, all features. *)

type t

val train_presorted :
  ?params:params ->
  rng:Stob_util.Rng.t ->
  n_classes:int ->
  matrix:Matrix.t ->
  labels:int array ->
  sample:int array ->
  orders:int array array ->
  unit ->
  t
(** The forest hot path.  [matrix] and [orders = Matrix.presorted matrix]
    are immutable and shared across trees and domains; [sample] maps each
    bootstrap position to a matrix row (duplicates welcome); [labels] is
    indexed by matrix row; labels must lie in [\[0, n_classes)].  Only
    per-tree scratch is allocated.  Raises [Invalid_argument] on an empty
    sample or on labels, orders and matrix of different sizes. *)

val add_dist : t -> float array -> into:float array -> unit
(** Accumulate the reached leaf's distribution into [into] without
    copying — the forest [predict_proba] hot path.  [into] must have at
    least [n_classes] slots. *)

val predict_m : t -> Matrix.t -> int -> int
(** [predict_m t m row]: the label of the leaf row [row] of a column
    matrix lands in, read directly — batch inference without
    materializing rows. *)

val leaf_id_m : t -> Matrix.t -> int -> int
(** Identifier of the leaf row [row] lands in (k-FP's fingerprint
    element).  Leaves are numbered consecutively from 0 in construction
    order. *)

val n_leaves : t -> int
(** Test seam, with {!depth}: observes the tree's shape. *)

val depth : t -> int

val feature_gains : t -> float array
(** Per-feature total impurity decrease (Gini importance), weighted by the
    fraction of training samples reaching each split.  Length equals the
    training feature count. *)

val fold :
  t ->
  leaf:(id:int -> label:int -> dist:float array -> 'a) ->
  split:(feature:int -> threshold:float -> 'a -> 'a -> 'a) ->
  'a
(** Bottom-up structural fold, used by the parity tests to compare a tree
    against the {!Reference} oracle node-for-node. *)
