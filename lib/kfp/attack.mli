(** The k-FP attack pipeline.

    Train on featurized traces; classify in one of two modes:
    - [Forest_vote]: the random forest's majority vote — the closed-world
      configuration the paper's Table 2 reports ("k-FP Random Forest
      accuracy rates");
    - [Leaf_knn k]: k-nearest-neighbour over forest leaf fingerprints with
      Hamming distance — the original k-FP formulation, needed for
      open-world settings.

    The [_m] variants take a column-major {!Stob_ml.Matrix.t}; build one
    per fold ([Matrix.of_rows] over the cached feature rows) and share it
    across forest training, fingerprinting and evaluation — it is
    immutable and domain-safe. *)

type mode =
  | Forest_vote
  | Leaf_knn of int  (** Test seam: [kfp.attack]'s k-NN-on-leaves evaluation. *)

type t

val train :
  ?forest:Stob_ml.Random_forest.params ->
  ?pool:Stob_par.Pool.t ->
  n_classes:int ->
  features:float array array ->
  labels:int array ->
  unit ->
  t
(** Row-major convenience wrapper over {!train_m}. *)

val train_m :
  ?forest:Stob_ml.Random_forest.params ->
  ?pool:Stob_par.Pool.t ->
  n_classes:int ->
  matrix:Stob_ml.Matrix.t ->
  labels:int array ->
  unit ->
  t
(** [?pool] parallelizes forest training (deterministically — see
    {!Stob_ml.Random_forest.train_m}).  Training fingerprints are computed
    in one batch over the same matrix. *)

val evaluate : t -> mode:mode -> features:float array array -> labels:int array -> float
(** Accuracy on a labelled test set. *)

val evaluate_m : t -> mode:mode -> matrix:Stob_ml.Matrix.t -> labels:int array -> float

val predict_open_world_all : t -> k:int -> Stob_ml.Matrix.t -> int option array
(** The original k-FP open-world rule, for every row of a test matrix:
    classify as monitored site [s] only when {e all} [k] nearest training
    fingerprints (Hamming distance over forest leaves) carry label [s]; any
    disagreement means "unmonitored" ([None]).  Train the attack on
    monitored sites plus background traffic collapsed into one extra
    class. *)

val forest : t -> Stob_ml.Random_forest.t
