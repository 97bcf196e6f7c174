(** Classifier evaluation: accuracy and fold aggregation.

    Experiment tables report accuracy as "mean +/- sample std over folds",
    matching the paper's Table 2 presentation. *)

val accuracy : predicted:int array -> actual:int array -> float
(** Fraction of agreeing positions.  Raises on length mismatch or empty. *)

val mean_std : float list -> float * float
(** Mean and sample standard deviation across folds. *)
