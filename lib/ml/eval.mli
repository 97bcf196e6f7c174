(** Classifier evaluation: accuracy, confusion matrices, fold aggregation.

    Experiment tables report accuracy as "mean +/- sample std over folds",
    matching the paper's Table 2 presentation. *)

val accuracy : predicted:int array -> actual:int array -> float
(** Fraction of agreeing positions.  Raises on length mismatch or empty. *)

val confusion : n_classes:int -> predicted:int array -> actual:int array -> int array array
(** [m.(actual).(predicted)] counts. *)

val per_class_recall : int array array -> float array
(** Recall per class from a confusion matrix (0 for absent classes). *)

val mean_std : float list -> float * float
(** Mean and sample standard deviation across folds. *)
