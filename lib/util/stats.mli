(** Descriptive statistics over float arrays.

    These are the building blocks for the k-FP feature extractor, dataset
    sanitization (IQR filtering) and experiment reporting (mean +/- std).
    All functions are total on empty input where a sensible neutral value
    exists; otherwise they raise [Invalid_argument]. *)

val sum : float array -> float
val mean : float array -> float
(** Mean; [0.] on empty input (the k-FP extractor relies on this neutral). *)

val std : float array -> float
(** Population standard deviation. *)

val sample_std : float array -> float
(** Sample (n-1) standard deviation; [0.] for fewer than two elements. *)

val min_ : float array -> float
(** Minimum; [0.] on empty input. *)

val max_ : float array -> float
(** Maximum; [0.] on empty input. *)

val median : float array -> float
(** Median (average of middle two for even length); [0.] on empty input. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0, 100\]], linear interpolation between
    order statistics; [0.] on empty input. *)

val quantiles : float array -> float list -> float list
(** Batch {!percentile} sharing one sort. *)

val iqr_bounds : float array -> float * float
(** [(lo, hi)] Tukey fences: [q1 - 1.5*iqr, q3 + 1.5*iqr].  Values outside
    are outliers.  Raises on empty input. *)

val skewness : float array -> float
(** Fisher skewness; [0.] when undefined (fewer than 3 points or zero std). *)

val kurtosis : float array -> float
(** Excess kurtosis; [0.] when undefined. *)
