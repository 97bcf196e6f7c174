(** Column-major feature matrices for the classifier hot path.

    The trainers and batch predictors in this library work on a dense
    [n_rows x n_cols] matrix stored one {e unboxed} [floatarray] per
    column, so a split scan over one feature walks contiguous memory
    instead of chasing one boxed row pointer per sample.  A matrix is
    immutable after construction and safe to share across domains.

    {!presorted} computes the classic CART presort — for every column,
    the row indices ordered by value with a monomorphic float comparator
    — once per matrix; forests reuse it for every tree and bootstrap
    sample instead of re-sorting per node. *)

type t

val of_rows : float array array -> t
(** [of_rows rows] transposes a row-major sample array (one [float array]
    per sample, the historical representation) into column storage.  All
    rows must share a length; raises [Invalid_argument] otherwise.  An
    empty array yields the [0 x 0] matrix. *)

val n_rows : t -> int
val n_cols : t -> int

val get : t -> int -> int -> float
(** [get m row col].  Bounds-checked. *)

val col : t -> int -> floatarray
(** The raw column — {b do not mutate}.  For read-only hot loops. *)

val presorted : t -> int array array
(** [presorted m] is one array per column holding the row indices of [m]
    sorted by that column's value under [Float.compare] (total order,
    NaN first).  Row order within runs of equal values is unspecified —
    split results never depend on it.  O(cols x rows log rows); compute
    once and share. *)
