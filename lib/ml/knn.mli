(** k-nearest-neighbour classification over leaf fingerprints.

    k-FP's open-world classifier: a test instance's forest fingerprint is
    compared to every training fingerprint by Hamming distance; the label
    is the majority among the k closest.

    Neighbour order — and therefore every tie — is governed by the
    lexicographic [(distance, training index)] order with explicit int
    comparisons: among equal distances, the sample that appeared {e
    earlier in the training set} wins.  (The seed implementation sorted
    [(distance, label)] tuples with polymorphic [compare], which broke
    ties by label value; that behaviour was an accident of representation
    and is pinned against by a regression test.)  Selection is a bounded
    top-k pass, not a full sort of the distance array. *)

type t

val create : fingerprints:int array array -> labels:int array -> n_classes:int -> t

val classify : t -> k:int -> int array -> int
(** Majority label among the [k] nearest training fingerprints (ties
    between classes break toward the smaller class index). *)

val nearest : t -> k:int -> int array -> (int * int) list
(** The [k] nearest as [(label, distance)] pairs, closest first, ordered
    by [(distance, training index)].  The distance is the number of
    differing positions; raises [Invalid_argument] when a fingerprint's
    length differs from the query's. *)
