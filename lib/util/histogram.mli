(** Fixed-bin histograms.

    The paper proposes representing obfuscation policies as "relatively
    compact distribution functions like histograms" shared between the
    application and the stack (Section 4.1).  This module is that
    representation: a histogram can be built from observations, queried, and
    sampled from, so a Stob policy can say "draw the next packet size (or
    inter-departure gap) from this distribution". *)

type t

val of_samples : lo:float -> hi:float -> bins:int -> float array -> t
(** Histogram over [\[lo, hi)] with [bins] equal-width bins, holding
    [samples].  Values outside [\[lo, hi)] are clamped into the first/last
    bin, so the histogram accounts for every observation.  Raises
    [Invalid_argument] if [bins <= 0] or [hi <= lo]. *)

val count : t -> int
(** Total observations recorded. *)

val bin_count : t -> int -> int
(** Observations in bin [i].  Test seam: observes the binning that
    {!sample} draws from. *)

val lo : t -> float

val sample : t -> Rng.t -> float
(** Draw from the empirical distribution: pick a bin proportionally to its
    mass, then uniformly within the bin.  Raises [Invalid_argument] when the
    histogram is empty. *)
