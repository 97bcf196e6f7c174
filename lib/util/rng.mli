(** Deterministic pseudo-random number generation.

    All randomness in the project flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    xoshiro256** seeded via SplitMix64, both public-domain algorithms with
    well-studied statistical quality.

    Generators are values, not global state: independent subsystems (workload
    generation, forest training, defense sampling) each derive their own
    generator with {!split} so that adding draws to one subsystem does not
    perturb another. *)

type t
(** A mutable pseudo-random generator. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream.  The child's stream
    is statistically independent of further draws from [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian draw (Box–Muller). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal draw: [exp] of a [normal] with the given log-space params. *)

val exponential : t -> rate:float -> float
(** Exponential draw with the given rate (mean [1. /. rate]). *)

val geometric : t -> p:float -> int
(** Number of Bernoulli([p]) failures before the first success; [>= 0]. *)

val poisson : t -> lambda:float -> int
(** Poisson draw (Knuth's method; suitable for small-to-moderate rates). *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] is [k] distinct indices drawn from
    [\[0, n)], in random order.  Requires [k <= n]. *)
