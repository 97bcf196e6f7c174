(** Extension experiment: the early-detection curve.

    Table 2 samples the censor's confidence at N = 15/30/45; this harness
    traces the whole curve — k-FP accuracy as a function of the number of
    packets observed — for the undefended corpus and under the combined
    countermeasure.  The paper's core censorship claim is about this
    curve's {e slope}: "the rate at which k-FP's accuracy increases over N
    is slower when either defense is applied", i.e. the defense buys the
    user time before a confident blocking decision. *)

type point = { n : int; original : float; defended : float }

type result = {
  points : point list;
  crossover_packets : int option;
      (** First N where the undefended attack exceeds [threshold] accuracy
          but the defended one does not — the censor's bought time, in
          packets. *)
  threshold : float;
}

val run : ?samples_per_site:int -> ?trees:int -> unit -> result
(** Defaults: 60 visits/site, 100 trees.  Always 3 folds, seed 42, N in
    10..80 by 10 and threshold 0.8. *)

val print : result -> unit
