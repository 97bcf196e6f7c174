(** Extension experiment: which traffic features leak, and which a defense
    actually blunts.

    Random-forest Gini importance over the k-FP feature set, computed on an
    undefended corpus and on a Stob-defended one.  The shift in the ranking
    shows {e what} the defense removed (size-band and burst features under
    splitting; inter-arrival features under delaying) and what still leaks
    (counts, totals) — the feature-level view behind Table 2's accuracy
    numbers, and a design tool for building better policies. *)

type ranking = (string * float) list
(** Feature name with normalized importance, descending. *)

type result = { undefended : ranking; defended : ranking; policy_name : string }

val run : ?samples_per_site:int -> ?trees:int -> ?quiet:bool -> unit -> result
(** Defaults: 30 visits/site, 100 trees; seed 42 and the combined
    split+delay policy.  Test seam: [quiet], which silences progress for
    [experiments] "importance reduced". *)

val print : result -> unit
(** Side-by-side top-12 features. *)
