(** Experiment E3/E8: reproduce Table 1 — the WF-defense taxonomy — extended
    with measured overhead columns for every defense implemented in this
    repository.

    The taxonomy rows come from {!Stob_defense.Registry}; the measured
    columns apply each implemented defense to a corpus of undefended page-
    load traces and report mean bandwidth/latency/packet overheads,
    quantifying Section 2.3's claim that padding is the costly primitive
    (FRONT-class bandwidth cost) while timing manipulation is
    work-conserving. *)

type row = {
  entry : Stob_defense.Registry.entry;
  overhead : Stob_defense.Overhead.summary option;  (** Measured, if implemented. *)
}

val run : unit -> row list
(** Measures over a small generated corpus (3 sites x 8 visits, seed 7). *)

val print : row list -> unit
