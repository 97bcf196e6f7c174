(** Extension experiment: passive CCA identification (Section 5.2).

    The paper notes packet sequences leak more than website identity:
    CCAnalyzer passively identifies a flow's congestion-control algorithm
    from its bottleneck-queue behaviour, revealing OS/application identity
    — and suggests "some users may wish to prevent their CCA from being
    identified".

    This harness builds the whole attack-and-defense loop: bulk transfers
    run over a lossy bottleneck under Reno / CUBIC / BBR with varied
    network conditions; a random-forest classifier identifies the CCA from
    the client-side packet trace (the k-FP feature set captures the
    dynamics: throughput evolution, burst structure, retransmission
    stalls); then the same classifier is evaluated against flows defended
    by a Stob policy. *)

type result = {
  undefended : float;  (** CCA-identification accuracy, stock stack. *)
  defended : float;  (** Accuracy with the Stob delay+TSO jitter policy. *)
  shaped : float;
      (** Accuracy under a Stob rate-floor (constant-rate shaping by pure
          delay): the queue-dynamics signature the classifier feeds on is
          flattened — at a throughput cost. *)
  n_classes : int;
}

val run : ?flows_per_cca:int -> ?trees:int -> ?quiet:bool -> unit -> result
(** Defaults: 40 flows per CCA (70/30 split), 100 trees; seed 42.
    Accuracy is on held-out flows; chance is 1/3.  Test seam: [quiet],
    which silences progress for [experiments] "cca-id reduced". *)

val print : result -> unit
