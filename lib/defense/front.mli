(** FRONT (Gong & Wang, USENIX Security 2020), trace-level.

    A zero-delay padding defense: each side independently injects a random
    number of dummy packets whose timestamps are drawn from a Rayleigh
    distribution with a random window parameter, concentrating the noise at
    the trace front where WF features are most informative.  Real packets
    are never touched, so FRONT adds bandwidth overhead but no latency —
    this is the defense the paper cites at ~80 % bandwidth overhead. *)

val apply : rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** Parameters: the paper's FT-1-ish setting scaled to short
    HTTPS traces: up to 600/1400 dummies, windows 1-8 s, MTU-sized
    dummies. *)
