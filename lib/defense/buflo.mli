(** BuFLO (Dyer et al., IEEE S&P 2012), trace-level.

    The canonical regularization defense: both directions transmit fixed-
    size packets at a fixed interval, padding when no real data is queued,
    for at least [tau] seconds and until the real payload has drained.
    Every trace therefore looks like the same constant-rate stream, varying
    only in length — strong protection at extreme bandwidth and latency
    cost, the inefficiency the paper's Section 2.3 criticizes. *)

val apply : Stob_net.Trace.t -> Stob_net.Trace.t
(** Deterministic (no RNG): the output depends only on each direction's
    byte volume and the parameters.  Parameters: 1500 B every
    4 ms (3 Mb/s per direction), tau = 10 s. *)
