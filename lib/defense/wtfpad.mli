(** WTF-PAD (Juarez et al., 2016), trace-level, simplified.

    Adaptive padding: statistically unusual silences inside a flow leak
    burst boundaries, so the defense fills inter-arrival gaps larger than a
    threshold with dummy packets whose spacing is sampled from a histogram
    of the flow's own typical gaps.  Zero added latency (real packets are
    untouched); moderate bandwidth overhead concentrated where the trace
    had tell-tale silence. *)

val apply : rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** Parameters: 50 ms threshold, at most 6 dummies per silence, MTU dummies. *)
