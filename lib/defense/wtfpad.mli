(** WTF-PAD (Juarez et al., 2016), trace-level, simplified.

    Adaptive padding: statistically unusual silences inside a flow leak
    burst boundaries, so the defense fills inter-arrival gaps larger than a
    threshold with dummy packets whose spacing is sampled from a histogram
    of the flow's own typical gaps.  Zero added latency (real packets are
    untouched); moderate bandwidth overhead concentrated where the trace
    had tell-tale silence. *)

type params = {
  gap_threshold : float;  (** Gaps above this get padded, seconds. *)
  max_dummies_per_gap : int;
  dummy_size : int;
}

val apply : ?params:params -> rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** [params] defaults to 50 ms threshold, at most 6 dummies per silence, MTU dummies. *)
