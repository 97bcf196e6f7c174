(** Traffic Morphing (Wright, Coull, Monrose — NDSS 2009), trace-level,
    simplified.

    Makes one site's packet-size distribution look like another's: each
    real packet's size is re-mapped to a draw from a {e target} size
    distribution (the original uses a convex-optimized morphing matrix to
    minimize overhead; the simplification re-samples, splitting when the
    drawn size is smaller than the real payload and padding when larger —
    preserving payload bytes while wearing the target's size histogram). *)

val apply : rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** Parameters: a small-packet-heavy target
    (interactive-traffic-like), maximally unlike bulk web download
    sizes. *)
