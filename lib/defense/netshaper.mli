(** NetShaper (Sabzi et al., USENIX Security 2024), trace-level, simplified.

    A differentially-private traffic-shaping middlebox: time is divided into
    windows; in each window the shaper transmits at a rate equal to the
    recent observed demand plus Laplace noise (clamped to a floor), padding
    when demand falls short and queueing when it exceeds the budget.  The
    paper's Section 5.3 uses NetShaper as the contrast to Stob: it offers a
    DP guarantee but interposes a middlebox — a single point of observation
    — whereas Stob keeps the defense in the end host.

    This trace-level model reproduces the shaping behaviour (per-window
    noisy budgets, padding, spill-over queueing) for overhead and accuracy
    comparisons. *)

type params = {
  window : float;  (** Shaping-decision interval, seconds. *)
  noise_scale : float;  (** Laplace scale, bytes per window. *)
  floor_bytes : int;  (** Minimum per-window budget (padding floor). *)
  packet_size : int;
}

val apply : ?params:params -> rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** Shapes the incoming (server-to-client) direction; outgoing packets pass
    through (the client-side shaper is symmetric in the real system).
    [params] defaults to 50 ms windows, 20 KiB noise scale, 8 KiB floor,
    MTU packets. *)
