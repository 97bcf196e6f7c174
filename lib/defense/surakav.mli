(** Surakav (Gong et al., IEEE S&P 2022), trace-level, simplified.

    Shapes every page load onto a randomly drawn {e reference trace}: a
    burst schedule generated independently of the real content (the
    original uses a GAN trained on real loads; the simplification draws
    plausible burst schedules from parametric distributions).  Real bytes
    are transmitted on the reference schedule — padding when the real load
    is smaller than the reference burst, extending with further reference
    bursts until all real bytes have been carried. *)

val apply : rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** Parameters: 30-packet reference bursts on average, 60 ms mean gaps,
    1.5 ms in-burst spacing, MTU packets, one upload packet per 5
    downloads. *)
