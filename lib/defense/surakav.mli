(** Surakav (Gong et al., IEEE S&P 2022), trace-level, simplified.

    Shapes every page load onto a randomly drawn {e reference trace}: a
    burst schedule generated independently of the real content (the
    original uses a GAN trained on real loads; the simplification draws
    plausible burst schedules from parametric distributions).  Real bytes
    are transmitted on the reference schedule — padding when the real load
    is smaller than the reference burst, extending with further reference
    bursts until all real bytes have been carried. *)

type params = {
  burst_packets_mean : float;  (** Mean packets per reference burst. *)
  burst_gap_mean : float;  (** Mean silence between bursts, seconds. *)
  packet_interval : float;  (** In-burst packet spacing, seconds. *)
  packet_size : int;
  upload_every : int;  (** One upload packet per this many downloads. *)
}

val apply : ?params:params -> rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
