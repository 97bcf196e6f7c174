(** RegulaTor (Holland & Hopper, PETS 2022), trace-level, simplified.

    Regularizes {e download} traffic into "surges": whenever queued incoming
    data exists, it is released at an initial rate [r] that decays
    exponentially with factor [d]; a new surge (rate reset) starts when the
    queue builds past a threshold fraction of recent volume.  Upload packets
    are released at a fixed ratio of download packets.  Shapes every site's
    download into the same decaying-rate envelope while adapting its length
    to the content. *)

type params = {
  initial_rate : float;  (** Packets per second at a surge start. *)
  decay : float;  (** Per-second multiplicative rate decay (0 < d <= 1). *)
  surge_threshold : int;  (** Queued packets that trigger a new surge. *)
  upload_ratio : int;  (** One upload packet per this many downloads. *)
  packet_size : int;
}

val apply : ?params:params -> Stob_net.Trace.t -> Stob_net.Trace.t
