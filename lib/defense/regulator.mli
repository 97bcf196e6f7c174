(** RegulaTor (Holland & Hopper, PETS 2022), trace-level, simplified.

    Regularizes {e download} traffic into "surges": whenever queued incoming
    data exists, it is released at an initial rate [r] that decays
    exponentially with factor [d]; a new surge (rate reset) starts when the
    queue builds past a threshold fraction of recent volume.  Upload packets
    are released at a fixed ratio of download packets.  Shapes every site's
    download into the same decaying-rate envelope while adapting its length
    to the content. *)

val apply : Stob_net.Trace.t -> Stob_net.Trace.t
(** Parameters: 300 packets/s at a surge start, decaying by 0.9 per second;
    a new surge at 60 queued packets; one upload packet per 4 downloads;
    MTU packets. *)
