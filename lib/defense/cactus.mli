(** Cactus (Xie et al., IEEE TIFS 2024), trace-level, simplified.

    Client-side bidirectional obfuscation of encrypted TCP traffic: packets
    are gathered into fixed time windows; within a window they are re-
    emitted at the window boundary as uniform-size packets in a randomly
    shuffled direction order, erasing fine-grained timing, size and
    ordering features while preserving per-window volume. *)

val apply : rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** Parameters: 25 ms windows, 1200 B cells. *)
