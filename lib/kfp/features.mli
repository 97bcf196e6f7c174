(** The k-FP feature set (Hayes & Danezis, USENIX Security 2016).

    Extracts a fixed-length vector of traffic-metadata features from a wire
    trace: packet and byte counts, inter-arrival statistics, transmission-
    time percentiles, packet-ordering statistics, outgoing-packet
    concentration over 20-packet chunks, packets-per-second statistics,
    first/last-30 composition, burst statistics, packet-size band counts and
    a CUMUL-style sampled cumulative size curve.

    Every feature is total on degenerate traces (empty, single-packet,
    single-direction): missing statistics default to 0, so defended and
    truncated traces featurize without special cases. *)

val names : string array
(** Feature names, index-aligned with {!extract}'s output. *)

val dimension : int
(** Length of the feature vector ([Array.length names]). *)

val extract : Stob_net.Trace.t -> float array
(** Featurize one trace, reading its lanes directly: no event record is
    materialized.  Bit-identical to the seed featurizer kept in
    test/kfp_reference.ml; the kfp.packed battery is the gate.  The result
    always has {!dimension} entries. *)

val extract_packed : Stob_net.Trace.t -> float array
(** {!extract} under its former name, kept for the benchmark harness; the
    next benchmark refresh deletes it. *)

val chunk_size : int
(** Packets per concentration chunk (20, as in the original attack). *)
