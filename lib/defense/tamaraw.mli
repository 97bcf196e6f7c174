(** Tamaraw (Cai et al., CCS 2014 — reference [8] in the paper's BuFLO
    row), trace-level.

    The BuFLO family's refinement: per-direction constant intervals
    (downloads faster than uploads), fixed packet sizes, and — the key
    idea — each direction's {e total packet count} padded up to the next
    multiple of L, so trace lengths quantize into buckets and leak only
    log-many bits. *)

type params = {
  packet_size : int;
  interval_out : float;  (** Upload inter-packet interval, seconds. *)
  interval_in : float;  (** Download inter-packet interval, seconds. *)
  pad_multiple : int;  (** L: pad each direction's count to a multiple. *)
}

val apply : ?params:params -> Stob_net.Trace.t -> Stob_net.Trace.t
(** [params] defaults to 1500 B, uploads every 40 ms, downloads every 12 ms, L = 100. *)
