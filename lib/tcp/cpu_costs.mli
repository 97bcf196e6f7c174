(** CPU cost decomposition for the transmit path.

    One TSO segment costs a fixed amount (syscall/stack traversal, qdisc,
    DMA mapping), plus a per-packet amount (NIC descriptor work that TSO
    would otherwise amortize), plus a per-byte amount (copy/checksum).
    Shrinking TSO multiplies the fixed term; shrinking packets multiplies
    the per-packet term — exactly the two axes Figure 3 sweeps. *)

type t = { per_segment : float; per_packet : float; per_byte : float }

val default_server : t
(** Calibrated so a stock sender (MSS 1448, TSO 44 packets) sustains roughly
    40-50 Gb/s on one core, in line with single-connection iperf3 on the
    paper's 100 Gb/s testbed, and so the most aggressive Figure 3 reduction
    stays above ~20 Gb/s. *)

val segment_cost : t -> packets:int -> bytes:int -> float
(** Seconds of core time to push one segment of [packets] packets totalling
    [bytes] payload+header bytes. *)
