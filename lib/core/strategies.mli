(** Ready-made Stob policies.

    These are the concrete obfuscation strategies the paper exercises or
    implies; each is an ordinary {!Policy.t} so they compose with the
    {!Policy_table} and {!Controller} like user-defined ones. *)

val incremental_packet_reduction : alpha:int -> Policy.t
(** Figure 3, packet-size axis: reduce the packet size by [alpha] bytes per
    segment, down to [alpha * 10] below the default, then reset and
    repeat. *)

val incremental_tso_reduction : alpha:int -> Policy.t
(** Figure 3, TSO axis: reduce the TSO size by [alpha/4] packets per
    segment, down to [8 * alpha/4] packets below the default (floor 1),
    then reset and repeat. *)

val incremental_combined : alpha:int -> Policy.t
(** Both Figure 3 axes at once. *)

val stack_split : ?threshold:int -> unit -> Policy.t
(** In-stack equivalent of Section 3's trace-level splitting: packets whose
    wire size would exceed [threshold] (default 1200 B) are halved. *)

val stack_delay : ?lo:float -> ?hi:float -> unit -> Policy.t
(** In-stack equivalent of Section 3's delaying: stretch each departure gap
    by a uniform random 10-30 % (defaults [lo = 0.1], [hi = 0.3]). *)

val stack_combined : ?threshold:int -> ?lo:float -> ?hi:float -> unit -> Policy.t
(** Split and delay together (Section 3's "Combined"). *)

val rate_floor : rate_bps:float -> Policy.t
(** Constant-rate shaping by delay alone ({!Policy.Pace_at}): below the
    CCA's own rate the wire shows a constant-rate stream — hiding CCA
    identity (Section 5.2) at the cost of capping throughput. *)

val bbr_respecting : Policy.t -> Policy.t
(** Wrap any policy so it stands down during BBR's startup and drain (the
    Section 5.1 co-design accommodation). *)

val all_named : unit -> (string * Policy.t) list
(** The fixed (non-parameterized-by-histogram) strategies, for CLIs and
    sweeps. *)
