(** Congestion-controller interface.

    A congestion controller owns two decisions the paper cares about: the
    congestion window (how much may be in flight) and the pacing rate (how
    transmissions are spread over time).  Stob perturbs packet sequences
    {e downstream} of these decisions and must never exceed them (Section 4.2),
    so the interface exposes both, plus the controller's phase so policies can
    stand down during phases where pacing is load-bearing (Section 5.1
    suggests, e.g., BBR's startup). *)

type phase =
  | Slow_start
  | Congestion_avoidance
  | Recovery  (** Loss recovery (after fast retransmit or RTO). *)
  | Startup  (** BBR: exponential bandwidth probing. *)
  | Drain  (** BBR: draining the startup queue. *)
  | Probe_bw  (** BBR: steady-state gain cycling. *)

val phase_name : phase -> string

type t = {
  name : string;
  on_ack : now:float -> acked:int -> rtt:float -> inflight:int -> limited:bool -> unit;
      (** New data acknowledged: [acked] bytes, with an [rtt] sample and the
          bytes still in flight after the ACK.  [limited] marks an ACK whose
          data was sent while the flow was starved by the peer window or by
          lack of application data (the tcp_rate_check_app_limited rule):
          such ACKs measure the starvation, not the path, and rate-based
          controllers must not let them collapse their bandwidth estimate. *)
  on_loss : now:float -> unit;  (** Fast-retransmit-detected loss. *)
  on_rto : now:float -> unit;  (** Retransmission timeout. *)
  cwnd : unit -> int;  (** Congestion window, bytes. *)
  pacing_rate : unit -> float;
      (** Pacing rate in bits/s; [infinity] means "do not pace". *)
  phase : unit -> phase;
}

type factory = Config.t -> t
(** Controllers are created per-connection from the shared config. *)

val generic_pacing_rate : cwnd:int -> srtt:float option -> phase:phase -> float
(** The Linux rule for loss-based CCAs under fq: rate = factor * cwnd/srtt,
    factor 2 in slow start and 1.2 afterwards; [infinity] before the first
    RTT sample. *)
