(** RTT estimation and retransmission timeout (RFC 6298).

    Maintains the smoothed RTT and RTT variance, yielding the RTO used to
    arm retransmission timers.  Karn's rule (no samples from retransmitted
    data) is the caller's responsibility. *)

type t

val create : Config.t -> t

val observe : t -> float -> unit
(** Feed one RTT sample (seconds). *)

val srtt : t -> float option
(** Smoothed RTT; [None] before the first sample. *)

val rttvar : t -> float option
val rto : t -> float
(** Current retransmission timeout, never below [rto_min]. *)

val backoff : t -> unit
(** Exponential backoff after a timeout (doubles RTO, capped at 60 s). *)

val reset_backoff : t -> unit
(** Clear the backoff multiplier after a successful transmission. *)
