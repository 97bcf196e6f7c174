(** Unit conventions and conversions.

    Throughout the project: time is a [float] in seconds, data sizes are
    [int] bytes, and rates are [float] bits per second.  This module keeps
    the conversions in one place so constants like "100 Gb/s" or "50 us"
    read literally at use sites. *)

val msec : float -> float
(** Milliseconds to seconds. *)

val mbps : float -> float
(** Megabits/s to bits/s. *)

val gbps : float -> float
(** Gigabits/s to bits/s. *)

val tx_time : rate_bps:float -> bytes:int -> float
(** Serialization delay of [bytes] on a link of [rate_bps].
    Raises [Invalid_argument] on a non-positive rate. *)

val to_gbps : bits_per_sec:float -> float
(** Bits/s to Gb/s (for reporting). *)

val throughput_bps : bytes:int -> seconds:float -> float
(** Goodput of [bytes] transferred over [seconds], in bits/s. *)
