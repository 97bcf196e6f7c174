(** Stob obfuscation policies.

    A policy declares how the stack's three per-segment decisions — packet
    size, TSO size, departure time — are perturbed (Section 4.2).  Policies
    are deliberately compact, declarative data ("relatively compact
    distribution functions like histograms", Section 4.1): they can be
    stored in the shared {!Policy_table} between application and stack and
    instantiated per flow by the {!Controller}.

    Policies only ever {e reduce} sizes and {e delay} departures; the
    controller and the endpoint clamp anything else, so no policy can make
    traffic more aggressive than the congestion controller decided. *)

type size_rule =
  | Default_size  (** Leave the stack's MSS-derived packet size alone. *)
  | Fixed_payload of int  (** Constant payload per packet (clamped to MSS). *)
  | Split_above of int
      (** Halve the payload of packets whose wire size would exceed the
          threshold — the in-stack equivalent of Section 3's packet
          splitting. *)
  | Cycle_reduction of { step : int; max_steps : int }
      (** Figure 3's strategy: reduce payload by [step] bytes per segment,
          reset to the default after [max_steps] reductions. *)
  | Sampled_size of Stob_util.Histogram.t
      (** Draw each segment's packet payload from a histogram. *)

type tso_rule =
  | Default_tso  (** Leave the stack's TSO autosizing decision alone. *)
  | Fixed_tso_packets of int  (** Constant segment size in packets. *)
  | Cycle_tso_reduction of { step : int; max_steps : int }
      (** Figure 3: reduce the segment's packet count by [step] per segment,
          reset after [max_steps] reductions (floor 1 packet). *)
  | Single_packet_tso  (** Disable TSO: one packet per segment. *)

type timing_rule =
  | Default_timing  (** Leave the pacing departure time alone. *)
  | Add_constant of float  (** Delay every segment by a fixed time. *)
  | Add_uniform of float * float  (** Delay by U(lo, hi) seconds. *)
  | Stretch_gap of float * float
      (** Lengthen the gap since the previous release by a uniform random
          fraction — the in-stack equivalent of Section 3's 10-30 %
          inter-arrival delaying is [Stretch_gap (0.1, 0.3)]. *)
  | Sampled_gap of Stob_util.Histogram.t
      (** Draw a minimum inter-departure gap (seconds) from a histogram. *)
  | Pace_at of float
      (** Enforce a constant departure rate (bits/s) by spacing segments at
          [bytes * 8 / rate] — shaping by pure delay.  When the rate sits
          below the CCA's, the wire shows a constant-rate stream regardless
          of the CCA's window dynamics (the Section 5.2 CCA-hiding use
          case); it can never {e exceed} the CCA's own schedule. *)

type t = {
  name : string;
  size : size_rule;
  tso : tso_rule;
  timing : timing_rule;
  exempt_phases : Stob_tcp.Cc.phase list;
      (** CCA phases in which the policy stands down entirely (Section 5.1:
          e.g. BBR's startup, where pacing is load-bearing). *)
}

val unmodified : t
(** The identity policy: stock stack behaviour. *)

val make :
  name:string ->
  ?size:size_rule ->
  ?tso:tso_rule ->
  ?timing:timing_rule ->
  unit ->
  t
(** No exempt phases; {!Strategies.bbr_respecting} sets the field
    directly. *)

val validate : t -> (unit, string) result
(** Static sanity check: positive steps, sane ranges, histogram domains. *)

val pp : Format.formatter -> t -> unit
