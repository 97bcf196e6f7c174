(** Ablations E6 and E7 (DESIGN.md Section 3).

    E6 — {e emulation fidelity}: Section 3 emulates split/delay by editing
    captured traces; Section 4 argues the stack should enforce them.  This
    ablation evaluates k-FP against (a) trace-level emulation and (b) the
    same policy enforced in-stack by Stob during capture, quantifying how
    much the emulation under- or over-states the defense.

    E7 — {e CCA interplay}: Section 5.1 warns that packet-sequence control
    can conflict with CCAs whose pacing is load-bearing (BBR).  This
    ablation runs a delaying policy under Reno/CUBIC/BBR, with and without
    the phase-exemption accommodation, reporting throughput cost and the
    safety audit (a well-behaved policy never trips the clamp). *)

type fidelity_cell = { mean : float; std : float }

type fidelity_result = {
  baseline : fidelity_cell;  (** k-FP accuracy, undefended. *)
  emulated : fidelity_cell;  (** Trace-level split+delay (Section 3). *)
  in_stack : fidelity_cell;  (** Stob-enforced split+delay (Section 4). *)
}

val run_fidelity : ?samples_per_site:int -> ?trees:int -> unit -> fidelity_result
(** Defaults: 40 visits/site, 100 trees; always 5 folds at seed 42. *)

val print_fidelity : fidelity_result -> unit

(** E8b — {e transport comparison}: Section 2.3 argues QUIC inherits the
    same control problems as TCP (stream abstraction, library pacing,
    PMTU-decided datagram sizes) and that USO offload converges its
    segmentation on TLS/TCP's.  This ablation fingerprints the same sites
    over both transports, undefended and with the Stob combined policy
    enforced in-stack. *)

type transport_result = {
  tcp : fidelity_cell;  (** k-FP accuracy, HTTP/1.1-style over TCP. *)
  quic : fidelity_cell;  (** k-FP accuracy, HTTP/3-style over QUIC. *)
  quic_stob : fidelity_cell;  (** QUIC with the Stob combined policy. *)
}

val run_transport : ?samples_per_site:int -> ?trees:int -> unit -> transport_result
(** Defaults: 40 visits/site, 100 trees; always 5 folds at seed 42. *)

val print_transport : transport_result -> unit

type cca_row = {
  cca : string;
  baseline_gbps : float;
  delayed_gbps : float;  (** Under the delaying policy. *)
  exempt_gbps : float;  (** Same policy with phase exemptions. *)
  violations : int;  (** Safety-audit violations under the policy. *)
}

val run_cca : ?quiet:bool -> unit -> cca_row list
val print_cca : cca_row list -> unit
