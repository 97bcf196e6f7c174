(** The WF-defense taxonomy (the paper's Table 1) as data.

    Every defense the paper's survey table lists is registered with its
    target (Tor / TLS / QUIC), strategy (regularization / obfuscation) and
    traffic manipulations.  Defenses this repository implements carry an
    [apply] function so the taxonomy can be extended with {e measured}
    overhead columns (experiment E3/E8 in DESIGN.md). *)

type target = Tor | Tls | Quic | Tls_and_quic

val target_name : target -> string

type strategy = Regularization | Obfuscation

val strategy_name : strategy -> string

type manipulation = Padding | Timing | Packet_size

val manipulation_name : manipulation -> string

type entry = {
  name : string;
  target : target;
  strategy : strategy;
  manipulations : manipulation list;
  apply : (rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t) option;
      (** Present for defenses implemented in this repository. *)
}

val all : entry list
(** Table 1's rows, plus this repository's Stob trace-level equivalents. *)
