type target = Tor | Tls | Quic | Tls_and_quic

let target_name = function
  | Tor -> "Tor"
  | Tls -> "TLS"
  | Quic -> "QUIC"
  | Tls_and_quic -> "TLS & QUIC"

type strategy = Regularization | Obfuscation

let strategy_name = function Regularization -> "Regul." | Obfuscation -> "Obfus."

type manipulation = Padding | Timing | Packet_size

let manipulation_name = function
  | Padding -> "padding"
  | Timing -> "timing"
  | Packet_size -> "packet size"

type entry = {
  name : string;
  target : target;
  strategy : strategy;
  manipulations : manipulation list;
  apply : (rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t) option;
}

let not_implemented name target strategy manipulations =
  { name; target; strategy; manipulations; apply = None }

let all =
  [
    (* --- Table 1: Tor, regularization --- *)
    {
      name = "ALPaCA";
      target = Tor;
      strategy = Regularization;
      manipulations = [ Padding ];
      apply = Some (fun ~rng:_ trace -> Alpaca.apply trace);
    };
    {
      name = "BuFLO";
      target = Tor;
      strategy = Regularization;
      manipulations = [ Padding; Timing ];
      apply = Some (fun ~rng:_ trace -> Buflo.apply trace);
    };
    {
      name = "RegulaTor";
      target = Tor;
      strategy = Regularization;
      manipulations = [ Padding; Timing ];
      apply = Some (fun ~rng:_ trace -> Regulator.apply trace);
    };
    {
      name = "Tamaraw";
      target = Tor;
      strategy = Regularization;
      manipulations = [ Padding; Timing ];
      apply = Some (fun ~rng:_ trace -> Tamaraw.apply trace);
    };
    {
      name = "Surakav";
      target = Tor;
      strategy = Regularization;
      manipulations = [ Padding; Timing ];
      apply = Some (fun ~rng trace -> Surakav.apply ~rng trace);
    };
    not_implemented "Palette" Tor Regularization [ Padding; Timing ];
    (* --- Table 1: Tor, obfuscation --- *)
    {
      name = "WTF-PAD";
      target = Tor;
      strategy = Obfuscation;
      manipulations = [ Padding; Timing ];
      apply = Some (fun ~rng trace -> Wtfpad.apply ~rng trace);
    };
    {
      name = "FRONT";
      target = Tor;
      strategy = Obfuscation;
      manipulations = [ Padding; Timing ];
      apply = Some (fun ~rng trace -> Front.apply ~rng trace);
    };
    not_implemented "BLANKET" Tor Obfuscation [ Padding; Timing ];
    (* --- Table 1: TLS --- *)
    {
      name = "Morphing";
      target = Tls;
      strategy = Obfuscation;
      manipulations = [ Timing; Packet_size ];
      apply = Some (fun ~rng trace -> Morphing.apply ~rng trace);
    };
    not_implemented "HTTPOS" Tls Obfuscation [ Timing; Packet_size ];
    not_implemented "Burst Defense" Tls Obfuscation [ Timing; Packet_size ];
    {
      name = "Cactus";
      target = Tls;
      strategy = Obfuscation;
      manipulations = [ Timing; Packet_size ];
      apply = Some (fun ~rng trace -> Cactus.apply ~rng trace);
    };
    not_implemented "Adv. FRONT" Tls Obfuscation [ Padding; Timing ];
    (* --- Table 1: QUIC --- *)
    not_implemented "QCSD" Quic Obfuscation [ Padding; Timing; Packet_size ];
    not_implemented "pad-resource" Quic Obfuscation [ Padding; Timing; Packet_size ];
    (* --- Table 1: TLS & QUIC --- *)
    {
      name = "NetShaper";
      target = Tls_and_quic;
      strategy = Obfuscation;
      manipulations = [ Padding; Timing ];
      apply = Some (fun ~rng trace -> Netshaper.apply ~rng trace);
    };
    (* --- This repository: Section 3 / Stob equivalents --- *)
    {
      name = "Stob-split";
      target = Tls;
      strategy = Obfuscation;
      manipulations = [ Packet_size ];
      apply = Some (fun ~rng:_ trace -> Emulate.split trace);
    };
    {
      name = "Stob-delay";
      target = Tls;
      strategy = Obfuscation;
      manipulations = [ Timing ];
      apply = Some (fun ~rng trace -> Emulate.delay ~rng trace);
    };
    {
      name = "Stob-combined";
      target = Tls;
      strategy = Obfuscation;
      manipulations = [ Timing; Packet_size ];
      apply = Some (fun ~rng trace -> Emulate.combined ~rng trace);
    };
  ]
