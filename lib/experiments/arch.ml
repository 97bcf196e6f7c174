(* The stage lists are assembled from live values where possible so the
   rendering tracks the implementation: CCA names come from instantiated
   controllers, hook fields from the Hooks decision record. *)

let cca_names =
  List.map
    (fun (factory : Stob_tcp.Cc.factory) -> (factory Stob_tcp.Config.default).Stob_tcp.Cc.name)
    [ Stob_tcp.Reno.make; Stob_tcp.Cubic.make; Stob_tcp.Bbr.make ]

let hook_decision_fields = [ "tso_bytes"; "packet_payload"; "earliest_departure" ]

let column ~app ~stack =
  let line s = Printf.sprintf "  | %-26s |" s in
  let rule = "  +----------------------------+" in
  List.concat
    [
      [ rule ];
      List.map line app;
      [ rule ^ "  -- user/kernel boundary" ];
      List.map (fun s -> line ("# " ^ s)) stack;
      [ rule ];
    ]

let figure1 () =
  let tls_tcp =
    column
      ~app:[ "application"; "TLS (records in app)" ]
      ~stack:[ "TCP (cwnd, segmentation)"; "pacing / qdisc (fq)"; "TSO split @ NIC"; "NIC I/O" ]
  in
  let ktls_tcp =
    column
      ~app:[ "application" ]
      ~stack:
        [ "kTLS (records in stack)"; "TCP (cwnd, segmentation)"; "pacing / qdisc (fq)";
          "TSO split @ NIC"; "NIC I/O" ]
  in
  let quic_udp =
    column
      ~app:[ "application"; "QUIC (streams, PMTU,"; "  pacing in library)" ]
      ~stack:[ "UDP"; "qdisc / (USO offload)"; "NIC I/O" ]
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 1: the stack model.  '#' marks the shaded in-stack stages whose\n\
     decisions the application cannot control; each '#' stage runs\n\
     asynchronously from the send() syscall.\n\n";
  Buffer.add_string buf "  (a) TLS over TCP\n";
  List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) tls_tcp;
  Buffer.add_string buf "\n  (b) kTLS over TCP\n";
  List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) ktls_tcp;
  Buffer.add_string buf "\n  (c) QUIC over UDP\n";
  List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) quic_udp;
  Buffer.add_string buf
    (Printf.sprintf "\n  congestion controllers available in this stack: %s\n"
       (String.concat ", " cca_names));
  Buffer.contents buf

let figure2 () =
  let policies =
    String.concat "\n"
      (List.map
         (fun (name, p) -> Printf.sprintf "      %-14s %s" name (Format.asprintf "%a" Stob_core.Policy.pp p))
         (Stob_core.Strategies.all_named ()))
  in
  Printf.sprintf
    "Figure 2: the Stob architecture.\n\n\
    \  application / administrator\n\
    \        |  installs policies (histograms, schedules)\n\
    \        v\n\
    \  +--------------------------- shared memory ---------------------------+\n\
    \  |  policy table: global | per-destination | per-flow                  |\n\
    \  +----------------------------------------------------------------------+\n\
    \        |  resolve at flow start -> per-flow controller\n\
    \        v\n\
    \  TCP/QUIC transport --- per-segment decision { %s }\n\
    \        |                      |\n\
    \        |                      v\n\
    \        |              Stob controller (may shrink sizes, delay release)\n\
    \        |                      |\n\
    \        |                      v  clamp: never exceed the CCA's decision\n\
    \        +--> pacing/qdisc --> TSO split --> NIC\n\n\
    \  built-in policies:\n%s\n"
    (String.concat ", " hook_decision_fields)
    policies
