(* Tests for stob_quic: frames, handshake, stream transfer, loss recovery,
   Stob hooks on the QUIC datagram path. *)

module Engine = Stob_sim.Engine
module Netem = Stob_sim.Netem
module Units = Stob_util.Units
module Rng = Stob_util.Rng
module Packet = Stob_net.Packet
module Trace = Stob_net.Trace
module Capture = Stob_net.Capture
module Path = Stob_tcp.Path
module Config = Stob_tcp.Config
module Hooks = Stob_tcp.Hooks
module Monitor = Stob_check.Monitor
module Soak = Stob_check.Soak
open Stob_quic

(* The events of a trace, to iterate over in checks. *)
let events = Trace_reference.of_lanes

(* --- Frame --- *)

let test_frame_sizes () =
  Alcotest.(check int) "stream frame" (8 + 1000)
    (Frame.wire_bytes (Frame.Stream { stream = 4; offset = 0; length = 1000; fin = false }));
  Alcotest.(check int) "ack 2 ranges" 16 (Frame.wire_bytes (Frame.Ack { ranges = [ (5, 9); (0, 2) ] }));
  Alcotest.(check int) "padding" 100 (Frame.wire_bytes (Frame.Padding 100));
  Alcotest.(check int) "ping" 1 (Frame.wire_bytes Frame.Ping)

let test_frame_ack_eliciting () =
  Alcotest.(check bool) "ack is not" false (Frame.is_ack_eliciting (Frame.Ack { ranges = [] }));
  Alcotest.(check bool) "stream is" true
    (Frame.is_ack_eliciting (Frame.Stream { stream = 4; offset = 0; length = 1; fin = false }));
  Alcotest.(check bool) "padding is" true (Frame.is_ack_eliciting (Frame.Padding 10))

(* --- connection world --- *)

type world = {
  engine : Engine.t;
  path : Path.t;
  conn : Connection.t;
  client_rx : (int, int) Hashtbl.t;  (* stream -> bytes delivered at client *)
  server_rx : (int, int) Hashtbl.t;
  client_fins : int ref;
  server_fins : int ref;
}

let make_world ?(rate_bps = Units.mbps 100.0) ?(delay = 0.01) ?queue_capacity ?client_netem
    ?server_netem ?cc ?server_hooks ?(flight_bytes = 3500) () =
  let engine = Engine.create () in
  let path = Path.create ~engine ~rate_bps ~delay ?queue_capacity ?client_netem ?server_netem () in
  let conn = Connection.create ~engine ~path ~flow:1 ?cc ?server_hooks ~flight_bytes () in
  let client_rx = Hashtbl.create 8 and server_rx = Hashtbl.create 8 in
  let client_fins = ref 0 and server_fins = ref 0 in
  let count tbl ~stream n =
    Hashtbl.replace tbl stream (n + Option.value ~default:0 (Hashtbl.find_opt tbl stream))
  in
  Endpoint.set_on_stream (Connection.client conn) (fun ~stream n -> count client_rx ~stream n);
  Endpoint.set_on_stream (Connection.server conn) (fun ~stream n -> count server_rx ~stream n);
  Endpoint.set_on_stream_fin (Connection.client conn) (fun ~stream:_ -> incr client_fins);
  Endpoint.set_on_stream_fin (Connection.server conn) (fun ~stream:_ -> incr server_fins);
  { engine; path; conn; client_rx; server_rx; client_fins; server_fins }

let got tbl stream = Option.value ~default:0 (Hashtbl.find_opt tbl stream)

let test_handshake () =
  let w = make_world () in
  Connection.open_ w.conn;
  Engine.run ~until:2.0 w.engine;
  Alcotest.(check bool) "client established" true (Endpoint.established (Connection.client w.conn));
  Alcotest.(check bool) "server established" true (Endpoint.established (Connection.server w.conn))

let test_initial_padded () =
  let w = make_world () in
  Connection.open_ w.conn;
  Engine.run ~until:2.0 w.engine;
  let trace = Capture.trace (Path.capture w.path) in
  (* First client datagram is padded to >= 1200 B payload. *)
  Alcotest.(check bool) "initial padded" true (Trace.size trace 0 >= 1200)

let test_stream_transfer () =
  let w = make_world () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.client w.conn) ~stream:4 ~fin:true 500);
  Endpoint.set_on_stream_fin (Connection.server w.conn) (fun ~stream ->
      incr w.server_fins;
      if stream = 4 then Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 300_000);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  Alcotest.(check int) "server got request" 500 (got w.server_rx 4);
  Alcotest.(check int) "client got response" 300_000 (got w.client_rx 4);
  Alcotest.(check int) "client saw fin" 1 !(w.client_fins)

let test_multiplexed_streams () =
  let w = make_world () in
  let streams = [ 4; 8; 12; 16 ] in
  Connection.on_established w.conn (fun () ->
      List.iter
        (fun s -> Endpoint.send_stream (Connection.server w.conn) ~stream:s ~fin:true (50_000 + s))
        streams);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  List.iter
    (fun s -> Alcotest.(check int) (Printf.sprintf "stream %d complete" s) (50_000 + s) (got w.client_rx s))
    streams;
  Alcotest.(check int) "all fins" (List.length streams) !(w.client_fins)

let test_loss_recovery () =
  let w = make_world ~rate_bps:(Units.mbps 20.0) ~delay:0.02 ~queue_capacity:20_000 () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 1_000_000);
  Connection.open_ w.conn;
  Engine.run ~until:60.0 w.engine;
  Alcotest.(check int) "all bytes despite drops" 1_000_000 (got w.client_rx 4);
  Alcotest.(check bool) "drops happened" true (Path.drops w.path > 0);
  Alcotest.(check bool) "chunks were retransmitted" true
    (Endpoint.retransmitted_chunks (Connection.server w.conn) > 0)

let cca_cases = [ ("reno", Stob_tcp.Reno.make); ("cubic", Stob_tcp.Cubic.make); ("bbr", Stob_tcp.Bbr.make) ]

let test_all_ccas () =
  List.iter
    (fun (name, cc) ->
      let w = make_world ~cc () in
      Connection.on_established w.conn (fun () ->
          Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 400_000);
      Connection.open_ w.conn;
      Engine.run ~until:30.0 w.engine;
      Alcotest.(check int) (name ^ " delivers") 400_000 (got w.client_rx 4))
    cca_cases

let test_datagrams_respect_mtu () =
  let w = make_world () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 200_000);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  let trace = Capture.trace (Path.capture w.path) in
  Array.iter
    (fun e -> Alcotest.(check bool) "within datagram budget" true (e.Trace.size <= 1350 + 43))
    (events trace)

let test_hook_shrinks_datagrams () =
  let hook =
    {
      Hooks.on_segment =
        (fun ~now:_ ~flow:_ ~phase:_ d -> { d with Hooks.packet_payload = 600 });
    }
  in
  let baseline = make_world () in
  Connection.on_established baseline.conn (fun () ->
      Endpoint.send_stream (Connection.server baseline.conn) ~stream:4 ~fin:true 200_000);
  Connection.open_ baseline.conn;
  Engine.run ~until:30.0 baseline.engine;
  let hooked = make_world ~server_hooks:hook () in
  Connection.on_established hooked.conn (fun () ->
      Endpoint.send_stream (Connection.server hooked.conn) ~stream:4 ~fin:true 200_000);
  Connection.open_ hooked.conn;
  Engine.run ~until:30.0 hooked.engine;
  Alcotest.(check int) "hooked still delivers" 200_000 (got hooked.client_rx 4);
  let count w =
    Array.length (Trace.times ~dir:Packet.Incoming (Capture.trace (Path.capture w.path)))
  in
  Alcotest.(check bool) "more, smaller datagrams" true (count hooked > count baseline);
  let max_in w =
    Array.fold_left
      (fun acc e -> if e.Trace.dir = Packet.Incoming then max acc e.Trace.size else acc)
      0
      (events (Capture.trace (Path.capture w.path)))
  in
  Alcotest.(check bool) "datagram size capped" true (max_in hooked <= 600 + 43)

let test_padding_datagram () =
  let w = make_world () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_padding_datagram (Connection.server w.conn) 900;
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 10_000);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  Alcotest.(check int) "only real bytes delivered" 10_000 (got w.client_rx 4);
  let trace = Capture.trace (Path.capture w.path) in
  Alcotest.(check bool) "padding visible on wire" true
    (Array.exists (fun e -> e.Trace.dir = Packet.Incoming && e.Trace.size = 900 + 43) (events trace))

let test_flight_bytes_visible () =
  (* Bigger handshake flights produce more early incoming bytes — the
     site-characteristic signal. *)
  let flight_bytes flight =
    let engine = Engine.create () in
    let path = Path.create ~engine ~rate_bps:(Units.mbps 100.0) ~delay:0.01 () in
    let conn = Connection.create ~engine ~path ~flow:1 ~flight_bytes:flight () in
    Connection.open_ conn;
    Engine.run ~until:2.0 engine;
    Trace.bytes ~dir:Packet.Incoming (Capture.trace (Path.capture path))
  in
  Alcotest.(check bool) "bigger flight, more bytes" true (flight_bytes 5000 > flight_bytes 2500)

(* --- Robustness regressions (each failed on the pre-hardening endpoint) --- *)

(* RFC 9000 §10.1: a connection nobody talks on must close itself by the
   idle timeout and quiesce every timer — the engine ends up empty, like
   TCP's close-time quiesce.  Pre-fix there was no idle timeout: both
   endpoints sat open forever. *)
let test_idle_timeout_close_quiesce () =
  let w = make_world () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.client w.conn) ~stream:4 ~fin:true 2_000);
  Connection.open_ w.conn;
  Engine.run ~until:200.0 w.engine;
  let client = Connection.client w.conn and server = Connection.server w.conn in
  Alcotest.(check bool) "client closed" true (Endpoint.closed client);
  Alcotest.(check bool) "server closed" true (Endpoint.closed server);
  Alcotest.(check (option string)) "client reason" (Some "idle-timeout")
    (Endpoint.close_reason client);
  Alcotest.(check (option string)) "server reason" (Some "idle-timeout")
    (Endpoint.close_reason server);
  Alcotest.(check int) "every timer quiesced" 0 (Engine.pending w.engine)

(* RFC 9000 §8.1: every client datagram after the Initial vanishes, so the
   unconfirmed server's budget is 3x one Initial.  Pre-fix it blasted the
   whole 20 KB handshake flight into the void. *)
let test_amplification_cap () =
  let drop_all_after_initial =
    Netem.spec
      { Netem.default with Netem.drop_list = List.init 200 (fun i -> i + 2); seed = 1 }
  in
  let w = make_world ~server_netem:drop_all_after_initial ~flight_bytes:20_000 () in
  Connection.open_ w.conn;
  Engine.run ~until:20.0 w.engine;
  let insp = Endpoint.inspect (Connection.server w.conn) in
  Alcotest.(check bool) "server stayed unconfirmed" false insp.Endpoint.established;
  Alcotest.(check bool) "sent at most 3x received" true
    (insp.Endpoint.bytes_sent <= 3 * insp.Endpoint.bytes_received);
  Alcotest.(check bool) "credit never negative" true (insp.Endpoint.amp_credit >= 0);
  Alcotest.(check bool) "flight withheld" true (insp.Endpoint.bytes_sent < 20_000)

(* RFC 9002 §6.2.2.1: the client's post-Initial datagrams are lost while
   the server is amp-blocked mid-flight — with nothing ack-eliciting in
   flight on either side, only the client's anti-deadlock probe can
   re-credit the server.  Pre-fix both sides idled out and the handshake
   never completed. *)
let test_amplification_unblock_no_deadlock () =
  let lose_client_ack_flight =
    Netem.spec { Netem.default with Netem.drop_list = [ 2; 3 ]; seed = 2 }
  in
  let w = make_world ~server_netem:lose_client_ack_flight ~flight_bytes:8_000 () in
  Connection.open_ w.conn;
  Engine.run ~until:15.0 w.engine;
  Alcotest.(check bool) "client established" true (Endpoint.established (Connection.client w.conn));
  Alcotest.(check bool) "server established" true (Endpoint.established (Connection.server w.conn));
  Alcotest.(check bool) "anti-deadlock probe fired" true
    (Endpoint.pto_events (Connection.client w.conn) > 0)

(* RFC 9002 §6.1.2: lose one mid-response datagram with fewer than 3
   packets sent after it — the packet threshold can never fire, so only
   the 9/8-RTT time threshold can declare the loss.  Pre-fix the transfer
   wedged until the (much later, backed-off) PTO rescued it. *)
let test_time_threshold_loss () =
  let big p = Packet.wire_size p >= 1200 in
  let lose_third_data_packet =
    Netem.spec ~drop_filter:big { Netem.default with Netem.drop_list = [ 3 ]; seed = 3 }
  in
  (* Flight of 900 B stays under the drop filter, so the filtered ordinals
     count exactly the full-size response datagrams. *)
  let w = make_world ~client_netem:lose_third_data_packet ~flight_bytes:900 () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.client w.conn) ~stream:4 ~fin:true 400);
  Endpoint.set_on_stream_fin (Connection.server w.conn) (fun ~stream ->
      incr w.server_fins;
      if stream = 4 then Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 5_400);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  let server = Connection.server w.conn in
  Alcotest.(check int) "full response despite the loss" 5_400 (got w.client_rx 4);
  Alcotest.(check bool) "time threshold declared it" true
    (Endpoint.time_loss_detections server > 0);
  Alcotest.(check int) "the PTO never had to" 0 (Endpoint.pto_events server)

(* RFC 9002 §7.6 + §7.5: a mid-transfer datagram blackhole longer than
   3 PTOs must be declared persistent congestion (collapsing cwnd) once
   acks resume — and the flow must still complete.  This pins two pre-fix
   gaps: the declaration did not exist, and a window-gated PTO could not
   force a probe out while inflight sat above the collapsed cwnd, so the
   idle timeout reaped the connection mid-recovery (completed = false). *)
let test_persistent_congestion_blackhole () =
  let spec =
    {
      Soak.seed = 11;
      transport = Soak.Quic;
      cca = "reno";
      request = 400;
      response = 150_000;
      delay = 0.02;
      loss = 0.0;
      client = Config.default;
      server = Config.default;
      slow_reader = false;
      read_chunk = 2_048;
      read_interval = 0.02;
      read_stall = 0.0;
      pacer_jump = None;
      flight = 3_000;
      blackhole = Some (0.1, 1.5);
      horizon = 120.0;
    }
  in
  let r, violations = Soak.run_flow spec in
  Alcotest.(check bool) "flow completes" true r.Soak.completed;
  Alcotest.(check bool) "persistent congestion declared" true (r.Soak.persistent_congestions > 0);
  Alcotest.(check (list (pair string int))) "no invariant violations" [] violations

(* BBR delivery-rate taint: acks of packets sent under starvation must
   reach the CCA flagged [limited], or their samples poison the pacing
   rate.  Two full-soak wedges pin this (both exact population specs,
   incomplete pre-fix):
   - the handshake tail is amplification- and app-limited, and its tiny
     RTT-spaced packets read as a few kbit/s — the response flight then
     paces out slower than the idle timeout (the amp/app-limited taint);
   - a PTO retransmission squeezed through the window a loss declaration
     reopened is acked across the stall and reads as a few hundred bit/s —
     the recovery burst is then committed with ~60 s of pacing debt and
     the idle timeout reaps the connection (the PTO-trickle taint). *)
let test_bbr_starvation_rate_taint () =
  let base =
    {
      Soak.seed = 0;
      transport = Soak.Quic;
      cca = "bbr";
      request = 0;
      response = 0;
      delay = 0.0;
      loss = 0.0;
      client = Config.default;
      server = Config.default;
      slow_reader = false;
      read_chunk = 2_048;
      read_interval = 0.02;
      read_stall = 0.0;
      pacer_jump = None;
      flight = 0;
      blackhole = None;
      horizon = 120.0;
    }
  in
  (* Amp-limited handshake under i.i.d. loss (full-soak shard 16). *)
  let handshake_wedge =
    {
      base with
      Soak.seed = 516142921;
      request = 199;
      response = 21_111;
      delay = 0.035329522343922101;
      loss = 0.014758205564616199;
      flight = 4_595;
    }
  in
  (* PTO trickle after a mid-response blackhole (full-soak shard 63). *)
  let pto_trickle_wedge =
    {
      base with
      Soak.seed = 102035986;
      request = 1_343;
      response = 28_662;
      delay = 0.034306948908030696;
      flight = 4_139;
      blackhole = Some (0.42995924854368101, 0.13384523613234955);
    }
  in
  List.iter
    (fun (name, spec) ->
      let r, violations = Soak.run_flow spec in
      Alcotest.(check bool) (name ^ " completes") true r.Soak.completed;
      Alcotest.(check (list (pair string int))) (name ^ " violation-free") [] violations)
    [ ("handshake wedge", handshake_wedge); ("pto trickle wedge", pto_trickle_wedge) ]

(* The QUIC rtx oracle: on a drop-free (netem-only loss) drained run the
   endpoints' rtx_datagrams counters and the capture's rtx marks must
   agree — the capture taps upstream of the impairment, so netem loss does
   not desynchronize them. *)
let test_rtx_oracle_agreement () =
  let lossy = Netem.spec { Netem.default with Netem.loss = Netem.Iid 0.03; seed = 9 } in
  let w = make_world ~queue_capacity:10_000_000 ~client_netem:lossy () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 400_000);
  Connection.open_ w.conn;
  Engine.run ~until:120.0 w.engine;
  Alcotest.(check int) "full delivery" 400_000 (got w.client_rx 4);
  Alcotest.(check int) "no queue drops" 0 (Path.drops w.path);
  Alcotest.(check bool) "capture saw retransmissions" true
    (Capture.rtx_count (Path.capture w.path) > 0);
  let monitor = Monitor.create w.engine in
  Monitor.check_rtx_oracle monitor ~capture:(Path.capture w.path)
    ~retransmissions:
      (Endpoint.rtx_datagrams (Connection.client w.conn)
      + Endpoint.rtx_datagrams (Connection.server w.conn))
    ~drops:(Path.drops w.path) ~drained:true;
  Alcotest.(check int) "oracle agrees" 0 (List.length (Monitor.violations monitor))

(* The shared frame table holds one entry per datagram the receiver has
   yet to read.  An ACK-only datagram is never acknowledged, so the
   receiver must drop its entry once processed; pre-fix every client ACK
   of the response stayed behind (751 entries on this transfer). *)
let test_wire_table_drains () =
  let engine = Engine.create () in
  let wire = Endpoint.create_wire 64 in
  let tx dst pkts =
    Array.iter
      (fun p ->
        Engine.schedule engine ~delay:0.01 (fun () ->
            Option.iter (fun e -> Endpoint.receive e p) !dst))
      pkts
  in
  let client_ref = ref None and server_ref = ref None in
  let make dir dst =
    Endpoint.create ~engine ~cc:(Stob_tcp.Cubic.make Endpoint.default_config) ~flow:1 ~dir ~wire
      ~tx:(tx dst) ()
  in
  let client = make Packet.Outgoing server_ref and server = make Packet.Incoming client_ref in
  client_ref := Some client;
  server_ref := Some server;
  let received = ref 0 in
  Endpoint.set_on_stream client (fun ~stream:_ n -> received := !received + n);
  Endpoint.set_on_established client (fun () ->
      Endpoint.send_stream client ~stream:4 ~fin:true 400);
  Endpoint.set_on_stream_fin server (fun ~stream:_ ->
      Endpoint.send_stream server ~stream:4 ~fin:true 2_000_000);
  Endpoint.listen server ~flight_bytes:3_000;
  Endpoint.connect client;
  Engine.run ~until:10.0 engine;
  Alcotest.(check int) "response delivered" 2_000_000 !received;
  Alcotest.(check bool) "both ends still open" false
    (Endpoint.closed client || Endpoint.closed server);
  Alcotest.(check int) "no frame entry left behind" 0 (Endpoint.wire_length wire)

(* A client-server pair wired by hand, 10 ms each way, that loses every
   datagram sent at or after [cut].  The client asks for [response] bytes
   once the handshake completes.  [last_rx] is the time of the latest
   delivery; [server_ptos] lists the times of the server's PTO firings,
   newest first. *)
type hand_pair = {
  hp_engine : Engine.t;
  hp_client : Endpoint.t;
  hp_server : Endpoint.t;
  last_rx : float ref;
  server_ptos : float list ref;
}

let hand_pair ?(cut = infinity) ~response () =
  let engine = Engine.create () in
  let wire = Endpoint.create_wire 64 in
  let last_rx = ref 0.0 and server_ptos = ref [] and counted = ref 0 in
  let client_ref = ref None and server_ref = ref None in
  let tx ~server dst pkts =
    (match !server_ref with
    | Some s when server && Endpoint.pto_events s > !counted ->
        counted := Endpoint.pto_events s;
        server_ptos := Engine.now engine :: !server_ptos
    | _ -> ());
    if Engine.now engine < cut then
      Array.iter
        (fun p ->
          Engine.schedule engine ~delay:0.01 (fun () ->
              last_rx := Engine.now engine;
              Option.iter (fun e -> Endpoint.receive e p) !dst))
        pkts
  in
  let make dir ~server dst =
    Endpoint.create ~engine ~cc:(Stob_tcp.Cubic.make Endpoint.default_config) ~flow:1 ~dir ~wire
      ~tx:(tx ~server dst) ()
  in
  let client = make Packet.Outgoing ~server:false server_ref in
  let server = make Packet.Incoming ~server:true client_ref in
  client_ref := Some client;
  server_ref := Some server;
  Endpoint.set_on_established client (fun () ->
      Endpoint.send_stream client ~stream:4 ~fin:true 400);
  Endpoint.set_on_stream_fin server (fun ~stream:_ ->
      Endpoint.send_stream server ~stream:4 ~fin:true response);
  Endpoint.listen server ~flight_bytes:3_000;
  Endpoint.connect client;
  { hp_engine = engine; hp_client = client; hp_server = server; last_rx; server_ptos }

(* RFC 9002 §6.2: the PTO backoff doubles per firing and is capped at 10 s.
   The path goes dark mid-response, so nothing resets the backoff: the
   gaps between the server's probes grow, then reach exactly 10 s before
   the idle timeout closes the connection. *)
let test_pto_backoff_cap () =
  let p = hand_pair ~cut:0.12 ~response:2_000_000 () in
  Engine.run ~until:60.0 p.hp_engine;
  let rec gaps = function a :: (b :: _ as rest) -> (a -. b) :: gaps rest | _ -> [] in
  let gaps = List.rev (gaps !(p.server_ptos)) in
  let rec grows = function a :: (b :: _ as rest) -> a <= b +. 1e-6 && grows rest | _ -> true in
  Alcotest.(check bool) "several probes" true (List.length gaps >= 5);
  Alcotest.(check bool) "gaps never shrink" true (grows gaps);
  Alcotest.(check (float 1e-6)) "the longest gap is the cap" 10.0
    (List.fold_left Float.max 0.0 gaps)

(* RFC 9000 §10.1: once the transfer is done nobody sends, and each end
   closes 30 s after its last activity.  The last delivery is the latest
   activity of either end, so one end is open just before that instant
   plus 30 s and both are closed just after it. *)
let test_idle_close_after_30s () =
  let p = hand_pair ~response:200_000 () in
  Engine.run ~until:10.0 p.hp_engine;
  let last = !(p.last_rx) in
  let both_closed () = Endpoint.closed p.hp_client && Endpoint.closed p.hp_server in
  Engine.run ~until:(last +. 30.0 -. 1e-6) p.hp_engine;
  Alcotest.(check bool) "an end is open just before the deadline" false (both_closed ());
  Engine.run ~until:(last +. 30.0 +. 1e-6) p.hp_engine;
  Alcotest.(check bool) "both closed just after it" true (both_closed ());
  Alcotest.(check (float 0.0)) "nothing delivered after the transfer" last !(p.last_rx);
  Alcotest.(check (option string)) "closed by the idle timeout" (Some "idle-timeout")
    (Endpoint.close_reason p.hp_server)

(* The mixed TCP+QUIC smoke battery is jobs-invariant, shard for shard. *)
let test_mixed_soak_jobs_parity () =
  let config = { Soak.smoke_config with Soak.transport = `Mixed } in
  let seq = Soak.run config in
  let par = Stob_par.Pool.with_pool ~domains:4 (fun pool -> Soak.run ~pool config) in
  Alcotest.(check bool) "mixed soak identical under --jobs 1 and --jobs 4" true
    (seq.Soak.reports = par.Soak.reports)

let prop_quic_delivery_integrity =
  QCheck.Test.make ~name:"quic delivers exactly the stream bytes under any loss" ~count:20
    QCheck.(
      quad (int_range 15_000 120_000) (int_range 10_000 300_000) (int_range 5 80) (int_range 1 40))
    (fun (queue_capacity, response, rate, delay_ms) ->
      let w =
        make_world
          ~rate_bps:(Units.mbps (float_of_int rate))
          ~delay:(float_of_int delay_ms *. 1e-3)
          ~queue_capacity ()
      in
      Connection.on_established w.conn (fun () ->
          Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true response);
      Connection.open_ w.conn;
      Engine.run ~until:90.0 w.engine;
      got w.client_rx 4 = response)

(* Netem variant of the delivery-integrity property: i.i.d. loss is the
   easy case — reordering (held frames) and duplication exercise the
   packet-threshold and time-threshold detectors against false positives
   (spurious retransmissions must not corrupt the stream) as well as
   misses. *)
let prop_quic_delivery_under_netem =
  QCheck.Test.make
    ~name:"quic delivers exactly the stream bytes under netem reorder + duplication" ~count:20
    QCheck.(
      pair
        (quad (int_range 10_000 200_000) (int_range 0 15) (int_range 0 15) (int_range 0 5))
        (pair small_nat small_nat))
    (fun ((response, reorder_pct, dup_pct, loss_pct), (seed_a, seed_b)) ->
      let impair seed =
        Netem.spec
          {
            Netem.default with
            Netem.loss = (if loss_pct = 0 then Netem.No_loss else Netem.Iid (float_of_int loss_pct /. 100.0));
            reorder_prob = float_of_int reorder_pct /. 100.0;
            reorder_depth = 3;
            reorder_hold = 0.05;
            duplicate_prob = float_of_int dup_pct /. 100.0;
            seed;
          }
      in
      let w =
        make_world ~queue_capacity:10_000_000
          ~client_netem:(impair (1 + seed_a))
          ~server_netem:(impair (1_000_003 + seed_b))
          ()
      in
      Connection.on_established w.conn (fun () ->
          Endpoint.send_stream (Connection.client w.conn) ~stream:4 ~fin:true 600);
      Endpoint.set_on_stream_fin (Connection.server w.conn) (fun ~stream ->
          incr w.server_fins;
          if stream = 4 then
            Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true response);
      Connection.open_ w.conn;
      Engine.run ~until:90.0 w.engine;
      got w.server_rx 4 = 600 && got w.client_rx 4 = response)

(* --- Loss detection: the hole index against the scan --- *)

(* One step of a sender's life, as the loss detector sees it. *)
type loss_op =
  | Send of int * int  (* count; every [k]th is not ack-eliciting (0: all are) *)
  | Ack of (int * int) list  (* ranges: (depth below the newest number, length) *)
  | Slide of int * int * int
      (* count, lag, k: each send acks the packet [lag] below it unless its
         number is a multiple of [k], which stays behind as a hole *)
  | Advance of float
  | Detect of float option  (* time threshold; [None] before an RTT sample *)

let pp_loss_op = function
  | Send (n, k) -> Printf.sprintf "send %d/%d" n k
  | Ack ranges ->
      "ack " ^ String.concat "," (List.map (fun (d, l) -> Printf.sprintf "%d+%d" d l) ranges)
  | Slide (n, lag, k) -> Printf.sprintf "slide %d-%d/%d" n lag k
  | Advance dt -> Printf.sprintf "advance %h" dt
  | Detect None -> "detect"
  | Detect (Some th) -> Printf.sprintf "detect %h" th

(* A schedule opens with 0, 600 or 1,200 packets outstanding, so the
   bucket count of the declaration order doubles once or twice.  [Sent]'s
   ring starts at 64 slots: a slide keeps a window of up to 200 packets
   moving across thousands of numbers, so slots are reused many times
   over, and the holes it leaves behind stretch the outstanding span
   until the ring must grow to hold them. *)
let arb_loss_schedule =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun n k -> Send (n, k)) (int_range 1 300) (int_range 0 4));
          ( 4,
            map
              (fun ranges -> Ack ranges)
              (list_size (int_range 1 3) (pair (int_range 0 2_000) (int_range 0 40))) );
          ( 2,
            map3
              (fun n lag k -> Slide (n, lag, k))
              (int_range 100 1_500) (int_range 1 200) (int_range 2 60) );
          (2, map (fun dt -> Advance dt) (float_range 0.0 0.2));
          (4, map (fun th -> Detect th) (opt (float_range 0.001 0.3)));
        ])
  in
  QCheck.make
    ~print:(fun (prefill, ops) ->
      Printf.sprintf "prefill %d: %s" prefill (String.concat "; " (List.map pp_loss_op ops)))
    QCheck.Gen.(pair (oneofl [ 0; 600; 1_200 ]) (list_size (int_range 1 60) op))

(* Operate a [Sent.t] and the scan's [Hashtbl.create 256] identically, as
   the endpoint does: the check runs only when something outstanding lies
   below the largest acknowledgement, and the declared packets then leave
   both tables.  The reference table is unseeded, like [Sent]'s rule, so
   [OCAMLRUNPARAM=R] does not reorder its scan.  Every check must declare
   the same packets in the same order, with the same timer deadline bits
   and the same count of time-threshold losses.  After every step,
   [Sent] must hold exactly the reference's packets ([find_opt] on each
   acked number, [fold] over all), [lowest] must be the lowest of them,
   and no hole may be unindexed. *)
let loss_schedule_agrees (prefill, ops) =
  let sent = Sent.create () and reference = Hashtbl.create ~random:false 256 in
  let pn_next = ref 0 and largest_acked = ref (-1) and clock = ref 0.0 and agrees = ref true in
  let send ~ack_eliciting =
    let p = { Sent.pn = !pn_next; payload = 1_200; frames = []; sent_at = !clock } in
    incr pn_next;
    if ack_eliciting then begin
      Sent.add sent p;
      Hashtbl.replace reference p.Sent.pn p
    end
  in
  let ack pn =
    let held = Sent.find_opt sent pn in
    if Option.is_some held <> Hashtbl.mem reference pn then agrees := false;
    if Option.is_some held then begin
      Sent.remove sent pn;
      Hashtbl.remove reference pn;
      largest_acked := max !largest_acked pn
    end
  in
  for _ = 1 to prefill do
    send ~ack_eliciting:true;
    clock := !clock +. 1e-4
  done;
  let step = function
    | Send (n, k) -> for i = 1 to n do send ~ack_eliciting:(k = 0 || i mod k <> 0) done
    | Ack ranges ->
        List.iter
          (fun (depth, length) ->
            let hi = !pn_next - 1 - depth in
            for pn = max 0 (hi - length) to hi do ack pn done)
          ranges
    | Slide (n, lag, k) ->
        for _ = 1 to n do
          send ~ack_eliciting:true;
          let pn = !pn_next - 1 - lag in
          if pn >= 0 && pn mod k <> 0 then ack pn
        done
    | Advance dt -> clock := !clock +. dt
    | Detect threshold ->
        let ((lost, _, _) as expected) =
          Quic_reference.detect_losses reference ~largest_acked:!largest_acked ~threshold
            ~now:!clock
        in
        let got =
          if !largest_acked >= 0 && Sent.lowest sent ~pn_next:!pn_next < !largest_acked then
            Sent.detect_losses sent ~largest_acked:!largest_acked ~packet_threshold:3
              ~time_threshold:threshold ~now:!clock
          else ([], infinity, 0)
        in
        let key (lost, next_fire, time_losses) =
          (List.map (fun p -> p.Sent.pn) lost, Int64.bits_of_float next_fire, time_losses)
        in
        List.iter
          (fun p ->
            Sent.remove sent p.Sent.pn;
            Hashtbl.remove reference p.Sent.pn)
          lost;
        if key got <> key expected then agrees := false
  in
  let holds_the_reference () =
    let outstanding = List.sort Int.compare (Hashtbl.fold (fun pn _ acc -> pn :: acc) reference []) in
    let held = List.sort Int.compare (Sent.fold (fun p acc -> p.Sent.pn :: acc) sent []) in
    held = outstanding
    && Sent.lowest sent ~pn_next:!pn_next = (match outstanding with [] -> !pn_next | pn :: _ -> pn)
    && Sent.unindexed sent = []
  in
  List.iter
    (fun op ->
      step op;
      if not (holds_the_reference ()) then agrees := false)
    ops;
  !agrees

let prop_hole_index_matches_scan =
  QCheck.Test.make ~name:"hole index declares what the scan declared, in its order" ~count:300
    arb_loss_schedule loss_schedule_agrees

(* The monitor's quic-sender-index check over a lossy, reordering,
   duplicating transfer: every hook decision, and a sweep each simulated
   millisecond, re-derives the holes below the index edge and finds none
   missing.  The sweep catches a hole that a late ACK covers before the
   sender's next decision. *)
let test_sender_index_monitored () =
  let impair seed =
    Netem.spec
      {
        Netem.default with
        Netem.loss = Netem.Iid 0.03;
        reorder_prob = 0.05;
        reorder_depth = 3;
        reorder_hold = 0.05;
        duplicate_prob = 0.02;
        seed;
      }
  in
  let w =
    make_world ~queue_capacity:10_000_000 ~client_netem:(impair 21) ~server_netem:(impair 22) ()
  in
  let client = Connection.client w.conn and server = Connection.server w.conn in
  let monitor = Monitor.create w.engine in
  let endpoints = [ ("client", client); ("server", server) ] in
  List.iter (fun (name, ep) -> Monitor.observe_quic monitor ~name ep) endpoints;
  let rec sweep () =
    List.iter
      (fun (name, ep) ->
        match Monitor.check_quic_inspection (Endpoint.inspect ep) with
        | Some (invariant, detail) ->
            Monitor.record monitor
              (Stob_check.Violation.make ~invariant ~time:(Engine.now w.engine) (name ^ ": " ^ detail))
        | None -> ())
      endpoints;
    if got w.client_rx 4 < 600_000 then Engine.schedule w.engine ~delay:0.001 sweep
  in
  sweep ();
  Connection.on_established w.conn (fun () -> Endpoint.send_stream client ~stream:4 ~fin:true 600);
  Endpoint.set_on_stream_fin server (fun ~stream ->
      if stream = 4 then Endpoint.send_stream server ~stream:4 ~fin:true 600_000);
  Connection.open_ w.conn;
  Engine.run ~until:120.0 w.engine;
  Alcotest.(check int) "full delivery" 600_000 (got w.client_rx 4);
  Alcotest.(check bool) "holes were indexed and checked" true
    ((Endpoint.inspect server).Endpoint.loss_visits > 0);
  Alcotest.(check (list string))
    "no violation" []
    (List.map Stob_check.Violation.to_string (Monitor.violations monitor))

(* --- Reassembly: highest first against the ascending walk --- *)

(* A stream of [n] bytes cut into pieces, the last carrying the FIN,
   shuffled together with duplicates of some pieces, chunks overlapping
   anywhere in the stream, zero-length chunks and bare FINs. *)
let arb_chunk_schedule =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 4_000 in
      let* cuts = list_size (int_range 0 40) (int_range 0 n) in
      let chunk offset length fin = { Frame.stream = 4; offset; length; fin } in
      let rec cut = function
        | lo :: (hi :: _ as rest) -> chunk lo (hi - lo) (hi = n) :: cut rest
        | _ -> []
      in
      let pieces =
        match cut (List.sort_uniq Int.compare (0 :: n :: cuts)) with
        | [] -> [ chunk n 0 true ]
        | pieces -> pieces
      in
      let* dups = list_size (int_range 0 10) (oneofl pieces) in
      let overlap =
        let* offset = int_range 0 n in
        let* length = int_range 0 (n - offset) in
        map (fun fin -> chunk offset length (fin && offset + length = n)) bool
      in
      let* extras =
        list_size (int_range 0 12)
          (frequency
             [
               (3, overlap);
               (1, map (fun offset -> chunk offset 0 false) (int_range 0 n));
               (1, return (chunk n 0 true));
             ])
      in
      shuffle_l (pieces @ dups @ extras))
  in
  QCheck.make
    ~print:(fun chunks ->
      String.concat "; "
        (List.map
           (fun (c : Frame.stream_chunk) ->
             Printf.sprintf "%d+%d%s" c.offset c.length (if c.fin then " fin" else ""))
           chunks))
    gen

type delivery = Bytes of int | Fin

(* [Reassembly] is driven as [Endpoint.process_stream_chunk] drives it: the
   bytes a chunk makes deliverable, then the FIN. *)
let reassembly_agrees chunks =
  let reference = Quic_reference.stream_in () and stream = Reassembly.create () in
  let expected = ref [] and got = ref [] in
  List.iter
    (fun (c : Frame.stream_chunk) ->
      Quic_reference.process_stream_chunk reference c
        ~on_stream:(fun n -> expected := Bytes n :: !expected)
        ~on_stream_fin:(fun () -> expected := Fin :: !expected);
      let fresh = Reassembly.add stream ~offset:c.offset ~length:c.length ~fin:c.fin in
      if fresh > 0 then got := Bytes fresh :: !got;
      if Reassembly.take_fin stream then got := Fin :: !got)
    chunks;
  !got = !expected

let prop_reassembly_matches_reference =
  QCheck.Test.make ~name:"highest-first reassembly delivers what the ascending walk did"
    ~count:500 arb_chunk_schedule reassembly_agrees

(* --- Golden trace pins --- *)

(* Whole QUIC page loads pinned to the byte: three sites, every CCA, four
   paths (netem on both directions, one seed each) and two policies.  Each
   pin is the MD5 of the packed trace plus the completion flag.  The lossy
   cells pin the order in which lost packets are declared, which decides
   how chunks enter each stream's retransmission queue; a bookkeeping
   change to the endpoint must leave every digest where it is. *)
let golden_sites = [ "bing.com"; "whatsapp.net"; "wikipedia.org" ]

let golden_paths =
  [
    ("clean", None);
    ("iid", Some { Netem.default with Netem.loss = Netem.Iid 0.02 });
    ( "burst",
      Some
        {
          Netem.default with
          Netem.loss =
            Netem.Gilbert_elliott { p_gb = 0.01; p_bg = 0.25; loss_good = 0.0; loss_bad = 0.8 };
        } );
    ( "reorder",
      Some
        {
          Netem.default with
          Netem.loss = Netem.Iid 0.01;
          reorder_prob = 0.05;
          reorder_depth = 3;
          reorder_hold = 0.05;
          duplicate_prob = 0.03;
        } );
  ]

let golden_policies =
  [ ("plain", fun () -> None); ("stob", fun () -> Some (Stob_core.Strategies.stack_combined ())) ]

(* (cell name, pin) in matrix order; a cell's index seeds its load and
   its two netem directions. *)
let golden_pins () =
  let cells =
    List.concat_map
      (fun site ->
        List.concat_map
          (fun cca ->
            List.concat_map
              (fun path -> List.map (fun policy -> (site, cca, path, policy)) golden_policies)
              golden_paths)
          cca_cases)
      golden_sites
  in
  List.mapi
    (fun i (site, (cca, cc), (path, impair), (policy, make_policy)) ->
      let netem seed = Option.map (fun c -> Netem.spec { c with Netem.seed }) impair in
      let r =
        Stob_web.Browser_quic.load ?policy:(make_policy ()) ~cc
          ?client_netem:(netem (7_001 + (2 * i)))
          ?server_netem:(netem (7_002 + (2 * i)))
          ~rng:(Rng.create (500 + i))
          (Stob_web.Sites.find site)
      in
      let bytes = Stob_net.Trace.to_bytes r.Stob_web.Browser.trace in
      ( String.concat "/" [ site; cca; path; policy ],
        (Digest.to_hex (Digest.string bytes), r.Stob_web.Browser.completed) ))
    cells

let golden_expected =
  [
    ("bing.com/reno/clean/plain", ("db5d8a643220dc064f78c8451b3aa1c8", true));
    ("bing.com/reno/clean/stob", ("2b3dada5ee77918135aa81fda673d0b4", true));
    ("bing.com/reno/iid/plain", ("2ec0e67efa56b5a69242d6328f0c16ba", true));
    ("bing.com/reno/iid/stob", ("af6af7a91b044035a8a4a06d4c1db3f8", true));
    ("bing.com/reno/burst/plain", ("78fa43dbcf8fc7a8a830575eec12e425", true));
    ("bing.com/reno/burst/stob", ("24c253f4c213927a3aa6ad6b6cd87243", true));
    ("bing.com/reno/reorder/plain", ("b979f41a8f772ca5318a6632c5421fa5", true));
    ("bing.com/reno/reorder/stob", ("557b381082825007917092177d62e9c4", true));
    ("bing.com/cubic/clean/plain", ("82a1dbb8eac375bae5267f7a6b2d04d4", true));
    ("bing.com/cubic/clean/stob", ("21cb7b379add0bcf4bbc5db7971a049b", true));
    ("bing.com/cubic/iid/plain", ("ca8e9bec9d862239908b317540f71226", true));
    ("bing.com/cubic/iid/stob", ("370882869f1a6ebabd44302ee1cfabf0", true));
    ("bing.com/cubic/burst/plain", ("5f370e01bac4e5efa7565eda1858be38", true));
    ("bing.com/cubic/burst/stob", ("800b9a153b37c3ff3fcec87ab71dbfe5", true));
    ("bing.com/cubic/reorder/plain", ("13da04dcd612396a6d0d230ab3bb9eba", true));
    ("bing.com/cubic/reorder/stob", ("1db51323fc2bdaa1c74b05cf615db1d9", true));
    ("bing.com/bbr/clean/plain", ("768db75e9f65e530d15f0908e54584b8", true));
    ("bing.com/bbr/clean/stob", ("55bf102be62e25998366c74d18cf4cf9", true));
    ("bing.com/bbr/iid/plain", ("6612eb2e92765164f9b946787c1cf2b3", true));
    ("bing.com/bbr/iid/stob", ("05e8e05bca6edc3610ebebd4caa4dbb4", true));
    ("bing.com/bbr/burst/plain", ("4e238c43a6d976a7fe4d38cd5a583a54", true));
    ("bing.com/bbr/burst/stob", ("b368b8f35c7bb26080a62c899ec5585c", true));
    ("bing.com/bbr/reorder/plain", ("337b46114a41c73ca152cb3e2e989f2c", true));
    ("bing.com/bbr/reorder/stob", ("18cbef5a1c88fe124733fec9be062a17", true));
    ("whatsapp.net/reno/clean/plain", ("e4faf86b5489a45dc998d4385fe4ee62", true));
    ("whatsapp.net/reno/clean/stob", ("1fcda33ed0c008d3b394588af4814234", true));
    ("whatsapp.net/reno/iid/plain", ("a16fa7d303827bed14eae61d5797904a", true));
    ("whatsapp.net/reno/iid/stob", ("7d7475b078c9a4e975efc1d0aeada8dc", true));
    ("whatsapp.net/reno/burst/plain", ("a951829a78c6cc04dc7e922ff5548b1b", true));
    ("whatsapp.net/reno/burst/stob", ("275b5dc3d805ca38c13d9ff3806fcc1c", true));
    ("whatsapp.net/reno/reorder/plain", ("b2dbdd6e0cc024e06a7a5f2d8a7f2c9f", true));
    ("whatsapp.net/reno/reorder/stob", ("f24b63e02621451e64ab1fb2977b95bb", true));
    ("whatsapp.net/cubic/clean/plain", ("6de664dc3877733722510765c9b7c959", true));
    ("whatsapp.net/cubic/clean/stob", ("2356248c9c5ac3afce37c46f3dfa9e48", true));
    ("whatsapp.net/cubic/iid/plain", ("b645ae2a22321e2176103fee0fc281e2", true));
    ("whatsapp.net/cubic/iid/stob", ("b70b6004a91ac7e261f4d20e253758c6", true));
    ("whatsapp.net/cubic/burst/plain", ("3af08b75c004f2faa7da80c23db23d09", true));
    ("whatsapp.net/cubic/burst/stob", ("e68c758d2d892835173ddae1d89176ae", true));
    ("whatsapp.net/cubic/reorder/plain", ("00067fe7337253dab441cddc0efafd58", true));
    ("whatsapp.net/cubic/reorder/stob", ("a3051263461febe214fea6791a8abbf3", true));
    ("whatsapp.net/bbr/clean/plain", ("008818f77f4599eb8ed5b52e916affec", true));
    ("whatsapp.net/bbr/clean/stob", ("1a8b6168c4f668446d11a8dac42b683b", true));
    ("whatsapp.net/bbr/iid/plain", ("f5a9f8e116ae5142ebc16f4f4cb11d65", true));
    ("whatsapp.net/bbr/iid/stob", ("884492a66d4f680ea29018ccd33f451d", true));
    ("whatsapp.net/bbr/burst/plain", ("5f28c63c82a8e4c0e93d68efd23a3514", true));
    ("whatsapp.net/bbr/burst/stob", ("5223e909a9884591ff7540b077bbd53b", true));
    ("whatsapp.net/bbr/reorder/plain", ("65201753b7b3f84bc831ae7fb77ec23f", true));
    ("whatsapp.net/bbr/reorder/stob", ("57527cad8650b79ecbb8a1e0493b5aae", true));
    ("wikipedia.org/reno/clean/plain", ("10f21668c5ce19cf60f789191001573d", true));
    ("wikipedia.org/reno/clean/stob", ("8e7c8d708cdc7b20b4ff6e71ecb15b78", true));
    ("wikipedia.org/reno/iid/plain", ("2429cbd98e1e2c7ee88474ba97a41aaf", true));
    ("wikipedia.org/reno/iid/stob", ("75372f9d148e4801aed414d0b53a69c8", true));
    ("wikipedia.org/reno/burst/plain", ("55c78df3db4f1b571415b5ee4071fe1f", true));
    ("wikipedia.org/reno/burst/stob", ("ec2f94d2737798197cf2f8e9cf93cb16", true));
    ("wikipedia.org/reno/reorder/plain", ("b77dc91cd5717bc96da2093b405d3590", true));
    ("wikipedia.org/reno/reorder/stob", ("04dd234ea4833c60e0c0c71f41a36792", true));
    ("wikipedia.org/cubic/clean/plain", ("abd538051d85ca1d753b041a40492e22", true));
    ("wikipedia.org/cubic/clean/stob", ("8b5659a276b7d6e21e35376b17e4998f", true));
    ("wikipedia.org/cubic/iid/plain", ("85e34680cb3adafe2122ebc4e1b32a81", true));
    ("wikipedia.org/cubic/iid/stob", ("e3a27a2f17ce5951aa9771fb496ab680", true));
    ("wikipedia.org/cubic/burst/plain", ("7742ce010c7a34722db9e152fee01fd8", true));
    ("wikipedia.org/cubic/burst/stob", ("ff6ddeb95f38137071011486e93d5601", true));
    ("wikipedia.org/cubic/reorder/plain", ("a5aa72909fc47f5ad8296bf11115e710", true));
    ("wikipedia.org/cubic/reorder/stob", ("6b92b4accfbc79ab012d9c924f056ac7", true));
    ("wikipedia.org/bbr/clean/plain", ("50742ae5bf43b2ae549b882736764776", true));
    ("wikipedia.org/bbr/clean/stob", ("1163057b7104cb3c51ed6ee52da87e05", true));
    ("wikipedia.org/bbr/iid/plain", ("0c453a80469bbb939f2898ce543d7b54", true));
    ("wikipedia.org/bbr/iid/stob", ("632daff93caced539cb9e691257201d8", true));
    ("wikipedia.org/bbr/burst/plain", ("4561b5d0f3e0098c5e9f9ffc109a7a28", true));
    ("wikipedia.org/bbr/burst/stob", ("1bd8543788225882ddc842b9bcc39ae5", true));
    ("wikipedia.org/bbr/reorder/plain", ("6df16b9b115b01b6347c7be1283d2de2", true));
    ("wikipedia.org/bbr/reorder/stob", ("cd1f6bf82848b1cc87ae5eec30e5a02c", true));
  ]

let test_golden_traces () =
  Alcotest.(check (list (pair string (pair string bool))))
    "trace digests" golden_expected (golden_pins ())

(* --- Allocation gate --- *)

(* Heap words a whole QUIC page load allocates per datagram sent, counted
   at one domain as trace.alloc counts them: minor words plus direct major
   allocations, over every site at one seed, unmodified and under Stob.
   The count takes in everything the load does (engine, path, capture,
   browser, policy), divided by both endpoints' datagrams.  These loads
   measure 136.6 (unmodified) and 135.6 (Stob) words per datagram; with
   generic hash tables and an ascending reassembly walk they measured
   198.6 and 253.1, above the bound. *)
let alloc_words_per_datagram = 190.0

let test_alloc_per_datagram () =
  List.iter
    (fun (policy, make_policy) ->
      let conns = ref [] in
      let words =
        Test_net.words_allocated (fun () ->
            List.iter
              (fun profile ->
                ignore
                  (Stob_web.Browser_quic.load ?policy:(make_policy ())
                     ~on_connection:(fun c -> conns := c :: !conns)
                     ~rng:(Rng.create 1) profile))
              Stob_web.Sites.all)
      in
      let datagrams =
        List.fold_left
          (fun acc c ->
            acc
            + Endpoint.datagrams_sent (Connection.client c)
            + Endpoint.datagrams_sent (Connection.server c))
          0 !conns
      in
      let per_datagram = words /. float_of_int datagrams in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per datagram (%d datagrams) <= %.0f" policy per_datagram
           datagrams alloc_words_per_datagram)
        true
        (List.length !conns = List.length Stob_web.Sites.all
        && per_datagram <= alloc_words_per_datagram))
    golden_policies

let suite =
  [
    ( "quic.frame",
      [
        Alcotest.test_case "sizes" `Quick test_frame_sizes;
        Alcotest.test_case "ack eliciting" `Quick test_frame_ack_eliciting;
      ] );
    ( "quic.connection",
      [
        Alcotest.test_case "handshake" `Quick test_handshake;
        Alcotest.test_case "initial padded" `Quick test_initial_padded;
        Alcotest.test_case "stream transfer" `Quick test_stream_transfer;
        Alcotest.test_case "multiplexed streams" `Quick test_multiplexed_streams;
        Alcotest.test_case "loss recovery" `Quick test_loss_recovery;
        Alcotest.test_case "all CCAs" `Slow test_all_ccas;
        Alcotest.test_case "datagrams respect mtu" `Quick test_datagrams_respect_mtu;
        Alcotest.test_case "hook shrinks datagrams" `Quick test_hook_shrinks_datagrams;
        Alcotest.test_case "padding datagram" `Quick test_padding_datagram;
        Alcotest.test_case "flight bytes visible" `Quick test_flight_bytes_visible;
        QCheck_alcotest.to_alcotest prop_quic_delivery_integrity;
      ] );
    ( "quic.robustness",
      [
        Alcotest.test_case "idle timeout closes and quiesces" `Quick
          test_idle_timeout_close_quiesce;
        Alcotest.test_case "idle close 30 s after the last activity" `Quick
          test_idle_close_after_30s;
        Alcotest.test_case "pto backoff stops at 10 s" `Quick test_pto_backoff_cap;
        Alcotest.test_case "amplification cap" `Quick test_amplification_cap;
        Alcotest.test_case "amplification unblock (no deadlock)" `Quick
          test_amplification_unblock_no_deadlock;
        Alcotest.test_case "time-threshold loss detection" `Quick test_time_threshold_loss;
        Alcotest.test_case "persistent congestion under blackhole" `Quick
          test_persistent_congestion_blackhole;
        Alcotest.test_case "bbr starvation rate taint" `Quick test_bbr_starvation_rate_taint;
        Alcotest.test_case "rtx oracle agreement" `Quick test_rtx_oracle_agreement;
        Alcotest.test_case "wire table drains" `Quick test_wire_table_drains;
        Alcotest.test_case "mixed soak jobs parity" `Quick test_mixed_soak_jobs_parity;
        QCheck_alcotest.to_alcotest prop_quic_delivery_under_netem;
      ] );
    ( "quic.loss",
      [
        QCheck_alcotest.to_alcotest prop_hole_index_matches_scan;
        Alcotest.test_case "sender index monitored" `Quick test_sender_index_monitored;
      ] );
    ("quic.reassembly", [ QCheck_alcotest.to_alcotest prop_reassembly_matches_reference ]);
    ("quic.golden", [ Alcotest.test_case "trace pins" `Quick test_golden_traces ]);
    ("quic.alloc", [ Alcotest.test_case "words per datagram" `Quick test_alloc_per_datagram ]);
  ]
