(* Tests for stob_tcp: unit tests for RTT/pacer/qdisc/config/hooks and
   integration tests driving full connections over simulated paths. *)

module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu
module Units = Stob_util.Units
module Packet = Stob_net.Packet
module Trace = Stob_net.Trace
module Capture = Stob_net.Capture
module Netem = Stob_sim.Netem
module Rng = Stob_util.Rng
module Soak = Stob_check.Soak
open Stob_tcp

(* The events of a trace, to iterate over in checks. *)
let events = Trace_reference.of_lanes

let check_float margin = Alcotest.(check (float margin))

(* --- Rtt --- *)

let test_rtt_first_sample () =
  let r = Rtt.create () in
  Alcotest.(check (option (float 0.0))) "no srtt yet" None (Rtt.srtt r);
  check_float 1e-9 "initial rto" 1.0 (Rtt.rto r);
  Rtt.observe r 0.1;
  Alcotest.(check (option (float 1e-9))) "srtt = sample" (Some 0.1) (Rtt.srtt r);
  (* rto = srtt + 4*rttvar = 0.1 + 4*0.05 = 0.3 *)
  check_float 1e-9 "rto" 0.3 (Rtt.rto r)

let test_rtt_smoothing () =
  let r = Rtt.create () in
  Rtt.observe r 0.1;
  Rtt.observe r 0.2;
  (* srtt = 0.875*0.1 + 0.125*0.2 = 0.1125 *)
  check_float 1e-9 "smoothed" 0.1125 (Option.get (Rtt.srtt r))

let test_rtt_min_floor () =
  let r = Rtt.create () in
  Rtt.observe r 0.001;
  check_float 1e-9 "floored at rto_min" 0.2 (Rtt.rto r)

let test_rtt_backoff () =
  let r = Rtt.create () in
  Rtt.observe r 0.1;
  let base = Rtt.rto r in
  Rtt.backoff r;
  check_float 1e-9 "doubled" (2.0 *. base) (Rtt.rto r);
  Rtt.reset_backoff r;
  check_float 1e-9 "reset" base (Rtt.rto r)

(* --- Pacer --- *)

let test_pacer_spacing () =
  let p = Pacer.create () in
  check_float 1e-12 "first departs now" 5.0 (Pacer.next_departure p ~now:5.0);
  Pacer.commit p ~departure:5.0 ~rate_bps:8000.0 ~bytes:1000;
  (* 1000 B at 8000 b/s = 1 s spacing *)
  check_float 1e-12 "second waits" 6.0 (Pacer.next_departure p ~now:5.0);
  check_float 1e-12 "late now dominates" 7.0 (Pacer.next_departure p ~now:7.0)

let test_pacer_infinite_rate () =
  let p = Pacer.create () in
  Pacer.commit p ~departure:1.0 ~rate_bps:infinity ~bytes:100000;
  check_float 1e-12 "no spacing" 1.0 (Pacer.next_departure p ~now:1.0)

(* --- Config --- *)

let test_tso_autosize_unpaced () =
  let c = Config.default in
  let bytes = Config.tso_autosize c ~pacing_rate_bps:infinity in
  Alcotest.(check int) "max segments" (65535 / c.Config.mss * c.Config.mss) bytes

let test_tso_autosize_slow_rate () =
  let c = Config.default in
  (* 10 Mb/s * 1 ms = 1250 B -> clamps to tso_min (2 MSS). *)
  let bytes = Config.tso_autosize c ~pacing_rate_bps:1e7 in
  Alcotest.(check int) "min two segments" (2 * c.Config.mss) bytes

let test_tso_autosize_mid_rate () =
  let c = Config.default in
  (* 100 Mb/s * 1 ms = 12500 B -> 8 segments of 1448. *)
  let bytes = Config.tso_autosize c ~pacing_rate_bps:1e8 in
  Alcotest.(check int) "eight segments" (8 * c.Config.mss) bytes

(* Every CCA caps its window at the 16 MiB send buffer.  Acks are fed to
   [on_ack] directly, far faster than any path would deliver them. *)
let test_cwnd_stops_at_send_buffer () =
  List.iter
    (fun (name, make) ->
      let cc = make Config.default in
      for i = 1 to 200 do
        cc.Cc.on_ack ~now:(0.1 *. float_of_int i) ~acked:10_000_000 ~rtt:0.1 ~inflight:0
          ~limited:false
      done;
      Alcotest.(check int) (name ^ " cwnd") (16 * 1024 * 1024) (cc.Cc.cwnd ()))
    [ ("reno", Reno.make); ("cubic", Cubic.make); ("bbr", Bbr.make) ]

(* --- Hooks --- *)

let test_hooks_clamp () =
  let stack = { Hooks.tso_bytes = 10000; packet_payload = 1448; earliest_departure = 2.0 } in
  let proposed = { Hooks.tso_bytes = 20000; packet_payload = 9000; earliest_departure = 1.0 } in
  let c = Hooks.clamp ~stack proposed in
  Alcotest.(check int) "tso clamped" 10000 c.Hooks.tso_bytes;
  Alcotest.(check int) "payload clamped" 1448 c.Hooks.packet_payload;
  check_float 1e-12 "departure clamped" 2.0 c.Hooks.earliest_departure

let test_hooks_clamp_allows_reduction () =
  let stack = { Hooks.tso_bytes = 10000; packet_payload = 1448; earliest_departure = 2.0 } in
  let proposed = { Hooks.tso_bytes = 2000; packet_payload = 700; earliest_departure = 3.5 } in
  let c = Hooks.clamp ~stack proposed in
  Alcotest.(check int) "smaller tso ok" 2000 c.Hooks.tso_bytes;
  Alcotest.(check int) "smaller payload ok" 700 c.Hooks.packet_payload;
  check_float 1e-12 "later departure ok" 3.5 c.Hooks.earliest_departure

let prop_hooks_clamp_safe =
  QCheck.Test.make ~name:"clamp never exceeds the stack decision" ~count:300
    QCheck.(
      pair
        (pair (int_range 1 100000) (int_range 1 9000))
        (pair (int_range (-100000) 200000) (pair (int_range (-9000) 18000) (float_range 0.0 10.0))))
    (fun ((stso, spay), (ptso, (ppay, pdep))) ->
      let stack = { Hooks.tso_bytes = stso; packet_payload = spay; earliest_departure = 5.0 } in
      let c = Hooks.clamp ~stack { Hooks.tso_bytes = ptso; packet_payload = ppay; earliest_departure = pdep } in
      c.Hooks.tso_bytes <= stso && c.Hooks.tso_bytes >= 1
      && c.Hooks.packet_payload <= spay
      && c.Hooks.packet_payload >= 1
      && c.Hooks.earliest_departure >= 5.0)

(* --- Qdisc --- *)

let test_qdisc_fifo_order () =
  (* Items within one quantum leave in arrival order. *)
  let q = Qdisc.fq ~limit_bytes:10000 ~size:(fun x -> x) () in
  Alcotest.(check bool) "enq a" true (Qdisc.enqueue q ~flow:1 100);
  Alcotest.(check bool) "enq b" true (Qdisc.enqueue q ~flow:2 200);
  Alcotest.(check (option (pair int int))) "fifo 1" (Some (1, 100)) (Qdisc.dequeue q);
  Alcotest.(check (option (pair int int))) "fifo 2" (Some (2, 200)) (Qdisc.dequeue q);
  Alcotest.(check (option (pair int int))) "empty" None (Qdisc.dequeue q)

let test_qdisc_fifo_limit () =
  let q = Qdisc.fq ~limit_bytes:250 ~size:(fun x -> x) () in
  Alcotest.(check bool) "fits" true (Qdisc.enqueue q ~flow:1 200);
  Alcotest.(check bool) "dropped" false (Qdisc.enqueue q ~flow:1 100);
  Alcotest.(check int) "drop counted" 1 (Qdisc.drops q);
  Alcotest.(check int) "backlog" 200 (Qdisc.backlog_bytes q)

let test_qdisc_fq_fairness () =
  let q = Qdisc.fq ~quantum:1000 ~limit_bytes:1_000_000 ~size:(fun x -> x) () in
  (* Flow 1 queues 10 items, flow 2 queues 10; service should interleave. *)
  for _ = 1 to 10 do
    ignore (Qdisc.enqueue q ~flow:1 1000);
    ignore (Qdisc.enqueue q ~flow:2 1000)
  done;
  let first_eight = List.init 8 (fun _ -> fst (Option.get (Qdisc.dequeue q))) in
  let f1 = List.length (List.filter (fun f -> f = 1) first_eight) in
  Alcotest.(check int) "balanced service" 4 f1

let test_qdisc_fq_backlog_accounting () =
  let q = Qdisc.fq ~limit_bytes:1_000_000 ~size:(fun x -> x) () in
  ignore (Qdisc.enqueue q ~flow:7 500);
  ignore (Qdisc.enqueue q ~flow:7 300);
  ignore (Qdisc.enqueue q ~flow:8 200);
  Alcotest.(check int) "flow 7 backlog" 800 (Qdisc.flow_backlog q ~flow:7);
  Alcotest.(check int) "total" 1000 (Qdisc.backlog_bytes q);
  ignore (Qdisc.dequeue q);
  Alcotest.(check bool) "total decreased" true (Qdisc.backlog_bytes q < 1000)

let test_qdisc_fq_drains_all () =
  let q = Qdisc.fq ~limit_bytes:1_000_000 ~size:(fun x -> x) () in
  let n = ref 0 in
  for i = 1 to 5 do
    for _ = 1 to i do
      ignore (Qdisc.enqueue q ~flow:i 1500)
    done
  done;
  let rec drain () =
    match Qdisc.dequeue q with
    | Some _ ->
        incr n;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all items served" 15 !n;
  Alcotest.(check int) "backlog empty" 0 (Qdisc.backlog_bytes q)

(* --- Integration: full connections --- *)

type world = {
  engine : Engine.t;
  path : Path.t;
  conn : Connection.t;
  received : int ref;  (* client-side delivered bytes *)
  server_received : int ref;
  last_rx : float ref;  (* time of the most recent client delivery *)
}

let make_world ?queue ?(rate_bps = Units.mbps 100.0) ?(delay = 0.01) ?queue_capacity ?cc
    ?server_cpu ?server_hooks ?client_config ?server_config ?client_netem ?server_netem () =
  let engine = Engine.create ?queue () in
  let path =
    Path.create ~engine ~rate_bps ~delay ?queue_capacity ?client_netem ?server_netem ()
  in
  let conn =
    Connection.create ~engine ~path ~flow:1 ?cc ?server_cpu ?server_hooks ?client_config
      ?server_config ()
  in
  let received = ref 0 and server_received = ref 0 and last_rx = ref 0.0 in
  Endpoint.set_on_receive (Connection.client conn) (fun n ->
      received := !received + n;
      last_rx := Engine.now engine);
  Endpoint.set_on_receive (Connection.server conn) (fun n -> server_received := !server_received + n);
  { engine; path; conn; received; server_received; last_rx }

(* Client requests [request] bytes; server responds with [response] bytes once
   the request fully arrives. *)
let request_response w ~request ~response =
  let server = Connection.server w.conn and client = Connection.client w.conn in
  Endpoint.set_on_receive server (fun n ->
      w.server_received := !(w.server_received) + n;
      if !(w.server_received) = request then Endpoint.write server response);
  Connection.on_established w.conn (fun () -> Endpoint.write client request);
  Connection.open_ w.conn;
  Engine.run ~until:60.0 w.engine

let test_handshake () =
  let w = make_world () in
  Connection.open_ w.conn;
  Engine.run ~until:1.0 w.engine;
  Alcotest.(check bool) "client established" true (Endpoint.established (Connection.client w.conn));
  Alcotest.(check bool) "server established" true (Endpoint.established (Connection.server w.conn))

let test_small_transfer () =
  let w = make_world () in
  request_response w ~request:300 ~response:5000;
  Alcotest.(check int) "server got request" 300 !(w.server_received);
  Alcotest.(check int) "client got response" 5000 !(w.received)

let test_bulk_transfer_conserves_bytes () =
  let w = make_world () in
  let total = 2_000_000 in
  request_response w ~request:100 ~response:total;
  Alcotest.(check int) "every byte delivered exactly once" total !(w.received)

let test_bulk_transfer_link_bound_throughput () =
  (* 100 Mb/s link, 20 ms RTT, 2 MB transfer: should finish close to the
     serialization bound once slow start opens up. *)
  let w = make_world ~rate_bps:(Units.mbps 100.0) ~delay:0.01 () in
  request_response w ~request:100 ~response:2_000_000;
  let elapsed = !(w.last_rx) in
  Alcotest.(check bool) "all delivered" true (!(w.received) = 2_000_000);
  (* Serialization alone takes 0.16 s; allow slow start and acking overhead. *)
  Alcotest.(check bool)
    (Printf.sprintf "finished in sane time (%.3f s)" elapsed)
    true
    (elapsed > 0.16 && elapsed < 3.0)

let test_transfer_no_unneeded_retransmissions () =
  let w = make_world () in
  request_response w ~request:100 ~response:500_000;
  Alcotest.(check int) "no retransmissions on a clean path" 0
    (Endpoint.retransmissions (Connection.server w.conn))

let test_loss_recovery () =
  (* Tiny bottleneck queue forces drops; the transfer must still complete. *)
  let w = make_world ~rate_bps:(Units.mbps 20.0) ~delay:0.02 ~queue_capacity:20_000 () in
  request_response w ~request:100 ~response:1_000_000;
  Alcotest.(check int) "all bytes despite drops" 1_000_000 !(w.received);
  Alcotest.(check bool) "drops happened" true (Path.drops w.path > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (Endpoint.retransmissions (Connection.server w.conn) > 0)

let cca_cases = [ ("reno", Reno.make); ("cubic", Cubic.make); ("bbr", Bbr.make) ]

let test_all_ccas_complete () =
  List.iter
    (fun (name, cc) ->
      let w = make_world ~cc () in
      request_response w ~request:100 ~response:1_000_000;
      Alcotest.(check int) (name ^ " delivers") 1_000_000 !(w.received))
    cca_cases

let test_all_ccas_with_loss () =
  List.iter
    (fun (name, cc) ->
      let w = make_world ~cc ~rate_bps:(Units.mbps 20.0) ~delay:0.02 ~queue_capacity:30_000 () in
      request_response w ~request:100 ~response:500_000;
      Alcotest.(check int) (name ^ " survives loss") 500_000 !(w.received))
    cca_cases

let test_rtt_estimate_converges () =
  let w = make_world ~delay:0.025 () in
  request_response w ~request:100 ~response:500_000;
  match Endpoint.srtt (Connection.server w.conn) with
  | None -> Alcotest.fail "no RTT estimate"
  | Some srtt ->
      (* Propagation RTT is 50 ms; queueing adds some. *)
      Alcotest.(check bool)
        (Printf.sprintf "srtt sane (%.4f)" srtt)
        true
        (srtt >= 0.045 && srtt < 0.2)

let test_fin_closes_both () =
  let w = make_world () in
  let server = Connection.server w.conn and client = Connection.client w.conn in
  Endpoint.set_on_receive server (fun n ->
      w.server_received := !(w.server_received) + n;
      if !(w.server_received) = 100 then begin
        Endpoint.write server 10_000;
        Endpoint.close server
      end);
  let client_saw_fin = ref false in
  Endpoint.set_on_fin client (fun () ->
      client_saw_fin := true;
      Endpoint.close client);
  Connection.on_established w.conn (fun () -> Endpoint.write client 100);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  Alcotest.(check bool) "client saw fin" true !client_saw_fin;
  Alcotest.(check int) "data before fin" 10_000 !(w.received);
  Alcotest.(check bool) "server closed" true (Endpoint.closed server);
  Alcotest.(check bool) "client closed" true (Endpoint.closed client)

let test_capture_sees_both_directions () =
  let w = make_world () in
  request_response w ~request:100 ~response:100_000;
  let trace = Capture.trace (Path.capture w.path) in
  Alcotest.(check bool) "has outgoing" true (Array.length (Trace.times ~dir:Packet.Outgoing trace) > 0);
  Alcotest.(check bool) "has incoming" true (Array.length (Trace.times ~dir:Packet.Incoming trace) > 0);
  Alcotest.(check bool) "sorted" true (Trace.is_sorted trace);
  (* Incoming wire bytes cover the response plus headers. *)
  Alcotest.(check bool) "incoming bytes >= response" true
    (Trace.bytes ~dir:Packet.Incoming trace >= 100_000)

let test_packets_respect_mss () =
  let w = make_world () in
  request_response w ~request:100 ~response:200_000;
  let trace = Capture.trace (Path.capture w.path) in
  Array.iter
    (fun e ->
      Alcotest.(check bool) "within MTU" true
        (e.Trace.size <= Config.default.Config.mss + Packet.default_header_bytes + 8))
    (events trace)

let test_hook_shrinks_packets () =
  (* A Stob hook that halves the packet payload must yield more, smaller
     incoming packets. *)
  let hook =
    {
      Hooks.on_segment =
        (fun ~now:_ ~flow:_ ~phase:_ d -> { d with Hooks.packet_payload = d.Hooks.packet_payload / 2 });
    }
  in
  let baseline = make_world () in
  request_response baseline ~request:100 ~response:300_000;
  let hooked = make_world ~server_hooks:hook () in
  request_response hooked ~request:100 ~response:300_000;
  Alcotest.(check int) "hooked still delivers" 300_000 !(hooked.received);
  let count w = Array.length (Trace.times ~dir:Packet.Incoming (Capture.trace (Path.capture w.path))) in
  Alcotest.(check bool) "more packets with smaller payloads" true (count hooked > count baseline);
  let max_in w =
    Array.fold_left
      (fun acc e -> if e.Trace.dir = Packet.Incoming then max acc e.Trace.size else acc)
      0
      (events (Capture.trace (Path.capture w.path)))
  in
  Alcotest.(check bool) "hooked packets smaller" true (max_in hooked < max_in baseline)

let test_hook_cannot_inflate () =
  (* A malicious hook asking for larger/earlier transmissions is clamped. *)
  let hook =
    {
      Hooks.on_segment =
        (fun ~now:_ ~flow:_ ~phase:_ d ->
          {
            Hooks.tso_bytes = d.Hooks.tso_bytes * 10;
            packet_payload = 9000;
            earliest_departure = d.Hooks.earliest_departure -. 1.0;
          });
    }
  in
  let w = make_world ~server_hooks:hook () in
  request_response w ~request:100 ~response:300_000;
  Alcotest.(check int) "delivers" 300_000 !(w.received);
  let trace = Capture.trace (Path.capture w.path) in
  Array.iter
    (fun e ->
      Alcotest.(check bool) "never jumbo" true
        (e.Trace.size <= Config.default.Config.mss + Packet.default_header_bytes + 8))
    (events trace)

let test_hook_delay_slows_transfer () =
  (* Delaying every segment departure must lengthen the transfer. *)
  let hook =
    {
      Hooks.on_segment =
        (fun ~now ~flow:_ ~phase:_ d ->
          { d with Hooks.earliest_departure = Float.max d.Hooks.earliest_departure now +. 0.002 });
    }
  in
  let baseline = make_world () in
  request_response baseline ~request:100 ~response:200_000;
  let t_base = !(baseline.last_rx) in
  let delayed = make_world ~server_hooks:hook () in
  request_response delayed ~request:100 ~response:200_000;
  let t_delayed = !(delayed.last_rx) in
  Alcotest.(check int) "delivers" 200_000 !(delayed.received);
  Alcotest.(check bool)
    (Printf.sprintf "slower (%.3f vs %.3f)" t_delayed t_base)
    true (t_delayed > t_base)

let test_dummy_packets_on_wire_not_delivered () =
  let w = make_world () in
  let server = Connection.server w.conn and client = Connection.client w.conn in
  Endpoint.set_on_receive server (fun n ->
      w.server_received := !(w.server_received) + n;
      if !(w.server_received) = 100 then begin
        Endpoint.send_dummy server 900;
        Endpoint.write server 10_000
      end);
  Connection.on_established w.conn (fun () -> Endpoint.write client 100);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  Alcotest.(check int) "only real bytes delivered" 10_000 !(w.received);
  ignore client;
  let trace = Capture.trace (Path.capture w.path) in
  let in_bytes = Trace.bytes ~dir:Packet.Incoming trace in
  Alcotest.(check bool) "dummy visible on wire" true (in_bytes >= 10_000 + 900)

let test_cpu_bound_throughput () =
  (* Expensive CPU on a fast link: throughput should be CPU-bound. *)
  let engine_run costs =
    let engine = Engine.create () in
    let path = Path.create ~engine ~rate_bps:(Units.gbps 100.0) ~delay:25e-6 () in
    let cpu = Cpu.create engine in
    let conn = Connection.create ~engine ~path ~flow:1 ~server_cpu:(cpu, costs) () in
    let received = ref 0 in
    Endpoint.set_on_receive (Connection.client conn) (fun n -> received := !received + n);
    Endpoint.set_on_receive (Connection.server conn) (fun n ->
        if n > 0 && Endpoint.unsent (Connection.server conn) = 0 then
          Endpoint.write (Connection.server conn) 400_000_000);
    Connection.on_established conn (fun () -> Endpoint.write (Connection.client conn) 100);
    Connection.open_ conn;
    (* Short window so neither configuration finishes: measured throughput is
       the steady-state rate, not a completion artifact. *)
    Engine.run ~until:0.02 engine;
    Stob_util.Units.throughput_bps ~bytes:!received ~seconds:(Engine.now engine)
  in
  let free = engine_run { Cpu_costs.per_segment = 0.0; per_packet = 0.0; per_byte = 0.0 } in
  let costly =
    engine_run { Cpu_costs.per_segment = 20e-6; per_packet = 500e-9; per_byte = 0.2e-9 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "cpu slows sender (%.1f vs %.1f Gb/s)" (free /. 1e9) (costly /. 1e9))
    true
    (costly < free *. 0.8)

(* A Fig 3-shaped bulk transfer (100 Gb/s, 50 us RTT, server CPU model,
   Stob's combined reduction) on a path that records no capture: the tap
   still drives TSQ, so the simulation is the capturing path's to the bit.
   Such a path refuses to hand out a capture rather than an empty one. *)
let test_no_capture_same_simulation () =
  let run capture =
    let engine = Engine.create () in
    let path =
      Path.create ~engine ~rate_bps:(Units.gbps 100.0) ~delay:25e-6 ~capture ()
    in
    let cpu = Cpu.create engine in
    let hooks =
      Stob_core.Controller.hooks
        (Stob_core.Controller.create (Stob_core.Strategies.incremental_combined ~alpha:24))
    in
    let conn =
      Connection.create ~engine ~path ~flow:1 ~cc:Cubic.make
        ~server_cpu:(cpu, Cpu_costs.default_server) ~server_hooks:hooks ()
    in
    let server = Connection.server conn in
    let rec refill () =
      if Endpoint.established server && Endpoint.unsent server < 16_000_000 then
        Endpoint.write server 64_000_000;
      ignore (Engine.schedule engine ~delay:0.002 refill)
    in
    ignore (Engine.schedule engine ~delay:0.0 refill);
    Connection.on_established conn (fun () -> Endpoint.write (Connection.client conn) 64);
    Connection.open_ conn;
    let warmup = 0.005 and measure = 0.01 in
    let mark = ref 0 in
    ignore (Engine.schedule engine ~delay:warmup (fun () -> mark := Path.server_link_bytes path));
    Engine.run ~until:(warmup +. measure) engine;
    let bps =
      Units.throughput_bps ~bytes:(Path.server_link_bytes path - !mark) ~seconds:measure
    in
    ( path,
      Int64.bits_of_float bps,
      [ ("server_link_bytes", Path.server_link_bytes path);
        ("events processed", Engine.events_processed engine);
        ("packets sent", Endpoint.packets_sent server);
        ("retransmissions", Endpoint.retransmissions server) ] )
  in
  let captured, bps, counters = run true in
  let bare, bps', counters' = run false in
  Alcotest.(check int64) "throughput, bitwise" bps bps';
  Alcotest.(check (list (pair string int))) "same simulation" counters counters';
  Alcotest.(check bool) "the capturing path recorded frames" true
    (Capture.count (Path.capture captured) > 0);
  match Path.capture bare with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Path.capture on a path without a capture must raise"

(* The same simulations on the heap oracle and on the timing wheel: a
   Fig 3-shaped bulk transfer (100 Gb/s, 50 us RTT, server CPU model,
   Stob's combined reduction) and a lossy, reordering request/response
   over netem.  Byte counts, event counts and captured traces agree. *)
let queue_parity_fig3 queue =
  let engine = Engine.create ~queue () in
  let path = Path.create ~engine ~rate_bps:(Units.gbps 100.0) ~delay:25e-6 () in
  let cpu = Cpu.create engine in
  let hooks =
    Stob_core.Controller.hooks
      (Stob_core.Controller.create (Stob_core.Strategies.incremental_combined ~alpha:24))
  in
  let conn =
    Connection.create ~engine ~path ~flow:1 ~cc:Cubic.make
      ~server_cpu:(cpu, Cpu_costs.default_server) ~server_hooks:hooks ()
  in
  let server = Connection.server conn in
  let rec refill () =
    if Endpoint.established server && Endpoint.unsent server < 16_000_000 then
      Endpoint.write server 64_000_000;
    ignore (Engine.schedule engine ~delay:0.002 refill)
  in
  ignore (Engine.schedule engine ~delay:0.0 refill);
  Connection.on_established conn (fun () -> Endpoint.write (Connection.client conn) 64);
  Connection.open_ conn;
  Engine.run ~until:0.008 engine;
  ( [ ("server_link_bytes", Path.server_link_bytes path);
      ("events processed", Engine.events_processed engine);
      ("pending", Engine.pending engine);
      ("packets sent", Endpoint.packets_sent server) ],
    Digest.to_hex (Digest.string (Trace.to_bytes (Capture.trace (Path.capture path)))) )

let queue_parity_lossy queue =
  let impair seed =
    Netem.spec
      { Netem.default with
        Netem.loss = Netem.Iid 0.03;
        reorder_prob = 0.05;
        reorder_depth = 3;
        reorder_hold = 0.05;
        seed }
  in
  let w =
    make_world ~queue ~rate_bps:(Units.mbps 50.0) ~delay:0.01 ~client_netem:(impair 11)
      ~server_netem:(impair 12) ()
  in
  request_response w ~request:2_000 ~response:400_000;
  let server = Connection.server w.conn in
  ( [ ("client received", !(w.received));
      ("server received", !(w.server_received));
      ("events processed", Engine.events_processed w.engine);
      ("retransmissions", Endpoint.retransmissions server);
      ("netem lost", Path.netem_lost w.path) ],
    Digest.to_hex (Digest.string (Trace.to_bytes (Capture.trace (Path.capture w.path)))) )

let test_queue_parity () =
  List.iter
    (fun (name, scenario) ->
      let heap_counts, heap_trace = scenario Stob_sim.Event_queue.Heap in
      let wheel_counts, wheel_trace = scenario Stob_sim.Event_queue.Wheel in
      Alcotest.(check (list (pair string int))) (name ^ ": counts") heap_counts wheel_counts;
      Alcotest.(check string) (name ^ ": trace") heap_trace wheel_trace)
    [ ("fig3-shaped", queue_parity_fig3); ("lossy", queue_parity_lossy) ];
  (* The lossy scenario exercised what it claims to. *)
  let counts, _ = queue_parity_lossy Stob_sim.Event_queue.Wheel in
  Alcotest.(check int) "response delivered" 400_000 (List.assoc "client received" counts);
  Alcotest.(check bool) "netem dropped frames" true (List.assoc "netem lost" counts > 0);
  Alcotest.(check bool) "the sender retransmitted" true (List.assoc "retransmissions" counts > 0)

let test_pacing_spreads_departures () =
  (* With pacing on a fat link, data departures should not all be line-rate
     back-to-back: gaps appear between TSO bursts. *)
  let w = make_world ~rate_bps:(Units.gbps 10.0) ~delay:0.01 () in
  request_response w ~request:100 ~response:2_000_000;
  let trace = Capture.trace (Path.capture w.path) in
  let gaps = Trace.interarrivals ~dir:Packet.Incoming trace in
  let line_rate_gap = 1500.0 *. 8.0 /. Units.gbps 10.0 in
  let spread = Array.exists (fun g -> g > 3.0 *. line_rate_gap) gaps in
  Alcotest.(check bool) "pacing creates gaps" true spread

let test_small_rwnd_limits_inflight () =
  (* HTTPOS-style tiny advertised window throttles the sender. *)
  let client_config = { Config.default with Config.rcv_wnd = 8 * 1448 } in
  let w = make_world ~client_config () in
  request_response w ~request:100 ~response:500_000;
  Alcotest.(check int) "delivers" 500_000 !(w.received);
  let w_big = make_world () in
  request_response w_big ~request:100 ~response:500_000;
  Alcotest.(check bool) "small window is slower" true (!(w.last_rx) > !(w_big.last_rx))

let test_fq_fairness_between_flows () =
  (* Two server-to-client bulk flows share a path with the fq qdisc on the
     server egress: they should split the bottleneck roughly evenly even
     though one starts with a head start. *)
  let engine = Engine.create () in
  let path =
    Path.create ~engine ~rate_bps:(Units.mbps 50.0) ~delay:0.01 ~server_fq:true ()
  in
  let received = [| 0; 0 |] in
  let conns =
    Array.init 2 (fun i ->
        let conn = Connection.create ~engine ~path ~flow:(i + 1) () in
        Endpoint.set_on_receive (Connection.client conn) (fun n ->
            received.(i) <- received.(i) + n);
        Endpoint.set_on_receive (Connection.server conn) (fun b ->
            if b = 64 then Endpoint.write (Connection.server conn) 20_000_000);
        Connection.on_established conn (fun () ->
            Endpoint.write (Connection.client conn) 64);
        conn)
  in
  Connection.open_ conns.(0);
  (* Second flow starts half a second later. *)
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Connection.open_ conns.(1)));
  Engine.run ~until:4.0 engine;
  (* Compare throughput over the contended window: flow 1's share should
     not starve flow 2 (DRR gives each a fair quantum). *)
  Alcotest.(check bool) "both flows made progress" true
    (received.(0) > 1_000_000 && received.(1) > 1_000_000);
  let r0 = float_of_int received.(0) and r1 = float_of_int received.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "no starvation (%.1f MB vs %.1f MB)" (r0 /. 1e6) (r1 /. 1e6))
    true
    (r1 > r0 /. 6.0)

let test_sack_heavy_loss_recovery () =
  (* A very shallow bottleneck causes mass loss in slow start; SACK-based
     recovery must restore throughput without an RTO death spiral. *)
  let w = make_world ~rate_bps:(Units.mbps 30.0) ~delay:0.02 ~queue_capacity:40_000 () in
  request_response w ~request:100 ~response:3_000_000;
  Alcotest.(check int) "every byte delivered" 3_000_000 !(w.received);
  (* 3 MB at 30 Mb/s is 0.8 s minimum; anything under ~5x is a live
     recovery, not a timeout crawl. *)
  Alcotest.(check bool)
    (Printf.sprintf "finishes promptly (%.2f s)" !(w.last_rx))
    true
    (!(w.last_rx) < 4.0)

let test_sack_blocks_on_acks () =
  (* Force reordering-free loss and check SACK blocks appear on the wire. *)
  let w = make_world ~rate_bps:(Units.mbps 20.0) ~delay:0.02 ~queue_capacity:20_000 () in
  let saw_sack = ref false in
  Path.set_serialized_callback w.path ~flow:1 ~dir:Packet.Outgoing (fun p ->
      if p.Packet.sack <> [] then saw_sack := true);
  request_response w ~request:100 ~response:1_000_000;
  Alcotest.(check bool) "client acks carried SACK blocks" true !saw_sack

(* Property: whatever the path conditions, a transfer delivers exactly the
   bytes written — the stack never loses or duplicates data. *)
let prop_delivery_integrity =
  QCheck.Test.make ~name:"tcp delivers exactly the written bytes under any loss" ~count:25
    QCheck.(
      quad (int_range 15_000 120_000) (* queue capacity *)
        (int_range 10_000 400_000) (* response bytes *)
        (int_range 5 80) (* rate Mb/s *)
        (int_range 1 40) (* one-way delay ms *))
    (fun (queue_capacity, response, rate, delay_ms) ->
      let w =
        make_world
          ~rate_bps:(Units.mbps (float_of_int rate))
          ~delay:(float_of_int delay_ms *. 1e-3)
          ~queue_capacity ()
      in
      request_response w ~request:100 ~response;
      !(w.received) = response)

(* --- Endpoint-level regressions: packets fed by hand ------------------- *)

(* A lone client-side endpoint whose transmissions are just collected.  The
   handshake is completed by feeding a SYN|ACK directly, after which data
   from the "server" starts at seq 1. *)
let lone_client () =
  let engine = Engine.create () in
  let sent = ref [] in
  let ep =
    Endpoint.create ~engine ~config:Config.default ~cc:(Reno.make Config.default) ~flow:1
      ~dir:Packet.Outgoing
      ~tx:(fun pkts -> Array.iter (fun p -> sent := p :: !sent) pkts)
      ()
  in
  (engine, ep, sent)

let establish_client ep =
  Endpoint.connect ep;
  Endpoint.receive ep
    (Packet.syn ~flow:1 ~dir:Packet.Incoming ~seq:0 ~ack:(Some 1) ~rwnd:1_000_000 ())

let data_in ~seq ~payload ?fin () =
  Packet.data ~flow:1 ~dir:Packet.Incoming ~seq ~ack:1 ~payload ?fin ~rwnd:1_000_000 ()

(* Regression (out-of-order FIN): a FIN that arrives out of order and is
   drained from the reassembly buffer must still be signalled, and its
   sequence-space slot must not be counted as a payload byte. *)
let test_ooo_fin_drained () =
  let engine, ep, _ = lone_client () in
  establish_client ep;
  let received = ref 0 and fin_fired = ref false in
  Endpoint.set_on_receive ep (fun n -> received := !received + n);
  Endpoint.set_on_fin ep (fun () -> fin_fired := true);
  Endpoint.receive ep (data_in ~seq:1 ~payload:1000 ());
  (* FIN-carrying tail arrives before the middle: buffered out of order. *)
  Endpoint.receive ep (data_in ~seq:3001 ~payload:500 ~fin:true ());
  Alcotest.(check bool) "fin not yet deliverable" false !fin_fired;
  (* The hole: draining it must deliver the tail AND the buffered FIN. *)
  Endpoint.receive ep (data_in ~seq:1001 ~payload:2000 ());
  Engine.run engine;
  Alcotest.(check int) "payload bytes only, no phantom FIN byte" 3500 !received;
  Alcotest.(check bool) "buffered FIN signalled" true !fin_fired

(* Regression (phantom FIN byte in a partial overlap): a retransmission that
   overlaps delivered data and carries the FIN must deliver only the new
   payload range and still signal the FIN. *)
let test_partial_overlap_fin () =
  let engine, ep, _ = lone_client () in
  establish_client ep;
  let received = ref 0 and fin_fired = ref false in
  Endpoint.set_on_receive ep (fun n -> received := !received + n);
  Endpoint.set_on_fin ep (fun () -> fin_fired := true);
  Endpoint.receive ep (data_in ~seq:1 ~payload:1000 ());
  (* Retransmission overshoot: seq 501..1101 already delivered up to 1001,
     so only bytes 1001..1101 are new; the FIN occupies seq 1101. *)
  Endpoint.receive ep (data_in ~seq:501 ~payload:600 ~fin:true ());
  Engine.run engine;
  Alcotest.(check int) "only the new payload range" 1100 !received;
  Alcotest.(check bool) "FIN in overlap signalled" true !fin_fired

(* Regression (Karn's rule in the handshake): a SYN|ACK answering a
   retransmitted SYN is ambiguous — it must not seed the RTT estimator
   with a sample spanning both transmissions. *)
let test_karn_syn_retransmit () =
  let engine, ep, _ = lone_client () in
  Endpoint.connect ep;
  (* Run past the initial RTO (1 s): the SYN is retransmitted. *)
  Engine.run ~until:1.5 engine;
  Alcotest.(check bool) "SYN was retransmitted" true (Endpoint.retransmissions ep >= 1);
  Endpoint.receive ep
    (Packet.syn ~flow:1 ~dir:Packet.Incoming ~seq:0 ~ack:(Some 1) ~rwnd:1_000_000 ());
  Alcotest.(check bool) "established" true (Endpoint.established ep);
  Alcotest.(check (option (float 0.0))) "no RTT sample from ambiguous SYN|ACK" None
    (Endpoint.srtt ep);
  (* Control: a prompt, unretransmitted handshake does seed the estimator. *)
  let _, ep2, _ = lone_client () in
  establish_client ep2;
  Alcotest.(check bool) "clean handshake seeds RTT" true (Endpoint.srtt ep2 <> None)

(* Server-side variant: a duplicate SYN forces a SYN|ACK retransmission, so
   the eventual handshake ACK is ambiguous too. *)
let test_karn_synack_retransmit () =
  let engine = Engine.create () in
  let ep =
    Endpoint.create ~engine ~config:Config.default ~cc:(Reno.make Config.default) ~flow:1
      ~dir:Packet.Incoming
      ~tx:(fun _ -> ())
      ()
  in
  let syn = Packet.syn ~flow:1 ~dir:Packet.Outgoing ~seq:0 ~rwnd:1_000_000 () in
  Endpoint.receive ep syn;
  Endpoint.receive ep syn (* duplicate SYN: SYN|ACK goes out twice *);
  Alcotest.(check bool) "SYN|ACK retransmitted" true (Endpoint.retransmissions ep >= 1);
  Endpoint.receive ep
    (Packet.pure_ack ~flow:1 ~dir:Packet.Outgoing ~seq:1 ~ack:1 ~rwnd:1_000_000 ());
  Alcotest.(check bool) "established" true (Endpoint.established ep);
  Alcotest.(check (option (float 0.0))) "no RTT sample from ambiguous handshake ACK" None
    (Endpoint.srtt ep)

(* --- API preconditions: misuse must raise Invalid_argument -------------- *)

(* These raises are load-bearing for the chaos harness: an injected fault
   raises Stob_sim.Fault.Injected, never Invalid_argument, so a
   precondition violation inside a chaos run is always reported as a
   genuine bug rather than absorbed as chaos. *)

let expect_invalid_arg name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let test_write_preconditions () =
  let engine, ep, _ = lone_client () in
  establish_client ep;
  expect_invalid_arg "write 0 bytes" (fun () -> Endpoint.write ep 0);
  expect_invalid_arg "write negative" (fun () -> Endpoint.write ep (-1));
  Endpoint.write ep 100;
  Endpoint.close ep;
  expect_invalid_arg "write while closing" (fun () -> Endpoint.write ep 1);
  (* The misuse must not have corrupted the connection: the accepted bytes
     still go out (bounded run; the unacked FIN would retransmit forever). *)
  Engine.run ~until:0.5 engine;
  Alcotest.(check int) "accepted write still transmitted" 0 (Endpoint.unsent ep)

let test_connect_preconditions () =
  let _, ep, _ = lone_client () in
  Endpoint.connect ep;
  expect_invalid_arg "connect when not closed" (fun () -> Endpoint.connect ep)

let test_send_dummy_preconditions () =
  let _, ep, _ = lone_client () in
  establish_client ep;
  expect_invalid_arg "dummy 0 bytes" (fun () -> Endpoint.send_dummy ep 0);
  expect_invalid_arg "dummy negative" (fun () -> Endpoint.send_dummy ep (-5))

(* --- Receive-window model and zero-window probing ---------------------- *)

(* Like [lone_client] but with a custom configuration and CCA. *)
let lone_client_cc ?(config = Config.default) factory =
  let engine = Engine.create () in
  let sent = ref [] in
  let ep =
    Endpoint.create ~engine ~config ~cc:(factory config) ~flow:1 ~dir:Packet.Outgoing
      ~tx:(fun pkts -> Array.iter (fun p -> sent := p :: !sent) pkts)
      ()
  in
  (engine, ep, sent)

let lone_client_config config = lone_client_cc ~config Reno.make

(* A lone passive endpoint (server side): the "client" is played by hand-fed
   packets with [dir = Outgoing]. *)
let lone_server ?(config = Config.default) () =
  let engine = Engine.create () in
  let sent = ref [] in
  let ep =
    Endpoint.create ~engine ~config ~cc:(Reno.make config) ~flow:1 ~dir:Packet.Incoming
      ~tx:(fun pkts -> Array.iter (fun p -> sent := p :: !sent) pkts)
      ()
  in
  (engine, ep, sent)

(* Handshake against a synthetic peer that actually negotiates options.
   [establish_client] (no options) keeps modelling the peer that refuses
   everything. *)
let establish_client_opts ?mss ?wscale ?(sack = false) ep =
  Endpoint.connect ep;
  Endpoint.receive ep
    (Packet.syn ~flow:1 ~dir:Packet.Incoming ~seq:0 ~ack:(Some 1) ?mss ?wscale ~sack_permitted:sack
       ~rwnd:1_000_000 ())

let incoming_ack ?(sack = []) ~ack ~rwnd () =
  Packet.pure_ack ~flow:1 ~dir:Packet.Incoming ~seq:1 ~ack ~sack ~rwnd ()

(* Regression (window updates counted as dupacks): before the receive-window
   rework the sender counted ANY payload-less ack for [snd_una] as a
   duplicate, so a burst of pure window updates (same ack, changing rwnd)
   triggered a spurious fast retransmit.  RFC 5681 requires the window to be
   unchanged for an ack to be a duplicate — and a zero-window ack is never
   a duplicate either, it is flow control. *)
let test_window_update_not_dupack () =
  let engine, ep, _sent = lone_client () in
  establish_client ep;
  Endpoint.write ep 50_000;
  Engine.run ~until:0.1 engine;
  let rtx_before = Endpoint.retransmissions ep in
  Alcotest.(check bool) "data outstanding" true (Endpoint.inflight ep > 0);
  List.iter
    (fun rwnd -> Endpoint.receive ep (incoming_ack ~ack:1 ~rwnd ()))
    [ 900_000; 800_000; 700_000; 600_000 ];
  Alcotest.(check int) "window updates trigger no fast retransmit" 0 (Endpoint.fast_recoveries ep);
  Alcotest.(check int) "nothing retransmitted" rtx_before (Endpoint.retransmissions ep);
  (* Repeated zero-window acks are flow control, not loss evidence. *)
  List.iter (fun () -> Endpoint.receive ep (incoming_ack ~ack:1 ~rwnd:0 ())) [ (); (); (); () ];
  Alcotest.(check int) "zero-window repeats are not dupacks" 0 (Endpoint.fast_recoveries ep)

(* Regression (fast retransmit without SACK): SACK used to be implicitly
   always-on, so recovery scanned the scoreboard for holes below the highest
   SACKed byte.  Against a peer that never sent SACK blocks the scoreboard
   was empty and fast retransmit sent NOTHING — recovery stalled until the
   RTO.  The NewReno fallback must retransmit the head segment. *)
let test_non_sack_fast_retransmit () =
  let engine, ep, sent = lone_client () in
  establish_client ep (* synthetic SYN|ACK carries no sack-permitted *);
  Alcotest.(check bool) "sack not negotiated" false (Endpoint.inspect ep).Endpoint.sack_ok;
  Endpoint.write ep 30_000;
  Engine.run ~until:0.1 engine;
  let rtx_before = Endpoint.retransmissions ep in
  (* Three genuine duplicates: same ack, same window, no SACK blocks. *)
  List.iter (fun () -> Endpoint.receive ep (incoming_ack ~ack:1 ~rwnd:1_000_000 ())) [ (); (); () ];
  Engine.run ~until:0.15 engine;
  Alcotest.(check int) "fast recovery entered" 1 (Endpoint.fast_recoveries ep);
  Alcotest.(check bool) "head segment retransmitted, not a no-op" true
    (Endpoint.retransmissions ep > rtx_before);
  Alcotest.(check bool) "the retransmission is the head" true
    (List.exists (fun p -> p.Packet.rtx && p.Packet.seq = 1 && p.Packet.payload > 0) !sent)

(* Regression (zero-window probing): a sender facing a closed window used to
   have no persist timer — with nothing inflight there was no RTO either, so
   the connection deadlocked forever if the reopening window update was the
   one packet that got lost.  The probe must be a single byte past the edge,
   back off exponentially, and the flow must resume when the window reopens. *)
let test_zero_window_persist_probe () =
  let engine, ep, sent = lone_client () in
  establish_client ep;
  Endpoint.write ep 2_000;
  Engine.run ~until:0.1 engine;
  (* Peer acks everything and slams the window shut. *)
  Endpoint.receive ep (incoming_ack ~ack:2001 ~rwnd:0 ());
  Alcotest.(check int) "open->zero transition counted" 1 (Endpoint.zero_windows ep);
  Endpoint.write ep 3_000;
  Engine.run ~until:0.15 engine;
  Alcotest.(check int) "no data dribbles into a closed window" 0
    (List.length (List.filter (fun p -> p.Packet.payload > 0 && p.Packet.seq >= 2001) !sent));
  Alcotest.(check bool) "persist timer armed" true (Endpoint.inspect ep).Endpoint.persist_armed;
  Engine.run ~until:3.0 engine;
  let probes = Endpoint.persist_probes ep in
  Alcotest.(check bool) "probes fired while the window stayed closed" true (probes >= 2);
  Alcotest.(check bool) "exponential backoff keeps probes sparse" true (probes <= 6);
  Alcotest.(check bool) "the probe is a single byte past the edge" true
    (List.exists (fun p -> p.Packet.payload = 1 && p.Packet.seq = 2001) !sent);
  (* The probe byte is acked and the window reopens: everything flows. *)
  Endpoint.receive ep (incoming_ack ~ack:2002 ~rwnd:1_000_000 ());
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "queued bytes all transmitted after reopen" 0 (Endpoint.unsent ep);
  Alcotest.(check bool) "post-reopen data on the wire" true
    (List.exists (fun p -> p.Packet.payload > 0 && p.Packet.seq >= 2002 && not p.Packet.rtx) !sent)

(* The persist backoff doubles per probe and stops at 60 s (BSD's
   TCPTV_PERSMAX).  The peer never answers, so the window stays shut: the
   gaps between probes grow, then hold at exactly 60 s. *)
let test_persist_backoff_cap () =
  let engine = Engine.create () in
  let probes = ref (fun () -> 0) and counted = ref 0 and probe_times = ref [] in
  let tx _ =
    let n = !probes () in
    if n > !counted then begin
      counted := n;
      probe_times := Engine.now engine :: !probe_times
    end
  in
  let ep =
    Endpoint.create ~engine ~config:Config.default ~cc:(Reno.make Config.default) ~flow:1
      ~dir:Packet.Outgoing ~tx ()
  in
  (probes := fun () -> Endpoint.persist_probes ep);
  establish_client ep;
  Endpoint.write ep 2_000;
  Engine.run ~until:0.1 engine;
  Endpoint.receive ep (incoming_ack ~ack:2001 ~rwnd:0 ());
  Endpoint.write ep 3_000;
  Engine.run ~until:600.0 engine;
  let rec gaps = function a :: (b :: _ as rest) -> (a -. b) :: gaps rest | _ -> [] in
  let gaps = List.rev (gaps !probe_times) in
  let rec grows = function a :: (b :: _ as rest) -> a <= b +. 1e-6 && grows rest | _ -> true in
  Alcotest.(check bool) "gaps never shrink" true (grows gaps);
  let capped = List.filter (fun g -> Float.abs (g -. 60.0) < 1e-6) gaps in
  Alcotest.(check bool) "several gaps at the cap" true (List.length capped >= 3);
  Alcotest.(check bool) "no gap above 60 s" true (List.for_all (fun g -> g <= 60.0 +. 1e-6) gaps)

(* Regression (send_dummy vs flow control): defense padding used to bypass
   the peer window entirely — a closed window meant dummies were transmitted
   into sequence space the receiver could not hold.  Dummies must be
   suppressed (and counted) while the window is closed, flow again once it
   reopens, and raise like [write] once the connection is closing. *)
let test_send_dummy_zero_window () =
  let engine, ep, sent = lone_client () in
  establish_client ep;
  Engine.run ~until:0.05 engine;
  Endpoint.receive ep (incoming_ack ~ack:1 ~rwnd:0 ());
  let wire_before = List.length !sent in
  Endpoint.send_dummy ep 900;
  Engine.run ~until:0.1 engine;
  Alcotest.(check int) "dummy suppressed while window closed" 1 (Endpoint.dummies_suppressed ep);
  Alcotest.(check int) "nothing hit the wire" wire_before (List.length !sent);
  Endpoint.receive ep (incoming_ack ~ack:1 ~rwnd:1_000_000 ());
  Endpoint.send_dummy ep 900;
  Engine.run ~until:0.3 engine;
  Alcotest.(check bool) "dummy transmitted after reopen" true
    (List.exists (fun p -> p.Packet.dummy) !sent);
  Endpoint.close ep;
  expect_invalid_arg "dummy while closing" (fun () -> Endpoint.send_dummy ep 1)

(* Receiver side: the advertised window is a real grant backed by the
   receive buffer — it shrinks as delivered-but-unread bytes accumulate,
   closes at zero, rejects segments beyond the advertised edge, and reopens
   (with a window-update ack) when the application reads. *)
let test_advertised_window_tracks_buffer () =
  let config = { Config.default with Config.rcv_wnd = 10_000 } in
  let engine, ep, sent = lone_server ~config () in
  let received = ref 0 in
  Endpoint.set_on_receive ep (fun n -> received := !received + n);
  Endpoint.set_auto_read ep false;
  Endpoint.receive ep (Packet.syn ~flow:1 ~dir:Packet.Outgoing ~seq:0 ~rwnd:65_535 ());
  Endpoint.receive ep (Packet.pure_ack ~flow:1 ~dir:Packet.Outgoing ~seq:1 ~ack:1 ~rwnd:65_535 ());
  Alcotest.(check int) "initial grant = whole buffer" 10_000 (Endpoint.advertised_window ep);
  Endpoint.receive ep
    (Packet.data ~flow:1 ~dir:Packet.Outgoing ~seq:1 ~ack:1 ~payload:4_000 ~rwnd:65_535 ());
  Engine.run engine;
  Alcotest.(check int) "window shrank by the buffered bytes" 6_000 (Endpoint.advertised_window ep);
  Alcotest.(check int) "bytes sit in the receive buffer" 4_000 (Endpoint.rcv_buffered ep);
  Endpoint.receive ep
    (Packet.data ~flow:1 ~dir:Packet.Outgoing ~seq:4_001 ~ack:1 ~payload:6_000 ~rwnd:65_535 ());
  Engine.run engine;
  Alcotest.(check int) "window closed at capacity" 0 (Endpoint.advertised_window ep);
  Alcotest.(check bool) "zero window on the wire" true
    (List.exists (fun p -> p.Packet.payload = 0 && p.Packet.ack = 10_001 && p.Packet.rwnd = 0) !sent);
  (* A segment past the advertised edge is dropped and re-acked, never
     buffered: the grant is a contract, not a suggestion. *)
  let acks_before = List.length (List.filter (fun p -> p.Packet.payload = 0) !sent) in
  Endpoint.receive ep
    (Packet.data ~flow:1 ~dir:Packet.Outgoing ~seq:10_001 ~ack:1 ~payload:1_000 ~rwnd:65_535 ());
  Engine.run engine;
  Alcotest.(check int) "beyond-window segment not delivered" 10_000 !received;
  Alcotest.(check int) "beyond-window segment not buffered" 10_000 (Endpoint.rcv_buffered ep);
  Alcotest.(check bool) "beyond-window segment re-acked" true
    (List.length (List.filter (fun p -> p.Packet.payload = 0) !sent) > acks_before);
  (* Reading drains the buffer, restores the grant and announces it. *)
  Alcotest.(check int) "read drains the buffer" 10_000 (Endpoint.read ep 10_000);
  Engine.run engine;
  Alcotest.(check int) "full grant restored" 10_000 (Endpoint.advertised_window ep);
  Alcotest.(check bool) "window-update ack announces the reopened space" true
    (List.exists (fun p -> p.Packet.payload = 0 && p.Packet.ack = 10_001 && p.Packet.rwnd = 10_000) !sent)

(* Lifecycle audit (delayed-ACK timer vs teardown): with a delayed-ACK
   configuration the timer must actually fire standalone acks, re-arm, and
   never survive the close — [quiesce] guarantees no timer is left armed on
   a dead connection, so draining the engine terminates without a stray
   segment from beyond the grave. *)
let test_delack_lifecycle_teardown () =
  let config = { Config.default with Config.delayed_ack = 0.2; Config.ack_every = 10 } in
  let engine, ep, sent = lone_client_config config in
  establish_client ep;
  Endpoint.set_on_fin ep (fun () -> Endpoint.close ep);
  Endpoint.receive ep (data_in ~seq:1 ~payload:1_000 ());
  Alcotest.(check bool) "delack armed by an unacked segment" true
    (Endpoint.inspect ep).Endpoint.delack_armed;
  let wire_before = List.length !sent in
  Engine.run ~until:0.5 engine;
  Alcotest.(check bool) "delayed ack fired standalone" true (List.length !sent > wire_before);
  Alcotest.(check bool) "delack disarmed after firing" false
    (Endpoint.inspect ep).Endpoint.delack_armed;
  Endpoint.receive ep (data_in ~seq:1_001 ~payload:500 ());
  Alcotest.(check bool) "delack re-arms" true (Endpoint.inspect ep).Endpoint.delack_armed;
  (* FIN arrives; we close; the peer acks our FIN: full teardown. *)
  Endpoint.receive ep (data_in ~seq:1_501 ~payload:100 ~fin:true ());
  Engine.run ~until:1.0 engine;
  Endpoint.receive ep (Packet.pure_ack ~flow:1 ~dir:Packet.Incoming ~seq:1_602 ~ack:2 ~rwnd:65_535 ());
  Alcotest.(check bool) "connection closed" true (Endpoint.closed ep);
  let i = Endpoint.inspect ep in
  Alcotest.(check bool) "no delack timer survives teardown" false i.Endpoint.delack_armed;
  Alcotest.(check bool) "no persist timer survives teardown" false i.Endpoint.persist_armed;
  let wire_at_close = List.length !sent in
  (* Terminates (nothing re-arms) and emits nothing on the dead connection. *)
  Engine.run engine;
  Alcotest.(check int) "no stray segment after close" wire_at_close (List.length !sent);
  Alcotest.(check int) "event queue fully drained" 0 (Engine.pending engine)

(* --- SYN options negotiation ------------------------------------------- *)

let test_syn_options_on_wire () =
  (* Active open: the SYN carries the full offer from the configuration. *)
  let _, ep, sent = lone_client () in
  Endpoint.connect ep;
  let syn = List.find (fun p -> p.Packet.syn) !sent in
  Alcotest.(check (option int)) "mss offered" (Some Config.default.Config.mss) syn.Packet.mss_opt;
  Alcotest.(check bool) "sack-permitted offered" true syn.Packet.sack_permitted;
  Alcotest.(check (option int)) "wscale offered"
    (Some (Config.wscale_shift Config.default))
    syn.Packet.wscale_opt;
  (* Passive open: the SYN|ACK echoes only what both sides agreed to — a
     bare SYN means the peer negotiates nothing. *)
  let _, server, ssent = lone_server () in
  Endpoint.receive server (Packet.syn ~flow:1 ~dir:Packet.Outgoing ~seq:0 ~mss:1400 ~rwnd:50_000 ());
  let synack = List.find (fun p -> p.Packet.syn) !ssent in
  Alcotest.(check bool) "sack not echoed when peer did not offer" false synack.Packet.sack_permitted;
  Alcotest.(check (option int)) "wscale not echoed when peer did not offer" None
    synack.Packet.wscale_opt;
  Alcotest.(check (option int)) "mss still announced" (Some Config.default.Config.mss)
    synack.Packet.mss_opt

let test_mss_negotiation () =
  (* A peer advertising MSS 536 caps every segment we send. *)
  let engine, ep, sent = lone_client () in
  establish_client_opts ~mss:536 ep;
  Alcotest.(check int) "negotiated send mss" 536 (Endpoint.inspect ep).Endpoint.snd_mss;
  Endpoint.write ep 10_000;
  Engine.run ~until:0.15 engine;
  List.iter
    (fun p ->
      if p.Packet.payload > 0 then
        Alcotest.(check bool) "payload within negotiated mss" true (p.Packet.payload <= 536))
    !sent;
  (* The negotiated MSS is min(ours, theirs): a jumbo peer cannot inflate it. *)
  let _, ep2, _ = lone_client () in
  establish_client_opts ~mss:9_000 ep2;
  Alcotest.(check int) "peer cannot inflate our mss" Config.default.Config.mss
    (Endpoint.inspect ep2).Endpoint.snd_mss

let test_wscale_negotiation () =
  (* Refused: the peer sent no wscale option, so the 16-bit field is taken
     at face value for the rest of the connection. *)
  let _, ep, _ = lone_client () in
  establish_client ep;
  Alcotest.(check int) "no shift when refused" 0 (Endpoint.inspect ep).Endpoint.snd_wscale;
  Endpoint.receive ep (incoming_ack ~ack:1 ~rwnd:0xFFFF ());
  Alcotest.(check int) "unscaled window" 0xFFFF (Endpoint.inspect ep).Endpoint.peer_rwnd;
  (* Negotiated shift 7: the same field now decodes 128x larger.  (SYN
     windows themselves are always raw, per RFC 7323.) *)
  let _, ep2, _ = lone_client () in
  establish_client_opts ~wscale:7 ep2;
  Alcotest.(check int) "negotiated shift applied" 7 (Endpoint.inspect ep2).Endpoint.snd_wscale;
  Endpoint.receive ep2 (incoming_ack ~ack:1 ~rwnd:0xFFFF ());
  Alcotest.(check int) "post-handshake windows decode shifted" (0xFFFF lsl 7)
    (Endpoint.inspect ep2).Endpoint.peer_rwnd;
  (* RFC 7323: a shift above 14 from the peer is clamped, not trusted. *)
  let _, ep3, _ = lone_client () in
  establish_client_opts ~wscale:20 ep3;
  Alcotest.(check int) "absurd shift clamped to 14" 14 (Endpoint.inspect ep3).Endpoint.snd_wscale

(* Asymmetric negotiation end-to-end: full transfers over impaired paths
   against peers that refuse SACK, refuse window scaling, or advertise a
   tiny receive buffer — the degraded modes must still converge. *)
let test_asymmetric_negotiation_cells () =
  let reno_clean = { Netem_eval.cca = "reno"; loss = 0.0; reorder = false } in
  let no_sack = { Config.default with Config.sack = false } in
  let r =
    Netem_eval.run_cell ~client_config:no_sack ~seed:77
      { Netem_eval.cca = "reno"; loss = 0.02; reorder = false }
  in
  Alcotest.(check bool) "sack-refused cell converges under loss" true (Netem_eval.converged r);
  let no_ws = { Config.default with Config.wscale = false } in
  let r2 = Netem_eval.run_cell ~client_config:no_ws ~server_config:no_ws ~seed:78 reno_clean in
  Alcotest.(check bool) "wscale-refused cell converges under the 64KB cap" true
    (Netem_eval.converged r2);
  let r0 = Netem_eval.run_cell ~seed:79 reno_clean in
  let tiny = { Config.default with Config.rcv_wnd = 8 * 1024 } in
  let r3 = Netem_eval.run_cell ~client_config:tiny ~seed:79 reno_clean in
  Alcotest.(check bool) "tiny-buffer cell converges" true (Netem_eval.converged r3);
  Alcotest.(check bool) "receiver flow control actually throttles" true
    (r3.Netem_eval.finish_time > r0.Netem_eval.finish_time)

(* Regression (BBR pacing collapse across a zero window): the delivery-rate
   sample for a persist-probe byte acked after a multi-second stall reads as
   a few bits per second, and the probe acks advance BBR's round counter so
   the insert flushes every healthy sample from the windowed max — the
   bottleneck estimate collapses, one burst commit pushes the pacer's
   next-free time out by hundreds of seconds, nothing is ever delivered to
   re-measure, and the flow wedges forever.  Found by the million-flow soak
   (3 of 1.1M flows).  Rate samples from app/rwnd-limited periods must not
   enter the filter (the tcp_rate_check_app_limited rule). *)
let test_bbr_pacing_survives_zero_window () =
  let engine, ep, _sent = lone_client_cc Bbr.make in
  establish_client ep;
  Endpoint.write ep 2_000;
  Engine.run ~until:0.1 engine;
  (* Everything acked; the window slams shut with 20 KB still to send. *)
  Endpoint.receive ep (incoming_ack ~ack:2_001 ~rwnd:0 ());
  Endpoint.write ep 20_000;
  Engine.run ~until:3.0 engine;
  Alcotest.(check bool) "persist probes fired" true (Endpoint.persist_probes ep >= 2);
  (* The reopening ack covers the probe byte — a starved-period sample. *)
  Endpoint.receive ep (incoming_ack ~ack:2_002 ~rwnd:1_000_000 ());
  (* Hand-crank the ack clock: ack everything outstanding every 200 ms.
     Pre-fix the pacer sits wedged hundreds of seconds in the future, so
     the queue never drains no matter how many acks arrive. *)
  for i = 1 to 40 do
    Engine.run ~until:(3.0 +. (0.2 *. float_of_int i)) engine;
    Endpoint.receive ep
      (incoming_ack ~ack:(Endpoint.inspect ep).Endpoint.snd_nxt ~rwnd:1_000_000 ())
  done;
  Alcotest.(check int) "queue fully transmitted soon after reopen" 0 (Endpoint.unsent ep);
  Alcotest.(check int) "sender advanced past the stall" 22_001
    (Endpoint.inspect ep).Endpoint.snd_nxt

(* The soak flow that exposed the collapse (shard 38 of the full run),
   replayed exactly: a bbr slow-reader flow with 1.8% loss and a 2 s read
   stall must complete within the standard horizon. *)
let test_soak_deadlock_seed_replay () =
  let rng = Rng.create 1326204908556826034 in
  let spec = Soak.spec_of_rng ~fault:false rng in
  Alcotest.(check string) "the drawn flow is the bbr slow reader" "bbr" spec.Soak.cca;
  let r, violations = Soak.run_flow spec in
  Alcotest.(check bool) "flow completes" true r.Soak.completed;
  Alcotest.(check (list (pair string int))) "no invariant violations" [] violations

(* --- Randomized window-advertisement battery (soak-backed) -------------- *)

(* Directed slow-reader flow through the soak harness: a stalled reader with
   a tiny buffer must close the window, draw persist probes, and still end
   with exact delivery and zero monitor violations. *)
let test_slow_reader_zero_window_flow () =
  let client = { Config.default with Config.rcv_wnd = 6 * 1024 } in
  let spec =
    {
      Soak.seed = 7;
      transport = Soak.Tcp;
      cca = "reno";
      request = 400;
      response = 60_000;
      delay = 0.01;
      loss = 0.0;
      client;
      server = Config.default;
      slow_reader = true;
      read_chunk = 2_048;
      read_interval = 0.02;
      read_stall = 1.5;
      pacer_jump = None;
      flight = 0;
      blackhole = None;
      horizon = 120.0;
    }
  in
  let r, violations = Soak.run_flow spec in
  Alcotest.(check bool) "flow completes" true r.Soak.completed;
  Alcotest.(check int) "exact delivery" 60_000 r.Soak.client_received;
  Alcotest.(check bool) "window went to zero" true (r.Soak.zero_windows >= 1);
  Alcotest.(check bool) "persist probes fired during the stall" true (r.Soak.persist_probes >= 2);
  Alcotest.(check (list (pair string int))) "no invariant violations" [] violations

(* Property: random receiver buffer sizes and drain/refill schedules (chunk,
   interval, initial stall) against random loss — every flow must deliver
   exactly and violation-free under the window-sanity monitor: no deadlock,
   no over-grant, no over-send. *)
let prop_window_advertisement =
  QCheck.Test.make ~count:40 ~name:"window advertisement under random drain/refill schedules"
    QCheck.(
      quad (int_bound 10_000) (int_range 2_000 32_000) (int_range 256 8_192)
        (pair (int_range 5 80) (int_range 0 25)))
    (fun (seed, buf, chunk, (interval_ms, stall_ds)) ->
      let client = { Config.default with Config.rcv_wnd = buf } in
      let spec =
        {
          Soak.seed;
          transport = Soak.Tcp;
          cca = "reno";
          request = 300;
          response = 40_000;
          delay = 0.008;
          loss = (if seed mod 4 = 0 then 0.01 else 0.0);
          client;
          server = Config.default;
          slow_reader = true;
          read_chunk = chunk;
          read_interval = float_of_int interval_ms /. 1_000.0;
          read_stall = float_of_int stall_ds /. 10.0;
          pacer_jump = None;
          flight = 0;
          blackhole = None;
          horizon = 120.0;
        }
      in
      let r, violations = Soak.run_flow spec in
      r.Soak.completed && r.Soak.client_received = 40_000 && violations = [])

(* Property: the full soak mix (random CCAs, refused options, small MSS,
   lossy links, slow readers) is deadlock- and violation-free flow by flow. *)
let prop_soak_mix_integrity =
  QCheck.Test.make ~count:60 ~name:"soak mix: random flows complete violation-free"
    QCheck.(int_bound 1_000_000)
    (fun s ->
      let rng = Rng.create (s + 1) in
      let spec = Soak.spec_of_rng ~fault:false rng in
      let r, violations = Soak.run_flow spec in
      r.Soak.completed && violations = [])

(* The battery is jobs-invariant, like the netem matrix: pre-split per-flow
   specs make results bit-identical with and without worker domains. *)
let test_soak_battery_jobs_parity () =
  let mk_specs () =
    let master = Rng.create 2026 in
    Array.init 16 (fun _ -> Soak.spec_of_rng ~fault:true master)
  in
  let seq = Array.map Soak.run_flow (mk_specs ()) in
  let par =
    Stob_par.Pool.with_pool ~domains:4 (fun pool ->
        Stob_par.Pool.map pool Soak.run_flow (mk_specs ()))
  in
  Alcotest.(check bool) "battery identical under --jobs 1 and --jobs 4" true (seq = par)

(* --- Netem integration: deterministic single-drop regressions ---------- *)

(* Like [request_response], but the server closes after writing its response
   and the client closes on the server's FIN — the full lifecycle the
   impairment battery exercises. *)
let request_response_close w ~request ~response =
  let server = Connection.server w.conn and client = Connection.client w.conn in
  let responded = ref false in
  Endpoint.set_on_receive server (fun n ->
      w.server_received := !(w.server_received) + n;
      if (not !responded) && !(w.server_received) >= request then begin
        responded := true;
        Endpoint.write server response;
        Endpoint.close server
      end);
  Endpoint.set_on_fin client (fun () -> Endpoint.close client);
  Connection.on_established w.conn (fun () -> Endpoint.write client request);
  Connection.open_ w.conn;
  Engine.run ~until:60.0 w.engine

(* First transmissions of data packets, in order — the netem drop-list
   counts only frames matching this, so "drop the nth data packet" is exact
   and retransmitted copies are never re-dropped. *)
let first_tx_data p = p.Packet.payload > 0 && not p.Packet.rtx

let test_drop_nth_data_fast_retransmit () =
  (* Losing one mid-stream data packet with plenty of traffic behind it must
     be repaired by fast retransmit — dupacks, not a timeout. *)
  let spec = Netem.spec ~drop_filter:first_tx_data { Netem.default with Netem.drop_list = [ 8 ] } in
  let w = make_world ~rate_bps:(Units.mbps 50.0) ~delay:0.02 ~client_netem:spec () in
  request_response_close w ~request:1000 ~response:100_000;
  let server = Connection.server w.conn and client = Connection.client w.conn in
  Alcotest.(check int) "all response bytes delivered once" 100_000 !(w.received);
  Alcotest.(check bool) "both closed" true (Endpoint.closed server && Endpoint.closed client);
  Alcotest.(check int) "exactly one fast-retransmit episode" 1 (Endpoint.fast_recoveries server);
  Alcotest.(check int) "no RTO" 0 (Endpoint.rto_events server);
  Alcotest.(check int) "one packet dropped" 1 (Path.netem_lost w.path)

let test_drop_two_holes_partial_ack () =
  (* Two holes in one window: the first is repaired on dupacks, the second
     by the NewReno partial-ACK rule inside the same recovery episode. *)
  let spec =
    Netem.spec ~drop_filter:first_tx_data { Netem.default with Netem.drop_list = [ 8; 12 ] }
  in
  let w = make_world ~rate_bps:(Units.mbps 50.0) ~delay:0.02 ~client_netem:spec () in
  request_response_close w ~request:1000 ~response:100_000;
  let server = Connection.server w.conn in
  Alcotest.(check int) "all response bytes delivered once" 100_000 !(w.received);
  Alcotest.(check int) "one recovery episode covers both holes" 1
    (Endpoint.fast_recoveries server);
  Alcotest.(check bool) "both holes retransmitted" true (Endpoint.retransmissions server >= 2);
  Alcotest.(check int) "no RTO" 0 (Endpoint.rto_events server)

let test_drop_fin_rto () =
  (* Nothing follows the FIN, so no dupacks can ever form: only the
     retransmission timer can repair a lost FIN. *)
  let spec =
    Netem.spec ~drop_filter:(fun p -> p.Packet.fin) { Netem.default with Netem.drop_list = [ 1 ] }
  in
  let w = make_world ~client_netem:spec () in
  request_response_close w ~request:1000 ~response:20_000;
  let server = Connection.server w.conn and client = Connection.client w.conn in
  Alcotest.(check int) "all response bytes delivered" 20_000 !(w.received);
  Alcotest.(check bool) "RTO repaired the lost FIN" true (Endpoint.rto_events server >= 1);
  Alcotest.(check bool) "both closed" true (Endpoint.closed server && Endpoint.closed client)

let test_drop_single_packet_response_rto () =
  (* A one-packet response leaves no traffic to generate dupacks: loss of
     that lone packet must fall back to the RTO. *)
  let spec = Netem.spec ~drop_filter:first_tx_data { Netem.default with Netem.drop_list = [ 1 ] } in
  let w = make_world ~client_netem:spec () in
  request_response w ~request:100 ~response:1000;
  let server = Connection.server w.conn in
  Alcotest.(check int) "response recovered" 1000 !(w.received);
  Alcotest.(check bool) "RTO fired" true (Endpoint.rto_events server >= 1);
  Alcotest.(check int) "no fast retransmit possible" 0 (Endpoint.fast_recoveries server)

let test_drop_pure_ack_harmless () =
  (* Cumulative ACKs make a lost pure ACK invisible: the next ACK covers it,
     and the sender must not retransmit anything. *)
  let spec =
    Netem.spec
      ~drop_filter:(fun p -> p.Packet.payload = 0 && not p.Packet.syn && not p.Packet.fin)
      { Netem.default with Netem.drop_list = [ 2 ] }
  in
  let w = make_world ~server_netem:spec () in
  request_response_close w ~request:1000 ~response:50_000;
  let server = Connection.server w.conn and client = Connection.client w.conn in
  Alcotest.(check int) "exact delivery" 50_000 !(w.received);
  Alcotest.(check int) "no retransmissions" 0 (Endpoint.retransmissions server);
  Alcotest.(check int) "one ack absorbed" 1 (Path.netem_lost w.path);
  Alcotest.(check bool) "both closed" true (Endpoint.closed server && Endpoint.closed client)

let test_capture_counts_retransmissions () =
  (* The capture's rtx oracle separates recovery traffic from first
     transmissions: a single induced drop shows up as at least one captured
     retransmission, and a clean path shows none. *)
  let spec = Netem.spec ~drop_filter:first_tx_data { Netem.default with Netem.drop_list = [ 8 ] } in
  let w = make_world ~rate_bps:(Units.mbps 50.0) ~delay:0.02 ~client_netem:spec () in
  request_response_close w ~request:1000 ~response:100_000;
  Alcotest.(check bool) "capture saw retransmitted packets" true
    (Capture.rtx_count (Path.capture w.path) >= 1);
  let clean = make_world () in
  request_response_close clean ~request:1000 ~response:100_000;
  Alcotest.(check int) "clean path captures no rtx" 0
    (Capture.rtx_count (Path.capture clean.path))

(* --- Netem stress battery: loss x reorder x CCA matrix ----------------- *)

let test_netem_matrix_battery () =
  let cells = Netem_eval.default_cells () in
  let seq = Netem_eval.run_matrix ~seed:4242 cells in
  (* Same master seed through a real multicore pool: the pre-split-RNG rule
     makes the whole matrix bit-identical for any --jobs. *)
  let par =
    Stob_par.Pool.with_pool ~domains:4 (fun pool ->
        Netem_eval.run_matrix ~pool ~seed:4242 cells)
  in
  Alcotest.(check bool) "matrix identical under --jobs 1 and --jobs 4" true (seq = par);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "cell converged: %s loss=%.3f reorder=%b" r.Netem_eval.cell.cca
           r.cell.loss r.cell.reorder)
        true (Netem_eval.converged r))
    seq;
  (* Impairment was actually exercised somewhere in the matrix. *)
  Alcotest.(check bool) "matrix induced losses" true
    (List.exists (fun r -> r.Netem_eval.netem_lost > 0) seq);
  Alcotest.(check bool) "matrix induced reordering" true
    (List.exists (fun r -> r.Netem_eval.netem_reordered > 0) seq)

(* A cell re-run alone (the way a failing cell is reproduced) must print
   its row of the full matrix: grid cells are seeded by grid index, not by
   their position in the list handed over. *)
let test_netem_cell_alone () =
  let cells = Netem_eval.default_cells () in
  let full = Netem_eval.run_matrix ~seed:4242 cells in
  List.iter2
    (fun c row ->
      Alcotest.(check bool)
        (Printf.sprintf "alone == matrix row: %s loss=%.3f reorder=%b" c.Netem_eval.cca c.loss
           c.reorder)
        true
        (Netem_eval.run_matrix ~seed:4242 [ c ] = [ row ]))
    cells full

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "tcp.rtt",
      [
        Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
        Alcotest.test_case "smoothing" `Quick test_rtt_smoothing;
        Alcotest.test_case "rto floor" `Quick test_rtt_min_floor;
        Alcotest.test_case "backoff" `Quick test_rtt_backoff;
      ] );
    ( "tcp.pacer",
      [
        Alcotest.test_case "spacing" `Quick test_pacer_spacing;
        Alcotest.test_case "infinite rate" `Quick test_pacer_infinite_rate;
      ] );
    ( "tcp.config",
      [
        Alcotest.test_case "tso unpaced" `Quick test_tso_autosize_unpaced;
        Alcotest.test_case "tso slow rate" `Quick test_tso_autosize_slow_rate;
        Alcotest.test_case "tso mid rate" `Quick test_tso_autosize_mid_rate;
        Alcotest.test_case "cwnd stops at the send buffer" `Quick test_cwnd_stops_at_send_buffer;
      ] );
    ( "tcp.hooks",
      [
        Alcotest.test_case "clamp" `Quick test_hooks_clamp;
        Alcotest.test_case "clamp allows reduction" `Quick test_hooks_clamp_allows_reduction;
        q prop_hooks_clamp_safe;
      ] );
    ( "tcp.qdisc",
      [
        Alcotest.test_case "fifo order" `Quick test_qdisc_fifo_order;
        Alcotest.test_case "fifo limit" `Quick test_qdisc_fifo_limit;
        Alcotest.test_case "fq fairness" `Quick test_qdisc_fq_fairness;
        Alcotest.test_case "fq backlog accounting" `Quick test_qdisc_fq_backlog_accounting;
        Alcotest.test_case "fq drains all" `Quick test_qdisc_fq_drains_all;
      ] );
    ( "tcp.connection",
      [
        Alcotest.test_case "handshake" `Quick test_handshake;
        Alcotest.test_case "small transfer" `Quick test_small_transfer;
        Alcotest.test_case "bulk conserves bytes" `Quick test_bulk_transfer_conserves_bytes;
        Alcotest.test_case "link-bound throughput" `Quick test_bulk_transfer_link_bound_throughput;
        Alcotest.test_case "clean path, no rtx" `Quick test_transfer_no_unneeded_retransmissions;
        Alcotest.test_case "loss recovery" `Quick test_loss_recovery;
        Alcotest.test_case "fq fairness between flows" `Quick test_fq_fairness_between_flows;
        Alcotest.test_case "sack heavy-loss recovery" `Quick test_sack_heavy_loss_recovery;
        Alcotest.test_case "sack blocks on acks" `Quick test_sack_blocks_on_acks;
        Alcotest.test_case "all CCAs complete" `Slow test_all_ccas_complete;
        Alcotest.test_case "all CCAs with loss" `Slow test_all_ccas_with_loss;
        Alcotest.test_case "rtt converges" `Quick test_rtt_estimate_converges;
        Alcotest.test_case "fin closes both" `Quick test_fin_closes_both;
        Alcotest.test_case "capture both directions" `Quick test_capture_sees_both_directions;
        Alcotest.test_case "path without a capture, same simulation" `Quick
          test_no_capture_same_simulation;
        Alcotest.test_case "heap and wheel run the same pipelines" `Quick test_queue_parity;
        Alcotest.test_case "packets respect mss" `Quick test_packets_respect_mss;
        Alcotest.test_case "pacing spreads departures" `Quick test_pacing_spreads_departures;
        Alcotest.test_case "small rwnd throttles" `Quick test_small_rwnd_limits_inflight;
        q prop_delivery_integrity;
      ] );
    ( "tcp.stob_hooks",
      [
        Alcotest.test_case "hook shrinks packets" `Quick test_hook_shrinks_packets;
        Alcotest.test_case "hook cannot inflate" `Quick test_hook_cannot_inflate;
        Alcotest.test_case "hook delay slows transfer" `Quick test_hook_delay_slows_transfer;
        Alcotest.test_case "dummies on wire, not delivered" `Quick
          test_dummy_packets_on_wire_not_delivered;
        Alcotest.test_case "cpu-bound throughput" `Quick test_cpu_bound_throughput;
      ] );
    ( "tcp.endpoint_regressions",
      [
        Alcotest.test_case "out-of-order FIN drained" `Quick test_ooo_fin_drained;
        Alcotest.test_case "partial-overlap FIN" `Quick test_partial_overlap_fin;
        Alcotest.test_case "karn: retransmitted SYN" `Quick test_karn_syn_retransmit;
        Alcotest.test_case "karn: retransmitted SYN|ACK" `Quick test_karn_synack_retransmit;
      ] );
    ( "tcp.preconditions",
      [
        Alcotest.test_case "write misuse raises" `Quick test_write_preconditions;
        Alcotest.test_case "connect misuse raises" `Quick test_connect_preconditions;
        Alcotest.test_case "send_dummy misuse raises" `Quick test_send_dummy_preconditions;
      ] );
    ( "tcp.window",
      [
        Alcotest.test_case "window update is not a dupack" `Quick test_window_update_not_dupack;
        Alcotest.test_case "zero window -> persist probing" `Quick test_zero_window_persist_probe;
        Alcotest.test_case "persist backoff stops at 60 s" `Quick test_persist_backoff_cap;
        Alcotest.test_case "send_dummy respects the window" `Quick test_send_dummy_zero_window;
        Alcotest.test_case "advertised window tracks buffer" `Quick
          test_advertised_window_tracks_buffer;
        Alcotest.test_case "delack lifecycle and teardown" `Quick test_delack_lifecycle_teardown;
        Alcotest.test_case "slow reader closes and reopens" `Quick
          test_slow_reader_zero_window_flow;
        Alcotest.test_case "bbr pacing survives zero window" `Quick
          test_bbr_pacing_survives_zero_window;
        Alcotest.test_case "soak deadlock seed replay" `Quick test_soak_deadlock_seed_replay;
        q prop_window_advertisement;
      ] );
    ( "tcp.negotiation",
      [
        Alcotest.test_case "syn options on the wire" `Quick test_syn_options_on_wire;
        Alcotest.test_case "mss negotiation" `Quick test_mss_negotiation;
        Alcotest.test_case "wscale negotiation and clamp" `Quick test_wscale_negotiation;
        Alcotest.test_case "fast retransmit without sack" `Quick test_non_sack_fast_retransmit;
        Alcotest.test_case "asymmetric cells converge" `Slow test_asymmetric_negotiation_cells;
      ] );
    ( "tcp.soak",
      [
        q prop_soak_mix_integrity;
        Alcotest.test_case "battery jobs parity" `Slow test_soak_battery_jobs_parity;
      ] );
    ( "tcp.impairment",
      [
        Alcotest.test_case "drop nth data -> fast retransmit" `Quick
          test_drop_nth_data_fast_retransmit;
        Alcotest.test_case "two holes -> partial-ack recovery" `Quick
          test_drop_two_holes_partial_ack;
        Alcotest.test_case "drop FIN -> rto" `Quick test_drop_fin_rto;
        Alcotest.test_case "drop lone packet -> rto" `Quick test_drop_single_packet_response_rto;
        Alcotest.test_case "drop pure ack -> harmless" `Quick test_drop_pure_ack_harmless;
        Alcotest.test_case "capture counts rtx" `Quick test_capture_counts_retransmissions;
        Alcotest.test_case "loss x reorder x cca matrix" `Slow test_netem_matrix_battery;
        Alcotest.test_case "matrix cell re-run alone == its row" `Quick test_netem_cell_alone;
      ] );
  ]
