module Engine = Stob_sim.Engine
module Rng = Stob_util.Rng
module Packet = Stob_net.Packet
module Endpoint = Stob_tcp.Endpoint
module Quic = Stob_quic.Endpoint
module Config = Stob_tcp.Config
module Netem_eval = Stob_tcp.Netem_eval
module Population = Stob_experiments.Population
module Pool = Stob_par.Pool
module Store = Stob_store.Store

(* ------------------------------------------------------------------ *)
(* Flow specification and per-flow driver.                              *)

type transport = Tcp | Quic

type flow_spec = {
  seed : int;
  transport : transport;
  cca : string;
  request : int;
  response : int;
  delay : float;
  loss : float;
  client : Config.t;
  server : Config.t;
  slow_reader : bool;
  read_chunk : int;
  read_interval : float;
  read_stall : float;
  pacer_jump : (float * float) option;
  flight : int;  (* QUIC: server handshake-flight bytes *)
  blackhole : (float * float) option;
      (* QUIC fault: [(after, duration)] — every datagram in both
         directions vanishes inside the window *)
  horizon : float;
}

type flow_result = {
  completed : bool;
  client_received : int;
  server_received : int;
  client_closed : bool;
  server_closed : bool;
  retransmissions : int;
  persist_probes : int;
  zero_windows : int;
  sack_negotiated : bool;
  wscale_negotiated : bool;
  snd_mss : int;
  pto_events : int;
  time_loss_detections : int;
  persistent_congestions : int;
  idle_closed : int;  (* endpoints that closed via the idle timeout (0-2) *)
}

(* The whole flow mix is drawn from one per-flow generator, in a fixed
   order, so a flow is a pure function of its seed (the jobs-parity and
   resume contracts both lean on this). *)
let spec_of_rng ?(horizon = 120.0) ?(transport = `Tcp) ~fault rng =
  (* The transport draw happens first and ONLY in [`Mixed] mode, and the
     QUIC-specific draws happen last and only for QUIC flows, so a [`Tcp]
     soak's per-flow draw streams are byte-identical to the pre-QUIC
     battery. *)
  let flow_transport =
    match transport with
    | `Tcp -> Tcp
    | `Quic -> Quic
    | `Mixed -> if Rng.bool rng then Quic else Tcp
  in
  let slow = Rng.int rng 8 = 0 in
  let sack_off = Rng.int rng 4 = 0 in
  let wscale_off = Rng.int rng 4 = 0 in
  let small_mss = Rng.int rng 6 = 0 in
  let lossy = Rng.int rng 4 = 0 in
  let delack = Rng.bool rng in
  let cca = Rng.choice rng [| "reno"; "cubic"; "bbr" |] in
  let request = 120 + Rng.int rng 1800 in
  let response = 2_000 + Rng.int rng 30_000 in
  let delay = 0.004 +. Rng.float rng 0.04 in
  let loss = if lossy then 0.002 +. Rng.float rng 0.018 else 0.0 in
  let read_chunk = 512 + Rng.int rng 4096 in
  let read_interval = 0.01 +. Rng.float rng 0.05 in
  (* Half the slow readers stall before their first read: the window stays
     closed across several persist backoffs, so zero-window probes actually
     fire (a reader that drains every few ms reopens the window before the
     first probe is due). *)
  let read_stall = if slow && Rng.bool rng then 0.5 +. Rng.float rng 2.5 else 0.0 in
  let rcv_wnd =
    if slow then (4 * 1024) + Rng.int rng (12 * 1024) else Config.default.Config.rcv_wnd
  in
  let pacer_jump =
    if fault && Rng.int rng 16 = 0 then Some (Rng.float rng 2.0, 0.05 +. Rng.float rng 0.2)
    else None
  in
  let seed = Rng.int rng 1_000_000_000 in
  let flight, blackhole =
    match flow_transport with
    | Tcp -> (0, None)
    | Quic ->
        (* Flight sized so a default client Initial's 3x amplification
           credit covers some flights and not others — both sides of the
           server's credit gate get population-scale exercise. *)
        let flight = 2_000 + Rng.int rng 3_000 in
        let blackhole =
          if fault && Rng.int rng 16 = 0 then Some (Rng.float rng 1.5, 0.05 +. Rng.float rng 0.4)
          else None
        in
        (flight, blackhole)
  in
  let client =
    {
      Config.default with
      Config.rcv_wnd;
      sack = not sack_off;
      wscale = not wscale_off;
      mss = (if small_mss then 536 else Config.default.Config.mss);
      delayed_ack = (if delack then 0.04 else 0.0);
    }
  in
  {
    seed;
    transport = flow_transport;
    cca;
    request;
    response;
    delay;
    loss;
    client;
    server = Config.default;
    slow_reader = slow;
    read_chunk;
    read_interval;
    read_stall;
    pacer_jump;
    flight;
    blackhole;
    horizon;
  }

(* One request/response/close flow over a direct endpoint-to-endpoint
   link: fixed one-way delay, i.i.d. loss in both directions, no shared
   bottleneck.  The flow starts at [start] and is reaped exactly
   [spec.horizon] later: its result is harvested and every reference the
   harness holds is dropped, so shard memory stays O(active flows), never
   O(flows).  Late packets and timers of a reaped flow hit dead refs and
   are no-ops. *)
let add_flow ~engine ~monitor ~id ~start ~on_done spec =
  ignore
    (Engine.schedule_at engine ~time:start (fun () ->
         let rng = Rng.create spec.seed in
         let client_ref = ref None and server_ref = ref None in
         let live = ref true in
         let tx src dst pkts =
           Array.iter
             (fun p ->
               let lost = spec.loss > 0.0 && Rng.bernoulli rng spec.loss in
               (match !src with Some e -> Endpoint.notify_serialized e p | None -> ());
               if not lost then
                 ignore
                   (Engine.schedule engine ~delay:spec.delay (fun () ->
                        match !dst with Some e -> Endpoint.receive e p | None -> ())))
             pkts
         in
         let factory = Netem_eval.cc_of_name spec.cca in
         let client =
           Endpoint.create ~engine ~config:spec.client ~cc:(factory spec.client) ~flow:id
             ~dir:Packet.Outgoing ~tx:(tx client_ref server_ref) ()
         in
         let server =
           Endpoint.create ~engine ~config:spec.server ~cc:(factory spec.server) ~flow:id
             ~dir:Packet.Incoming ~tx:(tx server_ref client_ref) ()
         in
         client_ref := Some client;
         server_ref := Some server;
         Monitor.observe_endpoint monitor ~name:(Printf.sprintf "flow-%d/client" id) client;
         Monitor.observe_endpoint monitor ~name:(Printf.sprintf "flow-%d/server" id) server;
         let client_received = ref 0 and server_received = ref 0 and responded = ref false in
         Endpoint.set_on_receive server (fun n ->
             server_received := !server_received + n;
             if (not !responded) && !server_received >= spec.request then begin
               responded := true;
               Endpoint.write server spec.response;
               Endpoint.close server
             end);
         Endpoint.set_on_receive client (fun n -> client_received := !client_received + n);
         Endpoint.set_on_fin client (fun () -> Endpoint.close client);
         if spec.slow_reader then begin
           Endpoint.set_auto_read client false;
           let rec pump () =
             if !live then begin
               ignore (Endpoint.read client spec.read_chunk);
               ignore (Engine.schedule engine ~delay:spec.read_interval pump)
             end
           in
           let first = if spec.read_stall > 0.0 then spec.read_stall else spec.read_interval in
           ignore (Engine.schedule engine ~delay:first pump)
         end;
         (match spec.pacer_jump with
         | Some (after, jump) ->
             ignore
               (Engine.schedule engine ~delay:after (fun () ->
                    match !server_ref with
                    | Some e when !live -> Endpoint.inject_pacer_jump e jump
                    | _ -> ()))
         | None -> ());
         Endpoint.set_on_established client (fun () -> Endpoint.write client spec.request);
         Endpoint.connect client;
         ignore
           (Engine.schedule engine ~delay:spec.horizon (fun () ->
                live := false;
                let ci = Endpoint.inspect client and si = Endpoint.inspect server in
                let r =
                  {
                    completed =
                      !client_received = spec.response
                      && !server_received = spec.request
                      && Endpoint.closed client && Endpoint.closed server;
                    client_received = !client_received;
                    server_received = !server_received;
                    client_closed = Endpoint.closed client;
                    server_closed = Endpoint.closed server;
                    retransmissions =
                      Endpoint.retransmissions client + Endpoint.retransmissions server;
                    persist_probes =
                      Endpoint.persist_probes client + Endpoint.persist_probes server;
                    zero_windows = Endpoint.zero_windows client + Endpoint.zero_windows server;
                    sack_negotiated = si.Endpoint.sack_ok;
                    wscale_negotiated =
                      ci.Endpoint.rcv_wscale > 0 || si.Endpoint.rcv_wscale > 0;
                    snd_mss = si.Endpoint.snd_mss;
                    pto_events = 0;
                    time_loss_detections = 0;
                    persistent_congestions = 0;
                    idle_closed = 0;
                  }
                in
                client_ref := None;
                server_ref := None;
                on_done r))))

(* One QUIC request/response flow over the same kind of direct link: fixed
   one-way delay, i.i.d. loss, and optionally a datagram-blackhole window
   (both directions vanish).  The client sends its request on stream 4 at
   handshake confirmation; the server answers on its own stream 4 at the
   request FIN and is then left to the {e idle timeout} — every clean QUIC
   flow exercises the idle-close + quiesce path at population scale.  The
   client closes shortly after the response FIN (a grace delay lets its
   final delayed ACK out before close quiesces the ACK timer). *)
let add_quic_flow ~engine ~monitor ~id ~start ~on_done spec =
  ignore
    (Engine.schedule_at engine ~time:start (fun () ->
         let rng = Rng.create spec.seed in
         let client_ref = ref None and server_ref = ref None in
         let wire = Quic.create_wire 64 in
         let bh =
           Option.map (fun (after, dur) -> (start +. after, start +. after +. dur)) spec.blackhole
         in
         let tx dst pkts =
           Array.iter
             (fun p ->
               let nw = Engine.now engine in
               let blackholed =
                 match bh with Some (a, b) -> nw >= a && nw < b | None -> false
               in
               let lost = spec.loss > 0.0 && Rng.bernoulli rng spec.loss in
               if not (blackholed || lost) then
                 ignore
                   (Engine.schedule engine ~delay:spec.delay (fun () ->
                        match !dst with Some e -> Quic.receive e p | None -> ())))
             pkts
         in
         let factory = Netem_eval.cc_of_name spec.cca in
         let qconfig = Quic.default_config in
         let client =
           Quic.create ~engine ~cc:(factory qconfig) ~flow:id
             ~dir:Packet.Outgoing ~wire ~tx:(tx server_ref) ()
         in
         let server =
           Quic.create ~engine ~cc:(factory qconfig) ~flow:id
             ~dir:Packet.Incoming ~wire ~tx:(tx client_ref) ()
         in
         client_ref := Some client;
         server_ref := Some server;
         Monitor.observe_quic monitor ~name:(Printf.sprintf "flow-%d/client" id) client;
         Monitor.observe_quic monitor ~name:(Printf.sprintf "flow-%d/server" id) server;
         let client_received = ref 0 and server_received = ref 0 and responded = ref false in
         Quic.set_on_stream server (fun ~stream:_ n -> server_received := !server_received + n);
         Quic.set_on_stream_fin server (fun ~stream:_ ->
             if not !responded then begin
               responded := true;
               Quic.send_stream server ~stream:4 ~fin:true spec.response
             end);
         Quic.set_on_stream client (fun ~stream:_ n -> client_received := !client_received + n);
         Quic.set_on_stream_fin client (fun ~stream:_ ->
             ignore
               (Engine.schedule engine ~delay:0.06 (fun () ->
                    match !client_ref with Some c -> Quic.close c | None -> ())));
         Quic.set_on_established client (fun () ->
             Quic.send_stream client ~stream:4 ~fin:true spec.request);
         Quic.listen server ~flight_bytes:spec.flight;
         Quic.connect client;
         ignore
           (Engine.schedule engine ~delay:spec.horizon (fun () ->
                (* Reap-time state sweep: the hook observer only fires on
                   sends, so a flow that wedged silently is still checked
                   here. *)
                List.iter
                  (fun (name, ep) ->
                    match Monitor.check_quic_inspection (Quic.inspect ep) with
                    | Some (invariant, detail) ->
                        Monitor.record monitor
                          (Violation.make ~invariant ~time:(Engine.now engine) ~flow:id
                             (Printf.sprintf "flow-%d/%s: %s" id name detail))
                    | None -> ())
                  [ ("client", client); ("server", server) ];
                let idle_closed ep =
                  match Quic.close_reason ep with Some "idle-timeout" -> 1 | _ -> 0
                in
                let r =
                  {
                    completed =
                      !client_received = spec.response
                      && !server_received = spec.request
                      && Quic.closed client && Quic.closed server;
                    client_received = !client_received;
                    server_received = !server_received;
                    client_closed = Quic.closed client;
                    server_closed = Quic.closed server;
                    retransmissions = Quic.rtx_datagrams client + Quic.rtx_datagrams server;
                    persist_probes = 0;
                    zero_windows = 0;
                    sack_negotiated = false;
                    wscale_negotiated = false;
                    snd_mss = qconfig.Config.mss;
                    pto_events = Quic.pto_events client + Quic.pto_events server;
                    time_loss_detections =
                      Quic.time_loss_detections client + Quic.time_loss_detections server;
                    persistent_congestions =
                      Quic.persistent_congestions client + Quic.persistent_congestions server;
                    idle_closed = idle_closed client + idle_closed server;
                  }
                in
                client_ref := None;
                server_ref := None;
                on_done r))))

let run_flow spec =
  let engine = Engine.create () in
  let monitor = Monitor.create engine in
  Monitor.attach_engine monitor;
  let out = ref None in
  let add = match spec.transport with Tcp -> add_flow | Quic -> add_quic_flow in
  add ~engine ~monitor ~id:1 ~start:0.0 ~on_done:(fun r -> out := Some r) spec;
  Engine.run ~until:(spec.horizon +. 1.0) engine;
  match !out with
  | Some r -> (r, Monitor.counts monitor)
  | None -> failwith "Soak.run_flow: flow was never reaped"

(* ------------------------------------------------------------------ *)
(* Shards: one engine, one monitor, every visit of the shard's users.   *)

type config = {
  population : Population.config;
      (* [plan_shard] supplies arrival times and per-flow seeds; expected
         flow count is users * mean_sessions * mean_session_visits. *)
  flow_horizon : float;  (* per-flow lifetime before the reaper fires, seconds *)
  fault_period : int;
      (* every [n]th shard arms faults (TCP pacer jumps, QUIC datagram
         blackholes); 0 = never *)
  transport : [ `Tcp | `Quic | `Mixed ];  (* flow population mix *)
}

let default_config =
  {
    population =
      {
        Population.default_config with
        Population.users = 110_000;
        shards = 64;
        mean_sessions = 2.5;
        mean_session_visits = 4.0;
        seed = 271;
      };
    flow_horizon = 120.0;
    fault_period = 4;
    transport = `Tcp;
  }

let smoke_config =
  {
    population =
      {
        Population.default_config with
        Population.users = 220;
        shards = 4;
        mean_sessions = 2.5;
        mean_session_visits = 4.0;
        day_seconds = 3_600.0;
        seed = 271;
      };
    flow_horizon = 120.0;
    fault_period = 4;
    transport = `Tcp;
  }

type shard_report = {
  shard : int;
  flows : int;
  quic_flows : int;
  completed : int;
  client_bytes : int;
  retransmissions : int;
  persist_probes : int;
  zero_window_flows : int;
  slow_reader_flows : int;
  sack_off_flows : int;
  wscale_off_flows : int;
  pto_events : int;
  time_loss_detections : int;
  persistent_congestions : int;
  idle_closed : int;
  faulted : bool;
  faults : int;  (* pacer jumps + datagram blackholes actually armed *)
  violations : (string * int) list;
  total_violations : int;
  sim_seconds : float;
}

let fault_shard config shard =
  config.fault_period > 0 && shard mod config.fault_period = config.fault_period - 1

(* Pure in (config, shard): all randomness comes from the plan's per-visit
   seeds, so shards can run on any pool, in any order, with identical
   reports. *)
let run_shard config shard =
  let engine = Engine.create () in
  let monitor = Monitor.create engine in
  Monitor.attach_engine monitor;
  let visits = Population.plan_shard config.population ~shard in
  let faulted = fault_shard config shard in
  let completed = ref 0
  and bytes = ref 0
  and rtx = ref 0
  and probes = ref 0
  and zero_wnd = ref 0
  and slow = ref 0
  and sack_off = ref 0
  and wscale_off = ref 0
  and quic = ref 0
  and ptos = ref 0
  and time_loss = ref 0
  and persistent = ref 0
  and idle = ref 0
  and faults = ref 0 in
  Array.iteri
    (fun i v ->
      let rng = Rng.create v.Population.trace_seed in
      let spec =
        spec_of_rng ~horizon:config.flow_horizon ~transport:config.transport ~fault:faulted rng
      in
      let add =
        match spec.transport with
        | Tcp ->
            if spec.pacer_jump <> None then incr faults;
            add_flow
        | Quic ->
            incr quic;
            if spec.blackhole <> None then incr faults;
            add_quic_flow
      in
      if spec.slow_reader then incr slow;
      if not spec.client.Config.sack then incr sack_off;
      if not spec.client.Config.wscale then incr wscale_off;
      add ~engine ~monitor ~id:i ~start:v.Population.start spec ~on_done:(fun r ->
          if r.completed then incr completed;
          bytes := !bytes + r.client_received;
          rtx := !rtx + r.retransmissions;
          probes := !probes + r.persist_probes;
          ptos := !ptos + r.pto_events;
          time_loss := !time_loss + r.time_loss_detections;
          persistent := !persistent + r.persistent_congestions;
          idle := !idle + r.idle_closed;
          if r.zero_windows > 0 then incr zero_wnd))
    visits;
  (* Horizon past the LAST arrival (session dwell pushes visits past the
     day boundary, so day_seconds alone would strand late reaps) plus one
     persist-probe cap of slack for straggler timers. *)
  let last_start =
    Array.fold_left (fun acc v -> Float.max acc v.Population.start) 0.0 visits
  in
  Engine.run ~until:(last_start +. config.flow_horizon +. 61.0) engine;
  Monitor.check_now monitor ~now:(Engine.now engine);
  {
    shard;
    flows = Array.length visits;
    quic_flows = !quic;
    completed = !completed;
    client_bytes = !bytes;
    retransmissions = !rtx;
    persist_probes = !probes;
    zero_window_flows = !zero_wnd;
    slow_reader_flows = !slow;
    sack_off_flows = !sack_off;
    wscale_off_flows = !wscale_off;
    pto_events = !ptos;
    time_loss_detections = !time_loss;
    persistent_congestions = !persistent;
    idle_closed = !idle;
    faulted;
    faults = !faults;
    violations = Monitor.counts monitor;
    total_violations = Monitor.total monitor;
    sim_seconds = Engine.now engine;
  }

(* ------------------------------------------------------------------ *)
(* Whole-soak driver: resumable, retryable, heap-watched.               *)

type summary = {
  shards : int;
  cached_shards : int;
  flows : int;
  quic_flows : int;
  completed : int;
  client_bytes : int;
  retransmissions : int;
  persist_probes : int;
  zero_window_flows : int;
  slow_reader_flows : int;
  sack_off_flows : int;
  wscale_off_flows : int;
  pto_events : int;
  time_loss_detections : int;
  persistent_congestions : int;
  idle_closed : int;
  faults : int;
  violations : (string * int) list;
  fault_free_violations : int;
  sim_flow_hours : float;
  peak_heap_growth_words : int;
  reports : shard_report list;
}

let merge_counts a b =
  List.fold_left
    (fun acc (k, n) ->
      let mine (k', _) = String.equal k k' in
      let prev = match List.find_opt mine acc with Some (_, v) -> v | None -> 0 in
      (k, prev + n) :: List.filter (fun e -> not (mine e)) acc)
    a b
  |> List.sort (fun (k, n) (k', n') ->
         match String.compare k k' with 0 -> Int.compare n n' | c -> c)

let shard_key i = Printf.sprintf "soak/shard=%03d" i

let transport_name = function `Tcp -> "tcp" | `Quic -> "quic" | `Mixed -> "mixed"

let transport_of_name = function
  | "tcp" -> `Tcp
  | "quic" -> `Quic
  | "mixed" -> `Mixed
  | s -> invalid_arg ("Soak.transport_of_name: unknown transport " ^ s)

let config_fields config =
  ("flow_horizon", Printf.sprintf "%g" config.flow_horizon)
  :: ("fault_period", string_of_int config.fault_period)
  :: ("transport", transport_name config.transport)
  :: ("population_seed", string_of_int config.population.Population.seed)
  :: Population.config_fields config.population

let run ?(pool = Pool.sequential) ?state_dir ?(retries = 0) ?on_shard config =
  let n = config.population.Population.shards in
  let store = Option.map Store.open_ state_dir in
  Fun.protect ~finally:(fun () -> Option.iter Store.close store) @@ fun () ->
  Option.iter
    (fun s ->
      Store.set_manifest s ~experiment:"tcp-soak" ~fields:(config_fields config) ~total:n)
    store;
  (* Replay the journal up front (never from worker domains): shards with a
     recorded report are served from the cache, only the rest recompute. *)
  let cached =
    Array.init n (fun i ->
        match store with
        | None -> None
        | Some s -> (
            match Store.find s (shard_key i) with
            | Some (Store.Done payload) -> Some (Marshal.from_string payload 0 : shard_report)
            | Some (Store.Poisoned _) | None -> None))
  in
  let cached_shards = ref 0 in
  Gc.full_major ();
  let baseline = (Gc.stat ()).Gc.live_words in
  let peak_growth = ref 0 in
  let compute i =
    match cached.(i) with
    | Some r -> r
    | None ->
        let rec attempt k = try run_shard config i with _ when k < retries -> attempt (k + 1) in
        attempt 0
  in
  let reports =
    Pool.map pool compute
      (Array.init n (fun i -> i))
      ~on_done:(fun i r ->
        (match (store, cached.(i)) with
        | Some s, None ->
            Store.record s ~key:(shard_key i) ~label:(shard_key i)
              (Store.Done (Marshal.to_string r []));
            (* Shard boundary: size-bounded auto-compaction so a long
               soak's journal stops growing monotonically. *)
            ignore (Store.maybe_checkpoint s)
        | Some _, Some _ -> incr cached_shards
        | None, _ -> ());
        Gc.full_major ();
        peak_growth := Int.max !peak_growth ((Gc.stat ()).Gc.live_words - baseline);
        Option.iter (fun f -> f r) on_shard)
  in
  let reports = Array.to_list reports in
  let sum (f : shard_report -> int) =
    List.fold_left (fun acc r -> acc + f r) 0 reports
  in
  {
    shards = n;
    cached_shards = !cached_shards;
    flows = sum (fun r -> r.flows);
    quic_flows = sum (fun r -> r.quic_flows);
    completed = sum (fun r -> r.completed);
    client_bytes = sum (fun r -> r.client_bytes);
    retransmissions = sum (fun r -> r.retransmissions);
    persist_probes = sum (fun r -> r.persist_probes);
    zero_window_flows = sum (fun r -> r.zero_window_flows);
    slow_reader_flows = sum (fun r -> r.slow_reader_flows);
    sack_off_flows = sum (fun r -> r.sack_off_flows);
    wscale_off_flows = sum (fun r -> r.wscale_off_flows);
    pto_events = sum (fun r -> r.pto_events);
    time_loss_detections = sum (fun r -> r.time_loss_detections);
    persistent_congestions = sum (fun r -> r.persistent_congestions);
    idle_closed = sum (fun r -> r.idle_closed);
    faults = sum (fun r -> r.faults);
    violations =
      List.fold_left (fun acc (r : shard_report) -> merge_counts acc r.violations) [] reports;
    fault_free_violations =
      sum (fun r -> if r.faulted then 0 else r.total_violations);
    sim_flow_hours =
      float_of_int (sum (fun r -> r.flows)) *. config.flow_horizon /. 3_600.0;
    peak_heap_growth_words = !peak_growth;
    reports;
  }

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>flows %d (%d quic; completed %d, %.4f%%), %d shards (%d cached)@,\
     client bytes %d, rtx %d@,\
     persist probes %d, zero-window flows %d, slow readers %d@,\
     sack-off flows %d, wscale-off flows %d, faults %d@,\
     quic: ptos %d, time-loss %d, persistent-cc %d, idle-closed %d@,\
     simulated flow-hours %.1f, peak heap growth %d MiB@,\
     violations: %s@]"
    s.flows s.quic_flows s.completed
    (if s.flows = 0 then 0.0 else 100.0 *. float_of_int s.completed /. float_of_int s.flows)
    s.shards s.cached_shards s.client_bytes s.retransmissions s.persist_probes
    s.zero_window_flows s.slow_reader_flows s.sack_off_flows s.wscale_off_flows s.faults
    s.pto_events s.time_loss_detections s.persistent_congestions s.idle_closed
    s.sim_flow_hours
    (s.peak_heap_growth_words * 8 / 1_048_576)
    (if s.violations = [] then "none"
     else
       String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) s.violations))
