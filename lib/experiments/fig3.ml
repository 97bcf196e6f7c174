module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu
module Units = Stob_util.Units
module Endpoint = Stob_tcp.Endpoint
module Connection = Stob_tcp.Connection
module Path = Stob_tcp.Path

type point = {
  alpha : int;
  baseline_gbps : float;
  packet_gbps : float;
  tso_gbps : float;
  combined_gbps : float;
}

type config = {
  alphas : int list;
  link_gbps : float;
  rtt : float;
  warmup : float;
  measure : float;
  cc : Stob_tcp.Cc.factory;
  cc_name : string;
}

let default_config =
  {
    alphas = [ 0; 4; 8; 12; 16; 20; 24; 28; 32; 36; 40 ];
    link_gbps = 100.0;
    rtt = 50e-6;
    warmup = 0.05;
    measure = 0.15;
    cc = Stob_tcp.Cubic.make;
    cc_name = "cubic";
  }

let throughput_with_policy ~config ~policy =
  let engine = Engine.create () in
  let path =
    Path.create ~engine ~rate_bps:(Units.gbps config.link_gbps) ~delay:(config.rtt /. 2.0)
      ~capture:false ()
  in
  let cpu = Cpu.create engine in
  let hooks = Stob_core.Controller.hooks (Stob_core.Controller.create policy) in
  let conn =
    Connection.create ~engine ~path ~flow:1 ~cc:config.cc
      ~server_cpu:(cpu, Stob_tcp.Cpu_costs.default_server) ~server_hooks:hooks ()
  in
  let server = Connection.server conn in
  (* iperf3-style bulk source: keep the send queue topped up for the whole
     run via a periodic refill. *)
  let rec refill () =
    if Endpoint.established server && Endpoint.unsent server < 16_000_000 then
      Endpoint.write server 64_000_000;
    ignore (Engine.schedule engine ~delay:0.002 refill)
  in
  ignore (Engine.schedule engine ~delay:0.0 refill);
  Connection.on_established conn (fun () -> Endpoint.write (Connection.client conn) 64);
  Connection.open_ conn;
  let mark = ref 0 in
  ignore (Engine.schedule engine ~delay:config.warmup (fun () -> mark := Path.server_link_bytes path));
  Engine.run ~until:(config.warmup +. config.measure) engine;
  let bytes = Path.server_link_bytes path - !mark in
  Units.throughput_bps ~bytes ~seconds:config.measure

let run ?(config = default_config) ?pool ?retries ?inject ?store ?on_report () =
  (* One cell per simulation: the baseline, then each distinct nonzero
     alpha's three series.  Every cell simulates on its own engine and
     draws no randomness, so the sweep is embarrassingly parallel and
     trivially deterministic, and cells of one simulation each keep the
     domains evenly loaded. *)
  let shared_fields =
    [ ("link_gbps", Printf.sprintf "%.17g" config.link_gbps);
      ("rtt", Printf.sprintf "%.17g" config.rtt);
      ("warmup", Printf.sprintf "%.17g" config.warmup);
      ("measure", Printf.sprintf "%.17g" config.measure);
      ("cc", config.cc_name) ]
  in
  let sweep_alphas = List.sort_uniq compare (List.filter (fun a -> a <> 0) config.alphas) in
  Option.iter
    (fun s ->
      Stob_store.Store.set_manifest s ~experiment:"fig3"
        ~fields:
          (("alphas", String.concat "," (List.map string_of_int config.alphas)) :: shared_fields)
        ~total:(1 + (3 * List.length sweep_alphas)))
    store;
  (* The [series] field keeps every digest apart from the cells of earlier
     builds, whose payloads were not one float: such a journal entry is
     recomputed, never decoded. *)
  let cell ~label ~point ~series policy =
    {
      Stob_store.Supervisor.label;
      config = ("point", point) :: ("series", series) :: shared_fields;
      seed = 0;
      run =
        (fun ~attempt:_ ->
          Units.to_gbps ~bits_per_sec:(throughput_with_policy ~config ~policy));
    }
  in
  let series =
    [ ("packet", Stob_core.Strategies.incremental_packet_reduction);
      ("tso", Stob_core.Strategies.incremental_tso_reduction);
      ("combined", Stob_core.Strategies.incremental_combined) ]
  in
  let cells =
    cell ~label:"fig3/baseline" ~point:"baseline" ~series:"baseline"
      Stob_core.Policy.unmodified
    :: List.concat_map
         (fun alpha ->
           List.map
             (fun (name, strategy) ->
               cell
                 ~label:(Printf.sprintf "fig3/alpha=%d/%s" alpha name)
                 ~point:(string_of_int alpha) ~series:name (strategy ~alpha))
             series)
         sweep_alphas
  in
  let results, report =
    Evalcommon.run_cells ?pool ?retries ?inject ?store ~experiment:"fig3" cells
  in
  Option.iter (fun f -> f report) on_report;
  (* A poisoned cell renders its one series as nan. *)
  let gbps = List.map (function Ok v -> v | Error _ -> Float.nan) results in
  let baseline_gbps = List.hd gbps in
  let rec by_alpha alphas gbps =
    match (alphas, gbps) with
    | alpha :: alphas, packet :: tso :: combined :: gbps ->
        (alpha, (packet, tso, combined)) :: by_alpha alphas gbps
    | _ -> []
  in
  let by_alpha = by_alpha sweep_alphas (List.tl gbps) in
  List.map
    (fun alpha ->
      let packet_gbps, tso_gbps, combined_gbps =
        Option.value
          (List.find_map (fun (a, v) -> if Int.equal a alpha then Some v else None) by_alpha)
          ~default:(baseline_gbps, baseline_gbps, baseline_gbps)
      in
      { alpha; baseline_gbps; packet_gbps; tso_gbps; combined_gbps })
    config.alphas

let print points =
  Printf.printf
    "Figure 3: throughput vs. maximum reduction degree (100 Gb/s link, one core)\n";
  Printf.printf "%-7s %-14s %-14s %-14s %-14s\n" "alpha" "baseline" "packet-size" "tso-size"
    "combined";
  let gbps v = if Float.is_nan v then "poisoned" else Printf.sprintf "%.1f Gb/s" v in
  List.iter
    (fun p ->
      Printf.printf "%-7d %-14s %-14s %-14s %-14s\n" p.alpha (gbps p.baseline_gbps)
        (gbps p.packet_gbps) (gbps p.tso_gbps) (gbps p.combined_gbps))
    points
