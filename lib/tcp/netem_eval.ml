module Engine = Stob_sim.Engine
module Netem = Stob_sim.Netem
module Capture = Stob_net.Capture
module Rng = Stob_util.Rng
module Units = Stob_util.Units

type cell = { cca : string; loss : float; reorder : bool }

type result = {
  cell : cell;
  client_received : int;
  server_received : int;
  client_closed : bool;
  server_closed : bool;
  server_rtx : int;
  client_rtx : int;
  fast_recoveries : int;
  rto_events : int;
  netem_lost : int;
  netem_reordered : int;
  netem_duplicated : int;
  queue_drops : int;
  captured_rtx : int;
  finish_time : float;
  pending_events : int;
}

let default_cells () =
  List.concat_map
    (fun (cca, _) ->
      List.concat_map
        (fun loss -> List.map (fun reorder -> { cca; loss; reorder }) [ false; true ])
        [ 0.0; 0.005; 0.02 ])
    Connection.ccas

let run_cell ?(rate_bps = Units.mbps 20.0) ?(delay = 0.015) ?(response = 150_000)
    ?(duplicate = 0.0) ?(jitter = 0.0) ?client_config ?server_config ~seed cell =
  let engine = Engine.create () in
  (* Distinct per-direction netem seeds derived from the cell seed. *)
  let seeder = Rng.create seed in
  let netem_config () =
    {
      Netem.default with
      Netem.loss = (if cell.loss > 0.0 then Netem.Iid cell.loss else Netem.No_loss);
      reorder_prob = (if cell.reorder then 0.05 else 0.0);
      reorder_depth = 3;
      reorder_hold = (2.0 *. delay) +. 0.01;
      duplicate_prob = duplicate;
      jitter;
      seed = Rng.int seeder 1_000_000_000;
    }
  in
  let client_netem = Netem.spec (netem_config ()) in
  let server_netem = Netem.spec (netem_config ()) in
  let path =
    Path.create ~engine ~rate_bps ~delay ~queue_capacity:(256 * 1024) ~client_netem ~server_netem ()
  in
  let conn =
    Connection.create ~engine ~path ~flow:1 ?client_config ?server_config
      ~cc:(Connection.cc_of_name cell.cca) ()
  in
  let client = Connection.client conn and server = Connection.server conn in
  let x = Connection.request_response ~engine ~client ~server ~request:2_000 ~response in
  Connection.open_ conn;
  Engine.run ~until:120.0 engine;
  let netem = Path.netem_stats path in
  {
    cell;
    client_received = x.client_received;
    server_received = x.server_received;
    client_closed = Endpoint.closed client;
    server_closed = Endpoint.closed server;
    server_rtx = Endpoint.retransmissions server;
    client_rtx = Endpoint.retransmissions client;
    fast_recoveries = Endpoint.fast_recoveries server;
    rto_events = Endpoint.rto_events server;
    netem_lost = netem.Netem.lost;
    netem_reordered = netem.Netem.reordered;
    netem_duplicated = netem.Netem.duplicated;
    queue_drops = Path.drops path;
    captured_rtx = Capture.rtx_count (Path.capture path);
    finish_time = x.last_activity;
    pending_events = Engine.pending engine;
  }

let run_matrix ?(pool = Stob_par.Pool.sequential) ?rate_bps ?delay ?response ?duplicate ?jitter
    ~seed cells =
  (* Pre-split-RNG rule, keyed by the acceptance grid: a grid cell takes
     the seed of its index in [default_cells ()], so any subset re-runs
     its rows of the full matrix; off-grid cells draw after the grid, in
     list order.  All seeds are drawn before the pool sees a task. *)
  let master = Rng.create seed in
  let grid = List.map (fun c -> (c, Rng.int master max_int)) (default_cells ()) in
  let same a b = String.equal a.cca b.cca && a.loss = b.loss && Bool.equal a.reorder b.reorder in
  let seed_of c =
    match List.find_opt (fun (g, _) -> same g c) grid with
    | Some (_, s) -> s
    | None -> Rng.int master max_int
  in
  let tasks = Array.of_list (List.map (fun c -> (c, seed_of c)) cells) in
  Array.to_list
    (Stob_par.Pool.map pool
       (fun (c, s) -> run_cell ?rate_bps ?delay ?response ?duplicate ?jitter ~seed:s c)
       tasks)

let converged r =
  let rtx_bound = 30 + (10 * (r.netem_lost + r.queue_drops + r.netem_reordered)) in
  r.client_received > 0 && r.server_received > 0 && r.client_closed && r.server_closed
  && r.pending_events = 0
  && r.server_rtx + r.client_rtx <= rtx_bound

let print_matrix results =
  Printf.printf "%-5s %-6s %-7s  %-4s %-9s %-11s %-14s %-5s %-4s  %s\n" "cca" "loss" "reorder"
    "conv" "time" "bytes(c/s)" "rtx(srv+cli)" "fast" "rto" "netem lost/reord/dup qdrop";
  List.iter
    (fun r ->
      Printf.printf "%-5s %-6.3f %-7b  %-4b %7.3f s %6d/%-4d %6d+%-7d %-5d %-4d  %d/%d/%d %d\n"
        r.cell.cca r.cell.loss r.cell.reorder (converged r) r.finish_time r.client_received
        r.server_received r.server_rtx r.client_rtx r.fast_recoveries r.rto_events r.netem_lost
        r.netem_reordered r.netem_duplicated r.queue_drops)
    results
