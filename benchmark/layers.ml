(* Per-layer metrics, computed from the spans and counters of the traced
   rounds.  Every workload reports every metric; a layer a workload never
   calls reads 0.

   Shares of wall time are taken on the main domain's timeline, which the
   harness's root span covers: each layer's self time there, plus the time
   the main domain waits on workers (par), plus the harness's own
   remainder, adds up to the traced wall time.  Per-unit costs use the
   spans of every domain. *)

open Spans

let wall_share_layers = [ "web"; "defense"; "kfp"; "ml"; "nn"; "store"; "population"; "sim"; "core"; "par" ]

let div a b = if b = 0.0 then 0.0 else a /. b

(** [compute] takes the traced rounds' spans (each under a root span named
    [root]) and counters, plus the median untraced and traced round wall
    times and CPU utilisation of the same run; returns the catalog's
    (name, unit, value) triples. *)
let compute ~root ~spans ~counters ~rounds ~untraced_wall ~traced_wall ~cpu_util =
  let selfs = self_times spans in
  let roots = List.filter (fun s -> s.name = root) spans in
  let main = match roots with (r : span) :: _ -> r.domain | [] -> -1 in
  let wall = List.fold_left (fun a s -> a +. s.dur) 0.0 roots in
  let main_self pred =
    List.fold_left (fun a ((s : span), self) -> if s.domain = main && pred s then a +. self else a) 0.0 selfs
  in
  let named pred = List.filter (fun s -> pred s.name) spans in
  let is n s = s = n and prefix p s = String.starts_with ~prefix:p s in
  let sum f l = List.fold_left (fun a s -> a +. f s) 0.0 l in
  let dur = sum (fun s -> s.dur) and items = sum (fun s -> float_of_int s.items) in
  let calls = sum (fun s -> float_of_int s.calls) and words = sum (fun s -> s.minor_words) in
  let n l = float_of_int (List.length l) in
  let per_round v = div v (float_of_int rounds) in
  let counter k = Option.value ~default:0.0 (Hashtbl.find_opt counters k) in
  let pct p l = Stob_util.Stats.percentile (Array.of_list (List.map (fun s -> s.dur *. 1e3) l)) p in
  let kfp = named (is "kfp.extract") and defense = named (is "defense.emulate") in
  let train = named (is "ml.train") and predict = named (is "ml.predict") in
  let writes = named (is "store.write") and reads = named (is "store.read") in
  let synth = named (is "population.synth") in
  let visits = named (prefix "web.visit.") in
  let tcp = named (prefix "web.visit.tcp") and quic = named (prefix "web.visit.quic") in
  let sim = named (is "sim.run") and hook = named (is "core.hook") in
  let epochs = named (is "nn.train") in
  let mean_dur l = div (dur l) (n l) in
  let slowdown base = div (mean_dur (named (is (base ^ "+stob")))) (mean_dur (named (is base))) in
  let sim_self = sum (fun (_, self) -> self) (List.filter (fun (s, _) -> s.name = "sim.run") selfs) in
  [
    ("trace.overhead_share", "share", div traced_wall untraced_wall -. 1.0);
    ("trace.coverage", "share", 1.0 -. div (main_self (fun s -> s.name = root)) wall);
    ("par.cpu_util", "share", cpu_util);
  ]
  @ List.map
      (fun l -> (l ^ ".wall_share", "share", div (main_self (fun s -> s.layer = l)) wall))
      wall_share_layers
  @ [
      ("kfp.calls", "count", per_round (n kfp));
      ("kfp.us_per_trace", "us/trace", div (dur kfp) (n kfp) *. 1e6);
      ("kfp.ns_per_packet", "ns/packet", div (dur kfp) (items kfp) *. 1e9);
      ("kfp.alloc_mwords_per_trace", "Mword/trace", div (words kfp) (n kfp) /. 1e6);
      ("defense.us_per_trace", "us/trace", div (dur defense) (n defense) *. 1e6);
      ("defense.alloc_mwords_per_trace", "Mword/trace", div (words defense) (n defense) /. 1e6);
      ("ml.ms_per_tree", "ms/tree", div (dur train) (items train) *. 1e3);
      ("ml.predict_us_per_row", "us/row", div (dur predict) (items predict) *. 1e6);
      ("nn.s_per_epoch", "s/epoch", div (dur epochs) (items epochs));
      ("store.bytes", "bytes", per_round (items writes));
      ("store.write_mb_per_s", "MB/s", div (items writes) (dur writes) /. 1e6);
      ("store.read_mb_per_s", "MB/s", div (items reads) (dur reads) /. 1e6);
      ("population.us_per_flow", "us/flow", div (dur synth) (n synth) *. 1e6);
      ("web.visits", "count", per_round (n visits));
      ("web.packets_per_visit", "packets/visit", div (items visits) (n visits));
      ("web.visit_ms_p50", "ms/visit", pct 50.0 visits);
      ("web.visit_ms_p90", "ms/visit", pct 90.0 visits);
      ("tcp.visit_ms_p50", "ms/visit", pct 50.0 tcp);
      ("tcp.us_per_packet", "us/packet", div (dur tcp) (items tcp) *. 1e6);
      ("quic.visit_ms_p50", "ms/visit", pct 50.0 quic);
      ("quic.us_per_packet", "us/packet", div (dur quic) (items quic) *. 1e6);
      ("sim.events", "count", per_round (items sim));
      ("sim.ns_per_event", "ns/event", div sim_self (items sim) *. 1e9);
      ("tcp.packets", "count", per_round (counter "tcp.packets"));
      ("tcp.rtx", "count", per_round (counter "tcp.rtx"));
      ("link.drops", "count", per_round (counter "link.drops"));
      ("cpu.sim_utilization", "share", div (counter "cpu.busy_s") (counter "cpu.sim_s"));
      ("core.hook_calls", "count", per_round (calls hook));
      ("core.hook_ns_per_call", "ns/call", div (dur hook) (calls hook) *. 1e9);
      ("core.modified_share", "share", div (counter "core.modified") (counter "core.segments"));
      ("core.stob_slowdown_tcp", "ratio", slowdown "web.visit.tcp");
      ("core.stob_slowdown_quic", "ratio", slowdown "web.visit.quic");
    ]

(** (name, unit) of every per-layer metric, in output order. *)
let catalog =
  List.map
    (fun (name, unit, _) -> (name, unit))
    (compute ~root:"" ~spans:[] ~counters:(Hashtbl.create 1) ~rounds:0 ~untraced_wall:0.0
       ~traced_wall:0.0 ~cpu_util:0.0)
