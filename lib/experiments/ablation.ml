module Rng = Stob_util.Rng
module Engine = Stob_sim.Engine
module Units = Stob_util.Units
module Dataset = Stob_web.Dataset
module Endpoint = Stob_tcp.Endpoint
module Connection = Stob_tcp.Connection
module Path = Stob_tcp.Path

(* ------------------------------------------------------------------ *)
(* E6: emulation fidelity                                               *)

type fidelity_cell = { mean : float; std : float }

type fidelity_result = {
  baseline : fidelity_cell;
  emulated : fidelity_cell;
  in_stack : fidelity_cell;
}

let cell (mean, std) = { mean; std }

let run_fidelity ?(samples_per_site = 40) ?(folds = 5) ?(trees = 100) ?(seed = 42)
    ?(quiet = false) () =
  let say fmt = Printf.ksprintf (fun s -> if not quiet then Printf.eprintf "%s\n%!" s) fmt in
  say "ablation-stack: generating undefended corpus...";
  let base = Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ()) in
  say "ablation-stack: generating Stob-defended corpus...";
  let stob =
    Dataset.sanitize
      (Dataset.generate ~samples_per_site ~seed
         ~policy:(Stob_core.Strategies.stack_combined ())
         ())
  in
  let rng = Rng.create (seed + 3) in
  let emulated =
    Dataset.map_traces base (fun s -> Stob_defense.Emulate.combined ~rng s.Dataset.trace)
  in
  say "ablation-stack: evaluating k-FP on the three corpora...";
  {
    baseline = cell (Evalcommon.accuracy_cv ~folds ~trees ~seed base);
    emulated = cell (Evalcommon.accuracy_cv ~folds ~trees ~seed emulated);
    in_stack = cell (Evalcommon.accuracy_cv ~folds ~trees ~seed stob);
  }

let print_fidelity r =
  Printf.printf "Ablation E6: emulated vs. in-stack enforcement (k-FP accuracy)\n";
  let line name c = Printf.printf "  %-26s %.3f +/- %.3f\n" name c.mean c.std in
  line "undefended" r.baseline;
  line "emulated split+delay" r.emulated;
  line "Stob in-stack split+delay" r.in_stack

(* ------------------------------------------------------------------ *)
(* E8b: transport comparison                                            *)

type transport_result = { tcp : fidelity_cell; quic : fidelity_cell; quic_stob : fidelity_cell }

let run_transport ?(samples_per_site = 40) ?(folds = 5) ?(trees = 100) ?(seed = 42)
    ?(quiet = false) () =
  let say fmt = Printf.ksprintf (fun s -> if not quiet then Printf.eprintf "%s\n%!" s) fmt in
  let corpus ?policy transport label =
    say "ablation-quic: generating %s corpus..." label;
    Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ?policy ~transport ())
  in
  let tcp = corpus `Tcp "TCP" in
  let quic = corpus `Quic "QUIC" in
  let quic_stob = corpus ~policy:(Stob_core.Strategies.stack_combined ()) `Quic "QUIC+Stob" in
  say "ablation-quic: evaluating k-FP on the three corpora...";
  {
    tcp = cell (Evalcommon.accuracy_cv ~folds ~trees ~seed tcp);
    quic = cell (Evalcommon.accuracy_cv ~folds ~trees ~seed quic);
    quic_stob = cell (Evalcommon.accuracy_cv ~folds ~trees ~seed quic_stob);
  }

let print_transport r =
  Printf.printf "Ablation E8b: transport comparison (k-FP accuracy)\n";
  let line name c = Printf.printf "  %-26s %.3f +/- %.3f\n" name c.mean c.std in
  line "HTTP/1.1 over TCP" r.tcp;
  line "HTTP/3 over QUIC" r.quic;
  line "QUIC + Stob split+delay" r.quic_stob

(* ------------------------------------------------------------------ *)
(* E7: CCA interplay                                                    *)

type cca_row = {
  cca : string;
  baseline_gbps : float;
  delayed_gbps : float;
  exempt_gbps : float;
  violations : int;
}

(* Bulk transfer on a pacing-bound WAN path (2 Gb/s, 20 ms RTT, shallow
   bottleneck queue, no CPU model): the regime where the CCA's pacing
   decisions — and thus Stob's departure perturbations — actually bind.  A
   safety audit wraps the policy's hooks. *)
let audited_throughput ~cc ~policy =
  let engine = Engine.create () in
  let path =
    Path.create ~engine ~rate_bps:(Units.gbps 2.0) ~delay:0.01
      ~queue_capacity:(2 * 1024 * 1024) ~capture:false ()
  in
  let hooks = Stob_core.Controller.hooks (Stob_core.Controller.create policy) in
  let hooks, report = Stob_core.Safety.audit hooks in
  let conn = Connection.create ~engine ~path ~flow:1 ~cc ~server_hooks:hooks () in
  let server = Connection.server conn in
  let rec refill () =
    if Endpoint.established server && Endpoint.unsent server < 16_000_000 then
      Endpoint.write server 64_000_000;
    ignore (Engine.schedule engine ~delay:0.01 refill)
  in
  ignore (Engine.schedule engine ~delay:0.0 refill);
  Connection.on_established conn (fun () -> Endpoint.write (Connection.client conn) 64);
  Connection.open_ conn;
  let warmup = 1.0 and measure = 2.0 in
  let mark = ref 0 in
  ignore (Engine.schedule engine ~delay:warmup (fun () -> mark := Path.server_link_bytes path));
  Engine.run ~until:(warmup +. measure) engine;
  let bytes = Path.server_link_bytes path - !mark in
  ( Units.to_gbps ~bits_per_sec:(Units.throughput_bps ~bytes ~seconds:measure),
    (report ()).Stob_core.Safety.violations )

let run_cca ?(quiet = false) () =
  let ccas =
    [ ("reno", Stob_tcp.Reno.make); ("cubic", Stob_tcp.Cubic.make); ("bbr", Stob_tcp.Bbr.make) ]
  in
  List.map
    (fun (name, cc) ->
      if not quiet then Printf.eprintf "ablation-cca: %s...\n%!" name;
      let baseline_gbps, _ = audited_throughput ~cc ~policy:Stob_core.Policy.unmodified in
      let delayed = Stob_core.Strategies.stack_delay () in
      let delayed_gbps, violations = audited_throughput ~cc ~policy:delayed in
      let exempt_gbps, _ =
        audited_throughput ~cc ~policy:(Stob_core.Strategies.bbr_respecting delayed)
      in
      { cca = name; baseline_gbps; delayed_gbps; exempt_gbps; violations })
    ccas

let print_cca rows =
  Printf.printf "Ablation E7: Stob delay policy vs. congestion controller\n";
  Printf.printf "  %-7s %-12s %-14s %-18s %-10s\n" "CCA" "baseline" "with delay" "delay+exemptions"
    "violations";
  List.iter
    (fun r ->
      Printf.printf "  %-7s %-12s %-14s %-18s %-10d\n" r.cca
        (Printf.sprintf "%.1f Gb/s" r.baseline_gbps)
        (Printf.sprintf "%.1f Gb/s" r.delayed_gbps)
        (Printf.sprintf "%.1f Gb/s" r.exempt_gbps)
        r.violations)
    rows
