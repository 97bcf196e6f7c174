module Rng = Stob_util.Rng
module Engine = Stob_sim.Engine
module Units = Stob_util.Units
module Trace = Stob_net.Trace
module Capture = Stob_net.Capture
module Endpoint = Stob_tcp.Endpoint
module Connection = Stob_tcp.Connection
module Path = Stob_tcp.Path
module Features = Stob_kfp.Features
module Attack = Stob_kfp.Attack

let ccas = [| ("reno", Stob_tcp.Reno.make); ("cubic", Stob_tcp.Cubic.make); ("bbr", Stob_tcp.Bbr.make) |]

(* One bulk download through a lossy bottleneck; the client-side capture is
   what a passive observer sees. *)
let bulk_trace ~cc ~policy rng =
  let engine = Engine.create () in
  (* Varied conditions, shallow buffer: the regime where CCA dynamics show
     (CUBIC's sawtooth, BBR's steady pacing with probe pulses). *)
  let rate_bps = Units.mbps (Rng.uniform rng 30.0 80.0) in
  let delay = Units.msec (Rng.uniform rng 8.0 25.0) in
  let queue_capacity = int_of_float (rate_bps *. Rng.uniform rng 0.01 0.03 /. 8.0) in
  let path = Path.create ~engine ~rate_bps ~delay ~queue_capacity () in
  let server_hooks =
    Option.map
      (fun p ->
        Stob_core.Controller.hooks (Stob_core.Controller.create ~seed:(Rng.int rng 1_000_000) p))
      policy
  in
  let conn = Connection.create ~engine ~path ~flow:1 ~cc ?server_hooks () in
  let server = Connection.server conn in
  (* Continuous download for the whole observation window, so the observer
     sees several congestion epochs. *)
  let rec refill () =
    if Endpoint.established server && Endpoint.unsent server < 2_000_000 then
      Endpoint.write server 4_000_000;
    ignore (Engine.schedule engine ~delay:0.05 refill)
  in
  ignore (Engine.schedule engine ~delay:0.0 refill);
  Connection.on_established conn (fun () -> Endpoint.write (Connection.client conn) 64);
  Connection.open_ conn;
  Engine.run ~until:4.0 engine;
  Trace.shift_to_zero (Capture.trace (Path.capture path))

(* Scale-invariant dynamics features: CCAnalyzer identifies CCAs from how
   the bottleneck queue evolves, not from absolute rates, so every series
   is normalized by its own mean.  CUBIC shows a sawtooth (drain on loss,
   cubic regrowth), Reno a sharper/longer sawtooth, BBR a flat line with
   small probe pulses and no loss response. *)
let dynamics_features trace =
  let module Stats = Stob_util.Stats in
  let bucket = 0.1 in
  let tput =
    let times = Trace.times ~dir:Stob_net.Packet.Incoming trace in
    let sizes = Trace.sizes ~dir:Stob_net.Packet.Incoming trace in
    let n = Array.length times in
    if n = 0 then [||]
    else begin
      let t0 = times.(0) in
      let duration = times.(n - 1) -. t0 in
      let buckets = Int.max 1 (1 + int_of_float (duration /. bucket)) in
      let acc = Array.make buckets 0.0 in
      Array.iteri
        (fun i time ->
          let b = Int.min (buckets - 1) (int_of_float ((time -. t0) /. bucket)) in
          acc.(b) <- acc.(b) +. sizes.(i))
        times;
      acc
    end
  in
  let mean = Stats.mean tput in
  let norm = if mean <= 0.0 then tput else Array.map (fun v -> v /. mean) tput in
  let diffs =
    if Array.length norm < 2 then [||]
    else Array.init (Array.length norm - 1) (fun i -> norm.(i + 1) -. norm.(i))
  in
  let autocorr lag =
    let n = Array.length norm in
    if n <= lag + 1 then 0.0
    else begin
      let m = Stats.mean norm and s = Stats.std norm in
      if s <= 0.0 then 0.0
      else begin
        let acc = ref 0.0 in
        for i = 0 to n - lag - 1 do
          acc := !acc +. ((norm.(i) -. m) *. (norm.(i + lag) -. m))
        done;
        !acc /. (float_of_int (n - lag) *. s *. s)
      end
    end
  in
  (* Dips: buckets more than 30% below the running level — loss responses. *)
  let dips = ref 0 and dip_gaps = ref [] and last_dip = ref (-1) in
  Array.iteri
    (fun i v ->
      if v < 0.7 && i > 0 then begin
        incr dips;
        if !last_dip >= 0 then dip_gaps := float_of_int (i - !last_dip) :: !dip_gaps;
        last_dip := i
      end)
    norm;
  let dip_gaps = Array.of_list !dip_gaps in
  (* Evenly-sampled normalized shape (16 points). *)
  let shape =
    Array.init 16 (fun i ->
        let n = Array.length norm in
        if n = 0 then 0.0 else norm.(Int.min (n - 1) (i * n / 16)))
  in
  Array.concat
    [
      [| Stats.std norm; Stats.skewness norm; Stats.kurtosis norm |];
      [| Stats.std diffs; Stats.max_ diffs; Stats.min_ diffs |];
      [| autocorr 1; autocorr 2; autocorr 4; autocorr 8 |];
      [| float_of_int !dips; Stats.mean dip_gaps; Stats.std dip_gaps |];
      shape;
    ]

let featurize trace = Array.append (dynamics_features trace) (Features.extract trace)

let dataset ~flows_per_cca ~policy ~seed =
  let master = Rng.create seed in
  let samples =
    List.concat
      (List.init (Array.length ccas) (fun label ->
           let _, cc = ccas.(label) in
           List.init flows_per_cca (fun _ ->
               let rng = Rng.split master in
               (featurize (bulk_trace ~cc ~policy rng), label))))
  in
  let arr = Array.of_list samples in
  Rng.shuffle master arr;
  (Array.map fst arr, Array.map snd arr)

type result = { undefended : float; defended : float; shaped : float; n_classes : int }

let accuracy ~flows_per_cca ~trees ~seed ~policy =
  let features, labels = dataset ~flows_per_cca ~policy ~seed in
  let n = Array.length features in
  let n_train = n * 7 / 10 in
  let attack =
    Attack.train
      ~forest:{ Stob_ml.Random_forest.default_params with n_trees = trees; seed }
      ~n_classes:(Array.length ccas)
      ~features:(Array.sub features 0 n_train) ~labels:(Array.sub labels 0 n_train) ()
  in
  Attack.evaluate attack ~mode:Attack.Forest_vote
    ~features:(Array.sub features n_train (n - n_train))
    ~labels:(Array.sub labels n_train (n - n_train))

let run ?(flows_per_cca = 40) ?(trees = 100) ?(quiet = false) () =
  let seed = 42 in
  let say fmt = Printf.ksprintf (fun s -> if not quiet then Printf.eprintf "%s\n%!" s) fmt in
  say "cca-id: generating %d undefended flows..." (flows_per_cca * Array.length ccas);
  let undefended = accuracy ~flows_per_cca ~trees ~seed ~policy:None in
  say "cca-id: generating defended flows...";
  let defended =
    accuracy ~flows_per_cca ~trees ~seed
      ~policy:
        (Some
           (Stob_core.Policy.make ~name:"cca-hide"
              ~tso:(Stob_core.Policy.Cycle_tso_reduction { step = 6; max_steps = 8 })
              ~timing:(Stob_core.Policy.Stretch_gap (0.05, 0.35))
              ()))
  in
  say "cca-id: generating rate-floor-shaped flows...";
  let shaped =
    accuracy ~flows_per_cca ~trees ~seed
      ~policy:(Some (Stob_core.Strategies.rate_floor ~rate_bps:25e6))
  in
  { undefended; defended; shaped; n_classes = Array.length ccas }

let print r =
  Printf.printf "CCA identification from passive traces (Section 5.2; chance = %.3f)\n"
    (1.0 /. float_of_int r.n_classes);
  Printf.printf "  %-26s %.3f\n" "undefended" r.undefended;
  Printf.printf "  %-26s %.3f\n" "Stob delay+TSO jitter" r.defended;
  Printf.printf "  %-26s %.3f\n" "Stob rate floor (25 Mb/s)" r.shaped
