(* The four benchmark workloads.

   Each workload runs one round of a paper pipeline two ways: [round]
   calls the pipeline's public entry point as a user would, and [staged]
   drives the same computation stage by stage through the layers' public
   functions, recording a span around each call (see Spans).  Both return
   the digest of the round's outputs; the harness requires them to be
   equal, so the staged path provably measures the same work. *)

module Rng = Stob_util.Rng
module Units = Stob_util.Units
module Pool = Stob_par.Pool
module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Packed = Stob_net.Packed_trace
module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu
module Path = Stob_tcp.Path
module Connection = Stob_tcp.Connection
module Endpoint = Stob_tcp.Endpoint
module Hooks = Stob_tcp.Hooks
module Policy = Stob_core.Policy
module Strategies = Stob_core.Strategies
module Controller = Stob_core.Controller
module Sites = Stob_web.Sites
module Profile = Stob_web.Profile
module Browser = Stob_web.Browser
module Browser_quic = Stob_web.Browser_quic
module Dataset = Stob_web.Dataset
module Emulate = Stob_defense.Emulate
module Features = Stob_kfp.Features
module Attack = Stob_kfp.Attack
module Dfnet = Stob_kfp.Dfnet
module Matrix = Stob_ml.Matrix
module Table2 = Stob_experiments.Table2
module Fig3 = Stob_experiments.Fig3
module Population = Stob_experiments.Population
module Dl = Stob_experiments.Dl

type outcome = {
  digest : string;
  ops : int;  (** Operations whose output the round checked. *)
  failed : int;  (** Of those, how many failed a check. *)
  problems : string list;
}

type instance = {
  round : seed:int -> outcome;  (** The pipeline through its public entry point. *)
  staged : seed:int -> outcome;  (** The same pipeline, stage by stage, traced. *)
  cleanup : unit -> unit;  (** Remove what the round left on disk; untimed. *)
}

type t = {
  name : string;
  params : (string * string) list;
  deterministic : bool;  (** The round's input does not depend on the seed. *)
  prepare : pool:Pool.t -> state_dir:string -> instance;
}

let span = Spans.span
let digest_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))
let hex = Printf.sprintf "%h"

let outcome ~digest checks =
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  { digest; ops = List.length checks; failed = List.length failed; problems = List.map fst failed }

(* Pool.map over [tasks] as one harness stage: the main domain's time
   blocked on workers is charged to the par layer. *)
let par_map pool f tasks = span ~layer:"par" "par.map" (fun () -> Pool.map pool f tasks)

let in_unit x = Float.is_finite x && x >= 0.0 && x <= 1.0

(* --- table2 -----------------------------------------------------------

   Table 2 end to end: page loads, sanitization, the emulated defenses,
   k-FP featurization and forest cross-validation.  Classifier-bound, so
   a change to the stack should barely move it. *)

let table2 ~smoke =
  let samples_per_site, folds, trees = if smoke then (2, 2, 2) else (5, 3, 20) in
  let config seed = { Table2.samples_per_site; folds; forest_trees = trees; seed; quiet = true } in
  let check (r : Table2.result) =
    let cells =
      List.concat_map
        (fun (row : Table2.row) ->
          List.map
            (fun (v, (c : Table2.cell)) -> (Printf.sprintf "N=%s %s" row.n_label v, c))
            [ ("Original", row.original); ("Split", row.split); ("Delayed", row.delayed);
              ("Combined", row.combined) ])
        r.rows
    in
    let digest =
      digest_of
        (List.map (fun (l, (c : Table2.cell)) -> Printf.sprintf "%s %s %s" l (hex c.mean) (hex c.std)) cells
        @ List.map (fun (s, n) -> Printf.sprintf "%s %d" s n) r.per_site)
    in
    outcome ~digest
      (List.map (fun (l, (c : Table2.cell)) -> (l ^ " accuracy in [0,1]", in_unit c.mean)) cells)
  in
  let variants = [ "Original"; "Split"; "Delayed"; "Combined" ] in
  let prefixes = [ ("15", Some 15); ("30", Some 30); ("45", Some 45); ("All", None) ] in
  (* Table2.evaluate_variant, one span per layer call. *)
  let evaluate_cell ~seed clean ((_, first_n), variant) =
    let rng = Rng.create (seed + 17) in
    let emulate (s : Dataset.sample) =
      let t = s.Dataset.trace in
      let run f = span ~layer:"defense" "defense.emulate" ~items:(fun _ -> Trace.length t) f in
      match variant with
      | "Split" -> run (fun () -> Emulate.split ?first_n t)
      | "Delayed" -> run (fun () -> Emulate.delay ?first_n ~rng t)
      | "Combined" -> run (fun () -> Emulate.combined ?first_n ~rng t)
      | _ -> t
    in
    let defended = Dataset.map_traces clean emulate in
    let view (s : Dataset.sample) =
      match first_n with None -> s.Dataset.trace | Some n -> Trace.prefix s.Dataset.trace n
    in
    let samples = defended.Dataset.samples in
    let feature_cache = Hashtbl.create (Array.length samples) in
    Array.iteri
      (fun i s ->
        let v = view s in
        Hashtbl.add feature_cache i
          (span ~layer:"kfp" "kfp.extract" ~items:(fun _ -> Trace.length v) (fun () -> Features.extract v)))
      samples;
    let index = Hashtbl.create (Array.length samples) in
    Array.iteri (fun i s -> Hashtbl.replace index s i) samples;
    let fold_list = Dataset.folds defended ~rng:(Rng.create (seed + 23)) ~k:folds in
    let n_classes = Array.length defended.Dataset.site_names in
    let forest = { Stob_ml.Random_forest.default_params with n_trees = trees; seed } in
    let accuracies =
      List.map
        (fun ((train : Dataset.t), (test : Dataset.t)) ->
          let feats d =
            span ~layer:"ml" "ml.matrix" (fun () ->
                Matrix.of_rows
                  (Array.map (fun s -> Hashtbl.find feature_cache (Hashtbl.find index s)) d.Dataset.samples))
          in
          let labels d = Array.map (fun (s : Dataset.sample) -> s.Dataset.label) d.Dataset.samples in
          let m_train = feats train in
          let attack =
            span ~layer:"ml" "ml.train" ~items:(fun _ -> trees) (fun () ->
                Attack.train_m ~forest ~n_classes ~matrix:m_train ~labels:(labels train) ())
          in
          let m_test = feats test in
          span ~layer:"ml" "ml.predict" ~items:(fun _ -> Matrix.n_rows m_test) (fun () ->
              Attack.evaluate_m attack ~mode:Attack.Forest_vote ~matrix:m_test ~labels:(labels test)))
        fold_list
    in
    let mean, std = Stob_ml.Eval.mean_std accuracies in
    { Table2.mean; std }
  in
  (* Dataset.generate, one span per page load. *)
  let generate ~pool ~seed =
    let master = Rng.create seed in
    let visits =
      Array.of_list
        (List.concat
           (List.mapi
              (fun label profile -> List.init samples_per_site (fun _ -> (label, profile, Rng.split master)))
              Sites.all))
    in
    let visit (label, (profile : Profile.t), rng) =
      let r =
        span ~layer:"web" "web.visit.tcp" ~items:(fun (r : Browser.result) -> Trace.length r.trace) (fun () ->
            Browser.load ~rng profile)
      in
      let failed = Rng.bernoulli rng 0.02 in
      let trace =
        if failed then Trace.prefix r.trace (1 + Rng.int rng (max 1 (Trace.length r.trace))) else r.trace
      in
      {
        Dataset.site = profile.name;
        label;
        trace;
        completed = r.completed && not failed;
        total_in_bytes = Trace.bytes ~dir:Packet.Incoming trace;
      }
    in
    { Dataset.samples = par_map pool visit visits; site_names = Array.of_list Sites.names }
  in
  let staged ~pool ~seed =
    let dataset = generate ~pool ~seed in
    let clean = span ~layer:"web" "web.sanitize" (fun () -> Dataset.sanitize dataset) in
    ignore (span ~layer:"store" "store.fingerprint" (fun () -> Stob_experiments.Evalcommon.dataset_fingerprint clean));
    let cells =
      par_map pool (evaluate_cell ~seed clean)
        (Array.of_list (List.concat_map (fun p -> List.map (fun v -> (p, v)) variants) prefixes))
    in
    let cell p v = cells.((p * 4) + v) in
    check
      {
        Table2.rows =
          List.mapi
            (fun p (n_label, _) ->
              { Table2.n_label; original = cell p 0; split = cell p 1; delayed = cell p 2; combined = cell p 3 })
            prefixes;
        per_site = Dataset.per_site_counts clean;
      }
  in
  {
    name = "table2";
    params =
      [ ("samples_per_site", string_of_int samples_per_site); ("folds", string_of_int folds);
        ("trees", string_of_int trees) ];
    deterministic = false;
    prepare =
      (fun ~pool ~state_dir:_ ->
        {
          round = (fun ~seed -> check (Table2.run ~config:(config seed) ~pool ()));
          staged = (fun ~seed -> staged ~pool ~seed);
          cleanup = ignore;
        });
  }

(* --- fig3 -------------------------------------------------------------

   Figure 3's bulk transfers over a 100 Gb/s link, on a subset of its
   alphas.  Bound by the stack: event engine, TCP endpoint, CPU and link
   models, and the Stob hook.  It never calls kfp, ml, defense or store,
   so it is the workload that bypasses classifier-side changes.  Its
   input does not depend on the seed. *)

let fig3 ~smoke =
  let config =
    if smoke then { Fig3.default_config with alphas = [ 0; 40 ]; warmup = 0.005; measure = 0.01 }
    else { Fig3.default_config with alphas = [ 0; 8; 24; 40 ]; measure = 0.05 }
  in
  let nonzero = List.sort_uniq compare (List.filter (fun a -> a <> 0) config.alphas) in
  let check (points : Fig3.point list) =
    let link = config.link_gbps in
    let digest =
      digest_of
        (List.map
           (fun (p : Fig3.point) ->
             String.concat " "
               (string_of_int p.alpha
               :: List.map hex [ p.baseline_gbps; p.packet_gbps; p.tso_gbps; p.combined_gbps ]))
           points)
    in
    let ok v = Float.is_finite v && v > 0.0 && v <= link in
    outcome ~digest
      (List.concat_map
         (fun (p : Fig3.point) ->
           let l s = Printf.sprintf "alpha=%d %s within (0, link]" p.alpha s in
           [ (l "packet", ok p.packet_gbps); (l "tso", ok p.tso_gbps); (l "combined", ok p.combined_gbps) ])
         (List.filter (fun (p : Fig3.point) -> p.alpha <> 0) points)
      @ [ ("baseline within (0, link]", List.for_all (fun (p : Fig3.point) -> ok p.baseline_gbps) points) ])
  in
  (* Fig3.throughput_with_policy rebuilt from its layers, with the Stob
     hook wrapped so its calls can be timed and counted. *)
  let throughput policy =
    let engine = Engine.create () in
    let path = Path.create ~engine ~rate_bps:(Units.gbps config.link_gbps) ~delay:(config.rtt /. 2.0) () in
    let cpu = Cpu.create engine in
    let controller = Controller.create policy in
    let inner = Controller.hooks controller in
    let calls = ref 0 and hook_s = ref 0.0 in
    let hooks =
      {
        Hooks.on_segment =
          (fun ~now ~flow ~phase d ->
            let t0 = Spans.now () in
            let r = inner.Hooks.on_segment ~now ~flow ~phase d in
            hook_s := !hook_s +. (Spans.now () -. t0);
            incr calls;
            r);
      }
    in
    let conn =
      Connection.create ~engine ~path ~flow:1 ~cc:config.cc
        ~server_cpu:(cpu, Stob_tcp.Cpu_costs.default_server) ~server_hooks:hooks ()
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
    let mark = ref 0 in
    ignore (Engine.schedule engine ~delay:config.warmup (fun () -> mark := Path.server_link_bytes path));
    span ~layer:"sim" "sim.run" ~items:(fun () -> Engine.events_processed engine) (fun () ->
        Engine.run ~until:(config.warmup +. config.measure) engine;
        Spans.aggregate ~layer:"core" "core.hook" ~dur:!hook_s ~calls:!calls);
    let st = Controller.stats controller in
    List.iter
      (fun (k, v) -> Spans.count k (float_of_int v))
      [ ("tcp.packets", Endpoint.packets_sent server); ("tcp.rtx", Endpoint.retransmissions server);
        ("link.drops", Path.drops path); ("core.segments", st.segments); ("core.modified", st.modified) ];
    Spans.count "cpu.busy_s" (Cpu.busy_time cpu);
    Spans.count "cpu.sim_s" (Engine.now engine);
    Units.throughput_bps ~bytes:(Path.server_link_bytes path - !mark) ~seconds:config.measure
  in
  (* Fig3.run's cells: the baseline, then one cell of three series per alpha. *)
  let staged ~pool =
    let gbps policy = Units.to_gbps ~bits_per_sec:(throughput policy) in
    let cells =
      par_map pool
        (function
          | 0 -> [| gbps Policy.unmodified |]
          | alpha ->
              [| gbps (Strategies.incremental_packet_reduction ~alpha);
                 gbps (Strategies.incremental_tso_reduction ~alpha);
                 gbps (Strategies.incremental_combined ~alpha) |])
        (Array.of_list (0 :: nonzero))
    in
    let baseline = cells.(0).(0) in
    let by_alpha = List.combine nonzero (List.tl (Array.to_list cells)) in
    check
      (List.map
         (fun alpha ->
           if alpha = 0 then
             { Fig3.alpha; baseline_gbps = baseline; packet_gbps = baseline; tso_gbps = baseline;
               combined_gbps = baseline }
           else
             let c = List.assoc alpha by_alpha in
             { Fig3.alpha; baseline_gbps = baseline; packet_gbps = c.(0); tso_gbps = c.(1); combined_gbps = c.(2) })
         config.alphas)
  in
  {
    name = "fig3";
    params =
      [ ("alphas", String.concat "," (List.map string_of_int config.alphas));
        ("warmup_s", Printf.sprintf "%g" config.warmup); ("measure_s", Printf.sprintf "%g" config.measure);
        ("cc", config.cc_name) ];
    deterministic = true;
    prepare =
      (fun ~pool ~state_dir:_ ->
        {
          round = (fun ~seed:_ -> check (Fig3.run ~config ~pool ()));
          staged = (fun ~seed:_ -> staged ~pool);
          cleanup = ignore;
        });
  }

(* --- pageload ---------------------------------------------------------

   Many short page loads over TCP and QUIC, unmodified and under Stob's
   split+delay policy: handshakes, TLS, slow start and the hook on every
   segment of short flows, where fig3 has one long flow.  No classifier. *)

let pageload ~smoke =
  let per_site = if smoke then 1 else 2 in
  let sites = if smoke then List.filteri (fun i _ -> i < 3) Sites.all else Sites.all in
  let stob = Strategies.stack_combined () in
  let kinds = [ (`Tcp, None); (`Tcp, Some stob); (`Quic, None); (`Quic, Some stob) ] in
  (* One task per visit, its generator pre-split from the seed in task
     order, so the visits are independent of the pool's schedule. *)
  let tasks ~seed =
    let master = Rng.create seed in
    Array.of_list
      (List.concat_map
         (fun kind ->
           List.concat_map (fun profile -> List.init per_site (fun _ -> (kind, profile, Rng.split master))) sites)
         kinds)
  in
  let load ((transport, policy), profile, rng) =
    match transport with
    | `Tcp -> Browser.load ?policy ~rng profile
    | `Quic -> Browser_quic.load ?policy ~rng profile
  in
  let check (results : Browser.result array) =
    let digest =
      digest_of
        (Array.to_list
           (Array.map
              (fun (r : Browser.result) ->
                Printf.sprintf "%b %s" r.completed (Digest.to_hex (Digest.string (Packed.to_bytes (Packed.of_trace r.trace)))))
              results))
    in
    outcome ~digest
      (Array.to_list
         (Array.mapi
            (fun i (r : Browser.result) ->
              (Printf.sprintf "visit %d completed with a sorted, non-empty trace" i,
               r.completed && Trace.length r.trace > 0 && Trace.is_sorted r.trace))
            results))
  in
  let visit_span ((((transport, policy), _, _) as task)) =
    let name =
      match (transport, policy) with
      | `Tcp, None -> "web.visit.tcp"
      | `Tcp, Some _ -> "web.visit.tcp+stob"
      | `Quic, None -> "web.visit.quic"
      | `Quic, Some _ -> "web.visit.quic+stob"
    in
    span ~layer:"web" name ~items:(fun (r : Browser.result) -> Trace.length r.trace) (fun () -> load task)
  in
  {
    name = "pageload";
    params =
      [ ("visits_per_site_and_kind", string_of_int per_site); ("sites", string_of_int (List.length sites));
        ("kinds", "tcp,tcp+stob,quic,quic+stob") ];
    deterministic = false;
    prepare =
      (fun ~pool ~state_dir:_ ->
        {
          round = (fun ~seed -> check (Pool.map pool load (tasks ~seed)));
          staged = (fun ~seed -> check (par_map pool visit_span (tasks ~seed)));
          cleanup = ignore;
        });
  }

(* --- population -------------------------------------------------------

   A population corpus synthesized into shard journals, read back, then
   k-FP and DF-net on the packed traces.  The only write-heavy workload
   and the only one that trains the CNN; it bypasses the stack
   simulation. *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let population ~smoke =
  let users, trees, epochs, max_per_site =
    if smoke then (24, 2, 1, 4) else (120, 40, 5, 15)
  in
  let shards = 4 in
  let config seed = { Population.default_config with Population.users; seed; shards } in
  (* [fresh]: no shard was served from an earlier run's journal. *)
  let check ~corpus_digest ~flows ~fresh ~train ~test ~kfp ~dfnet =
    let digest =
      digest_of
        [ corpus_digest; string_of_int flows; string_of_int train; string_of_int test; hex kfp; hex dfnet ]
    in
    outcome ~digest
      [ ("every shard generated fresh", fresh); ("k-FP accuracy in [0,1]", in_unit kfp);
        ("DF accuracy in [0,1]", in_unit dfnet) ]
  in
  let round ~pool ~dir ~seed =
    let s = Population.generate ~pool (config seed) ~state_dir:dir in
    let r = Dl.run_population ~users ~trees ~epochs ~max_per_site ~seed ~quiet:true ~pool ~state_dir:dir () in
    check ~corpus_digest:s.corpus_digest ~flows:r.flows ~fresh:(s.cached_shards = 0 && s.flows = r.flows)
      ~train:r.train_samples ~test:r.test_samples ~kfp:r.kfp ~dfnet:r.dfnet
  in
  (* Population.generate and Dl.run_population, stage by stage.  The
     staged corpus skips the run-level store records, which only serve
     resumption; the shard journals and the corpus digest are the same. *)
  let crc_hex s = Printf.sprintf "%08lx" (Stob_store.Crc32.string s) in
  let staged ~pool ~dir ~seed =
    let c = config seed in
    let universe = Population.universe c in
    let shard i =
      let visits = span ~layer:"population" "population.plan" (fun () -> Population.plan_shard c ~shard:i) in
      let journal, _ = Stob_store.Journal.open_ (Population.shard_file ~state_dir:dir i) in
      let crcs = Buffer.create (8 * Array.length visits) in
      Array.iter
        (fun v ->
          let pt = span ~layer:"population" "population.synth" (fun () -> Population.synthesize c ~universe v) in
          ignore
            (span ~layer:"store" "store.write" ~items:Fun.id (fun () ->
                 let payload = Packed.to_bytes pt in
                 Stob_store.Journal.append journal payload;
                 Buffer.add_string crcs (crc_hex payload);
                 String.length payload)))
        visits;
      Stob_store.Journal.close journal;
      (Printf.sprintf "shard-%04d" i, crc_hex (Buffer.contents crcs), Array.length visits)
    in
    let shard_results = par_map pool shard (Array.init shards Fun.id) in
    let flows = Array.fold_left (fun n (_, _, f) -> n + f) 0 shard_results in
    let corpus_digest =
      Stob_store.Cell.digest ~experiment:"population-corpus"
        ~config:(Array.to_list (Array.map (fun (l, crc, _) -> (l, crc)) shard_results))
        ~seed
    in
    let n_classes = List.length Sites.all in
    let by_class = Array.make n_classes [] in
    for i = 0 to shards - 1 do
      let plan = span ~layer:"population" "population.plan" (fun () -> Population.plan_shard c ~shard:i) in
      let file = Population.shard_file ~state_dir:dir i in
      let traces = ref [] in
      span ~layer:"store" "store.read" ~items:(fun () -> (Unix.stat file).Unix.st_size) (fun () ->
          Population.iter_shard_traces ~state_dir:dir ~shard:i (fun t -> traces := t :: !traces));
      List.iteri
        (fun j t ->
          let site = plan.(j).Population.site in
          if site < n_classes then by_class.(site) <- t :: by_class.(site))
        (List.rev !traces)
    done;
    (* Dl.run_population's per-class shuffled cap and 70/30 split. *)
    let master = Rng.create (seed + 11) in
    let class_rngs = Array.init n_classes (fun _ -> Rng.split master) in
    let train = ref [] and test = ref [] in
    for cls = n_classes - 1 downto 0 do
      let all = Array.of_list (List.rev by_class.(cls)) in
      let idx = Array.init (Array.length all) Fun.id in
      Rng.shuffle class_rngs.(cls) idx;
      let take = min max_per_site (Array.length all) in
      if take >= 2 then begin
        let n_train = max 1 (min (take - 1) (int_of_float (0.7 *. float_of_int take))) in
        for j = 0 to take - 1 do
          if j < n_train then train := (all.(idx.(j)), cls) :: !train else test := (all.(idx.(j)), cls) :: !test
        done
      end
    done;
    let train = Array.of_list !train and test = Array.of_list !test in
    let traces = Array.map fst and labels = Array.map snd in
    let features set =
      Array.map
        (fun (t, _) -> span ~layer:"kfp" "kfp.extract" ~items:(fun _ -> Packed.length t) (fun () -> Features.extract_packed t))
        set
    in
    let kfp_train = features train in
    let attack =
      span ~layer:"ml" "ml.train" ~items:(fun _ -> trees) (fun () ->
          Attack.train
            ~forest:{ Stob_ml.Random_forest.default_params with n_trees = trees; seed }
            ~pool ~n_classes ~features:kfp_train ~labels:(labels train) ())
    in
    let kfp_test = features test in
    let kfp =
      span ~layer:"ml" "ml.predict" ~items:(fun _ -> Array.length test) (fun () ->
          Attack.evaluate attack ~mode:Attack.Forest_vote ~features:kfp_test ~labels:(labels test))
    in
    let xs_train = span ~layer:"nn" "nn.encode" (fun () -> Dfnet.encode_packed (traces train)) in
    let net =
      span ~layer:"nn" "nn.train" ~items:(fun _ -> epochs) (fun () ->
          Dfnet.train ~epochs ~seed ~pool ~n_classes ~xs:xs_train ~labels:(labels train) ())
    in
    let dfnet =
      span ~layer:"nn" "nn.predict" ~items:(fun _ -> Array.length test) (fun () ->
          Dfnet.accuracy_m ~pool net ~xs:(Dfnet.encode_packed (traces test)) ~labels:(labels test))
    in
    check ~corpus_digest ~flows ~fresh:true ~train:(Array.length train) ~test:(Array.length test) ~kfp ~dfnet
  in
  {
    name = "population";
    params =
      [ ("users", string_of_int users); ("shards", string_of_int shards); ("trees", string_of_int trees);
        ("epochs", string_of_int epochs); ("max_per_site", string_of_int max_per_site) ];
    deterministic = false;
    prepare =
      (fun ~pool ~state_dir ->
        let dir = Filename.concat state_dir "population" in
        Unix.mkdir dir 0o755;
        {
          round = (fun ~seed -> round ~pool ~dir ~seed);
          staged = (fun ~seed -> staged ~pool ~dir ~seed);
          cleanup = (fun () -> remove_tree dir);
        });
  }

let all ~smoke = [ table2 ~smoke; fig3 ~smoke; pageload ~smoke; population ~smoke ]
