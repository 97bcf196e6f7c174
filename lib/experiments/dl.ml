module Rng = Stob_util.Rng
module Dataset = Stob_web.Dataset
module Features = Stob_kfp.Features
module Attack = Stob_kfp.Attack
module Dfnet = Stob_kfp.Dfnet
module Tensor = Stob_nn.Tensor

type row = { attack : string; original : float; defended : float }

(* Everything one corpus contributes to the sweep, computed once up front:
   the 70/30 split, the k-FP feature rows and the DF direction tensor.
   The old harness re-ran Dfnet.encode / Features.extract at every call
   site; cells now share these read-only arrays, so each corpus is encoded
   exactly once however many attacks consume it. *)
type prepared = {
  fingerprint : string;
  train_labels : int array;
  test_labels : int array;
  kfp_train : float array array;
  kfp_test : float array array;
  df_train : Tensor.t;
  df_test : Tensor.t;
}

let prepare ~seed corpus =
  let rng = Rng.create (seed + 11) in
  let train, test = Dataset.split corpus ~rng ~train_fraction:0.7 in
  let labels d = Array.map (fun (s : Dataset.sample) -> s.Dataset.label) d.Dataset.samples in
  let feats d =
    Array.map (fun (s : Dataset.sample) -> Features.extract s.Dataset.trace) d.Dataset.samples
  in
  let enc d =
    Dfnet.encode_batch (Array.map (fun (s : Dataset.sample) -> s.Dataset.trace) d.Dataset.samples)
  in
  {
    fingerprint = Evalcommon.dataset_fingerprint corpus;
    train_labels = labels train;
    test_labels = labels test;
    kfp_train = feats train;
    kfp_test = feats test;
    df_train = enc train;
    df_test = enc test;
  }

(* Cells may run on pool worker domains, so they train sequentially
   (nesting into the same pool is forbidden); parallelism comes from
   running the four cells concurrently. *)
let eval_kfp ~trees ~seed ~n_classes p =
  let attack =
    Attack.train
      ~forest:{ Stob_ml.Random_forest.default_params with n_trees = trees; seed }
      ~n_classes ~features:p.kfp_train ~labels:p.train_labels ()
  in
  Attack.evaluate attack ~mode:Attack.Forest_vote ~features:p.kfp_test ~labels:p.test_labels

let eval_df ~epochs ~seed ~n_classes p =
  let net =
    Dfnet.train ~epochs ~seed ~n_classes ~xs:p.df_train ~labels:p.train_labels
      ~on_epoch:(fun (pr : Stob_nn.Network.progress) ->
        if pr.epoch mod 10 = 0 then
          Printf.eprintf "dl:   epoch %d, loss %.3f\n%!" pr.epoch pr.mean_loss)
      ()
  in
  Dfnet.accuracy_m net ~xs:p.df_test ~labels:p.test_labels

(* The sweep decomposes into 4 cells ({k-FP, DF} x {original, defended}),
   each a pure function of (corpus fingerprint, attack params, seed) —
   the same checkpoint/cache/retry unit as the table2/fig3 sweeps. *)
let run ?(samples_per_site = 60) ?(trees = 100) ?(epochs = 30) ?(seed = 42) ?pool ?retries ?store
    ?on_report () =
  let say fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s\n%!" s) fmt in
  say "dl: generating corpus...";
  let base = Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ?pool ()) in
  let drng = Rng.create (seed + 13) in
  let defended =
    Dataset.map_traces base (fun s -> Stob_defense.Emulate.combined ~rng:drng s.Dataset.trace)
  in
  let n_classes = Array.length base.Dataset.site_names in
  say "dl: encoding both corpora (k-FP features + direction tensors)...";
  let p_base = prepare ~seed base in
  let p_def = prepare ~seed defended in
  Option.iter
    (fun s ->
      Stob_store.Store.set_manifest s ~experiment:"dl"
        ~fields:
          [ ("dataset", p_base.fingerprint);
            ("defended", p_def.fingerprint);
            ("samples_per_site", string_of_int samples_per_site);
            ("trees", string_of_int trees);
            ("epochs", string_of_int epochs);
            ("seed", string_of_int seed) ]
        ~total:4)
    store;
  let cell ~attack ~variant ~(p : prepared) ~body =
    {
      Stob_store.Supervisor.label = Printf.sprintf "dl/%s/%s" attack variant;
      config =
        [ ("dataset", p.fingerprint);
          ("attack", attack);
          ("variant", variant);
          ("trees", string_of_int trees);
          ("epochs", string_of_int epochs) ];
      seed;
      run =
        (fun ~attempt:_ ->
          say "dl: %s on the %s corpus..." attack variant;
          body ());
    }
  in
  let cells =
    [
      cell ~attack:"kfp" ~variant:"original" ~p:p_base ~body:(fun () ->
          eval_kfp ~trees ~seed ~n_classes p_base);
      cell ~attack:"kfp" ~variant:"defended" ~p:p_def ~body:(fun () ->
          eval_kfp ~trees ~seed ~n_classes p_def);
      cell ~attack:"dfnet" ~variant:"original" ~p:p_base ~body:(fun () ->
          eval_df ~epochs ~seed ~n_classes p_base);
      cell ~attack:"dfnet" ~variant:"defended" ~p:p_def ~body:(fun () ->
          eval_df ~epochs ~seed ~n_classes p_def);
    ]
  in
  let results, report = Evalcommon.run_cells ?pool ?retries ?store ~experiment:"dl" cells in
  Option.iter (fun f -> f report) on_report;
  let acc = function Ok a -> a | Error _ -> Float.nan in
  match List.map acc results with
  | [ kfp_o; kfp_d; df_o; df_d ] ->
      [
        { attack = "k-FP (forest, features)"; original = kfp_o; defended = kfp_d };
        { attack = "DF-lite (CNN, directions)"; original = df_o; defended = df_d };
      ]
  | _ -> assert false

let print rows =
  let pp v = if Float.is_nan v then "poisoned" else Printf.sprintf "%.3f" v in
  Printf.printf "Attack family comparison (closed world, 9 sites)\n";
  Printf.printf "  %-28s %-10s %-18s\n" "attack" "original" "split+delay";
  List.iter
    (fun r -> Printf.printf "  %-28s %-10s %-18s\n" r.attack (pp r.original) (pp r.defended))
    rows

(* ------------------------------------------------------------------ *)
(* Population-scale corpus: both attack families on the population
   factory's traces, end to end without a record per event. *)

type population_result = {
  users : int;
  flows : int;  (** Traces in the whole generated corpus. *)
  monitored_sites : int;
  train_samples : int;
  test_samples : int;
  kfp : float;
  dfnet : float;
}

let monitored_sites = 9

let run_population ?(users = 80) ?(trees = 100) ?(epochs = 15) ?(max_per_site = 60) ?(seed = 42)
    ?(quiet = false) ?pool ~state_dir () =
  let say fmt = Printf.ksprintf (fun s -> if not quiet then Printf.eprintf "%s\n%!" s) fmt in
  let config = { Population.default_config with Population.users; seed; shards = 4 } in
  say "dl: generating population corpus (%d users, %d shards)..." users
    config.Population.shards;
  let summary = Population.generate ?pool config ~state_dir in
  (* Site labels are recovered by re-planning: generation journals exactly
     one trace per planned visit, in plan order, so zipping the journal
     against the (pure, deterministic) plan is exact. *)
  let by_class = Array.make monitored_sites [] in
  for shard = 0 to config.Population.shards - 1 do
    let plan = Population.plan_shard config ~shard in
    let file = Population.shard_file ~state_dir shard in
    let i = ref 0 in
    Population.iter_shard_traces ~state_dir ~shard (fun trace ->
        if !i >= Array.length plan then
          failwith ("dl: population journal " ^ file ^ " holds more traces than its plan");
        let v = plan.(!i) in
        incr i;
        if v.Population.site < monitored_sites then
          by_class.(v.Population.site) <- trace :: by_class.(v.Population.site));
    (* The replay stops at the first damaged frame; a journal damaged in
       place keeps its size, so generation served it as cached. *)
    if !i < Array.length plan then
      failwith
        (Printf.sprintf "dl: population journal %s holds fewer traces than its plan (%d of %d)"
           file !i (Array.length plan))
  done;
  (* Per-class shuffled cap + 70/30 split, one pre-split generator per
     class in rank order. *)
  let master = Rng.create (seed + 11) in
  let class_rngs = Array.init monitored_sites (fun _ -> Rng.split master) in
  let train_traces = ref [] and train_labels = ref [] in
  let test_traces = ref [] and test_labels = ref [] in
  for c = monitored_sites - 1 downto 0 do
    let all = Array.of_list (List.rev by_class.(c)) in
    let idx = Array.init (Array.length all) Fun.id in
    Rng.shuffle class_rngs.(c) idx;
    let take = min max_per_site (Array.length all) in
    if take >= 2 then begin
      let n_train = max 1 (min (take - 1) (int_of_float (0.7 *. float_of_int take))) in
      for j = 0 to take - 1 do
        let tr = all.(idx.(j)) in
        if j < n_train then begin
          train_traces := tr :: !train_traces;
          train_labels := c :: !train_labels
        end
        else begin
          test_traces := tr :: !test_traces;
          test_labels := c :: !test_labels
        end
      done
    end
  done;
  let train_traces = Array.of_list !train_traces and test_traces = Array.of_list !test_traces in
  let train_labels = Array.of_list !train_labels and test_labels = Array.of_list !test_labels in
  if Array.length train_traces = 0 || Array.length test_traces = 0 then
    failwith "dl: population corpus has too few monitored visits; raise --users";
  say "dl: %d monitored visits (%d train / %d test) out of %d flows"
    (Array.length train_traces + Array.length test_traces)
    (Array.length train_traces) (Array.length test_traces) summary.Population.flows;
  say "dl: training k-FP on packed features...";
  (* Pool.map keeps input order, so the rows are the same at any --jobs. *)
  let featurize =
    Stob_par.Pool.map (Option.value pool ~default:Stob_par.Pool.sequential) Features.extract
  in
  let kfp =
    Attack.train
      ~forest:{ Stob_ml.Random_forest.default_params with n_trees = trees; seed }
      ?pool ~n_classes:monitored_sites ~features:(featurize train_traces) ~labels:train_labels ()
  in
  let kfp_acc =
    Attack.evaluate kfp ~mode:Attack.Forest_vote ~features:(featurize test_traces)
      ~labels:test_labels
  in
  say "dl: training DF-lite on packed directions (%d epochs)..." epochs;
  let net =
    Dfnet.train ~epochs ~seed ?pool ~n_classes:monitored_sites
      ~xs:(Dfnet.encode_batch train_traces) ~labels:train_labels
      ~on_epoch:(fun (pr : Stob_nn.Network.progress) ->
        if (not quiet) && pr.epoch mod 5 = 0 then
          Printf.eprintf "dl:   epoch %d, loss %.3f\n%!" pr.epoch pr.mean_loss)
      ()
  in
  let df_acc =
    Dfnet.accuracy_m ?pool net ~xs:(Dfnet.encode_batch test_traces) ~labels:test_labels
  in
  {
    users;
    flows = summary.Population.flows;
    monitored_sites;
    train_samples = Array.length train_traces;
    test_samples = Array.length test_traces;
    kfp = kfp_acc;
    dfnet = df_acc;
  }

let print_population r =
  Printf.printf "Attack family comparison (population corpus, %d users, %d flows)\n" r.users
    r.flows;
  Printf.printf "  monitored sites: %d, samples: %d train / %d test\n" r.monitored_sites
    r.train_samples r.test_samples;
  Printf.printf "  %-28s %-10.3f\n" "k-FP (forest, packed feats)" r.kfp;
  Printf.printf "  %-28s %-10.3f\n" "DF-lite (CNN, packed dirs)" r.dfnet
