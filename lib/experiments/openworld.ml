module Rng = Stob_util.Rng
module Dataset = Stob_web.Dataset
module Sites = Stob_web.Sites
module Features = Stob_kfp.Features
module Attack = Stob_kfp.Attack

type metrics = { tpr : float; wrong_site : float; fpr : float }

type result = { k : int; undefended : metrics; defended : metrics }

let featurize dataset =
  Array.map (fun (s : Dataset.sample) -> Features.extract s.Dataset.trace) dataset.Dataset.samples

(* One column matrix per corpus: built once, shared by forest training,
   fingerprinting and the batched open-world predictions. *)
let featurize_m dataset = Stob_ml.Matrix.of_rows (featurize dataset)

let evaluate ~samples_per_site ~background_train_sites ~background_test_sites ~k ~trees ~seed
    ~quiet ?policy () =
  let say fmt = Printf.ksprintf (fun s -> if not quiet then Printf.eprintf "%s\n%!" s) fmt in
  say "openworld: generating monitored corpus%s..."
    (match policy with None -> "" | Some _ -> " (defended)");
  let monitored =
    Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ?policy ())
  in
  let n_monitored = Array.length monitored.Dataset.site_names in
  let unmon_label = n_monitored in
  say "openworld: generating background corpora...";
  let background ~sites ~visits ~bg_seed =
    Dataset.generate ~samples_per_site:visits ~seed:bg_seed ?policy ~failure_rate:0.0
      ~profiles:(Sites.synthetic_background ~n:sites ~seed:bg_seed)
      ()
  in
  let bg_train = background ~sites:background_train_sites ~visits:2 ~bg_seed:(seed + 1000) in
  let bg_test = background ~sites:background_test_sites ~visits:1 ~bg_seed:(seed + 2000) in
  (* Split monitored 70/30 per class. *)
  let rng = Rng.create (seed + 7) in
  let mon_train, mon_test = Dataset.split monitored ~rng ~train_fraction:0.7 in
  say "openworld: training (monitored classes + one background class)...";
  let train_matrix =
    Stob_ml.Matrix.of_rows (Array.append (featurize mon_train) (featurize bg_train))
  in
  let train_labels =
    Array.append
      (Array.map (fun (s : Dataset.sample) -> s.Dataset.label) mon_train.Dataset.samples)
      (Array.make (Array.length bg_train.Dataset.samples) unmon_label)
  in
  let attack =
    Attack.train_m
      ~forest:{ Stob_ml.Random_forest.default_params with n_trees = trees; seed }
      ~n_classes:(n_monitored + 1) ~matrix:train_matrix ~labels:train_labels ()
  in
  say "openworld: evaluating...";
  let tp = ref 0 and wrong = ref 0 and n_mon = ref 0 in
  Array.iteri
    (fun i prediction ->
      incr n_mon;
      let truth = mon_test.Dataset.samples.(i).Dataset.label in
      match prediction with
      | Some l when l = truth -> incr tp
      | Some l when l <> unmon_label -> incr wrong
      | Some _ | None -> ())
    (Attack.predict_open_world_all attack ~k (featurize_m mon_test));
  let fp = ref 0 and n_bg = ref 0 in
  Array.iter
    (fun prediction ->
      incr n_bg;
      match prediction with
      | Some l when l <> unmon_label -> incr fp
      | Some _ | None -> ())
    (Attack.predict_open_world_all attack ~k (featurize_m bg_test));
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  { tpr = frac !tp !n_mon; wrong_site = frac !wrong !n_mon; fpr = frac !fp !n_bg }

(* The two arms (undefended / defended) are this experiment's checkpoint
   cells: each regenerates its corpora and evaluates independently, so a
   killed run resumes with whichever arm already finished served from the
   journal. *)
let run ?(samples_per_site = 30) ?(background_train_sites = 30) ?(background_test_sites = 30)
    ?(k = 3) ?(trees = 100) ?(seed = 42) ?(quiet = false) ?pool ?retries ?store
    ?on_report () =
  let fields =
    [ ("samples_per_site", string_of_int samples_per_site);
      ("bg_train_sites", string_of_int background_train_sites);
      ("bg_test_sites", string_of_int background_test_sites);
      ("k", string_of_int k);
      ("trees", string_of_int trees) ]
  in
  Option.iter
    (fun s ->
      Stob_store.Store.set_manifest s ~experiment:"openworld"
        ~fields:(("seed", string_of_int seed) :: fields)
        ~total:2)
    store;
  let arm_cell name policy =
    {
      Stob_store.Supervisor.label = "openworld/" ^ name;
      config = ("arm", name) :: fields;
      seed;
      run =
        (fun ~attempt:_ ->
          let m =
            evaluate ~samples_per_site ~background_train_sites ~background_test_sites ~k ~trees
              ~seed ~quiet ?policy ()
          in
          (m.tpr, m.wrong_site, m.fpr));
    }
  in
  let cells =
    [ arm_cell "undefended" None;
      arm_cell "defended" (Some (Stob_core.Strategies.stack_combined ())) ]
  in
  let results, report =
    Evalcommon.run_cells ?pool ?retries ?store ~experiment:"openworld" cells
  in
  Option.iter (fun f -> f report) on_report;
  let metrics_of = function
    | Ok (tpr, wrong_site, fpr) -> { tpr; wrong_site; fpr }
    | Error _ -> { tpr = Float.nan; wrong_site = Float.nan; fpr = Float.nan }
  in
  match results with
  | [ undefended; defended ] ->
      { k; undefended = metrics_of undefended; defended = metrics_of defended }
  | _ -> assert false

let print r =
  Printf.printf "Open-world evaluation (k = %d, unseen background sites in test)\n" r.k;
  Printf.printf "  %-26s %-8s %-12s %-8s\n" "" "TPR" "wrong-site" "FPR";
  let line name m =
    Printf.printf "  %-26s %-8.3f %-12.3f %-8.3f\n" name m.tpr m.wrong_site m.fpr
  in
  line "undefended" r.undefended;
  line "Stob split+delay" r.defended
