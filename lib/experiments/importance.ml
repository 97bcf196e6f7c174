module Dataset = Stob_web.Dataset
module Features = Stob_kfp.Features
module Attack = Stob_kfp.Attack

type ranking = (string * float) list

type result = { undefended : ranking; defended : ranking; policy_name : string }

let ranking_of dataset ~trees ~seed =
  (* Column matrix built once, shared read-only by every tree. *)
  let matrix =
    Stob_ml.Matrix.of_rows
      (Array.map
         (fun (s : Dataset.sample) -> Features.extract s.Dataset.trace)
         dataset.Dataset.samples)
  in
  let labels = Array.map (fun (s : Dataset.sample) -> s.Dataset.label) dataset.Dataset.samples in
  let attack =
    Attack.train_m
      ~forest:{ Stob_ml.Random_forest.default_params with n_trees = trees; seed }
      ~n_classes:(Array.length dataset.Dataset.site_names)
      ~matrix ~labels ()
  in
  let importance = Stob_ml.Random_forest.feature_importance (Attack.forest attack) in
  Array.to_list (Array.mapi (fun i v -> (Features.names.(i), v)) importance)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let run ?(samples_per_site = 30) ?(trees = 100) ?(quiet = false) () =
  let seed = 42 and policy = Stob_core.Strategies.stack_combined () in
  let say fmt = Printf.ksprintf (fun s -> if not quiet then Printf.eprintf "%s\n%!" s) fmt in
  say "importance: generating corpora...";
  let base = Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ()) in
  let defended = Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ~policy ()) in
  say "importance: training forests...";
  {
    undefended = ranking_of base ~trees ~seed;
    defended = ranking_of defended ~trees ~seed;
    policy_name = policy.Stob_core.Policy.name;
  }

let print r =
  let top = 12 in
  Printf.printf "Feature importance (Gini), top %d — undefended vs %s\n" top r.policy_name;
  Printf.printf "  %-28s %-8s   %-28s %-8s\n" "undefended" "weight" "defended" "weight";
  let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest in
  List.iter2
    (fun (n1, w1) (n2, w2) -> Printf.printf "  %-28s %-8.4f   %-28s %-8.4f\n" n1 w1 n2 w2)
    (take top r.undefended) (take top r.defended)
