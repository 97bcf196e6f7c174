(* Tests for stob_ml: decision trees, random forests, k-NN, evaluation. *)

module Rng = Stob_util.Rng
open Stob_ml

(* A linearly separable 2-class toy problem in 2D. *)
let toy_dataset rng n =
  let features =
    Array.init n (fun _ ->
        let x = Rng.uniform rng 0.0 10.0 and y = Rng.uniform rng 0.0 10.0 in
        [| x; y |])
  in
  let labels = Array.map (fun f -> if f.(0) +. f.(1) > 10.0 then 1 else 0) features in
  (features, labels)

(* Four-class XOR-like grid: needs at least depth-2 trees. *)
let grid_dataset rng n =
  let features =
    Array.init n (fun _ -> [| Rng.uniform rng 0.0 2.0; Rng.uniform rng 0.0 2.0 |])
  in
  let labels =
    Array.map (fun f -> (if f.(0) > 1.0 then 2 else 0) + if f.(1) > 1.0 then 1 else 0) features
  in
  (features, labels)

(* --- Decision tree --- *)

(* One tree on the whole sample, through the forest's training entry
   point. *)
let train_tree ?params ~rng ~n_classes ~features ~labels () =
  let matrix = Matrix.of_rows features in
  Decision_tree.train_presorted ?params ~rng ~n_classes ~matrix ~labels
    ~sample:(Array.init (Array.length features) Fun.id)
    ~orders:(Matrix.presorted matrix) ()

(* Single-row inference through the batch entry points. *)
let tree_predict tree x = Decision_tree.predict_m tree (Matrix.of_rows [| x |]) 0
let tree_leaf_id tree x = Decision_tree.leaf_id_m tree (Matrix.of_rows [| x |]) 0
let forest_predict forest x = (Random_forest.predict_all forest (Matrix.of_rows [| x |])).(0)

let test_tree_fits_training_data () =
  let rng = Rng.create 1 in
  let features, labels = toy_dataset rng 200 in
  let tree = train_tree ~rng ~n_classes:2 ~features ~labels () in
  Array.iteri
    (fun i f -> Alcotest.(check int) "training point" labels.(i) (tree_predict tree f))
    features

let test_tree_generalizes () =
  let rng = Rng.create 2 in
  let features, labels = toy_dataset rng 400 in
  let tree = train_tree ~rng ~n_classes:2 ~features ~labels () in
  let test_f, test_l = toy_dataset rng 200 in
  let predicted = Array.map (tree_predict tree) test_f in
  let acc = Eval.accuracy ~predicted ~actual:test_l in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.2f > 0.9" acc) true (acc > 0.9)

let test_tree_max_depth_respected () =
  let rng = Rng.create 3 in
  let features, labels = grid_dataset rng 300 in
  let params = { Decision_tree.default_params with max_depth = 1 } in
  let tree = train_tree ~params ~rng ~n_classes:4 ~features ~labels () in
  Alcotest.(check bool) "depth <= 1" true (Decision_tree.depth tree <= 1);
  Alcotest.(check bool) "at most 2 leaves" true (Decision_tree.n_leaves tree <= 2)

let test_tree_pure_node_is_leaf () =
  let rng = Rng.create 4 in
  let features = Array.init 50 (fun i -> [| float_of_int i |]) in
  let labels = Array.make 50 1 in
  let tree = train_tree ~rng ~n_classes:2 ~features ~labels () in
  Alcotest.(check int) "single leaf" 1 (Decision_tree.n_leaves tree);
  Alcotest.(check int) "predicts the constant class" 1 (tree_predict tree [| 3.0 |])

let test_tree_predict_dist_sums_to_one () =
  let rng = Rng.create 5 in
  let features, labels = grid_dataset rng 200 in
  let tree = train_tree ~rng ~n_classes:4 ~features ~labels () in
  let dist = Array.make 4 0.0 in
  Decision_tree.add_dist tree [| 0.5; 1.5 |] ~into:dist;
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 dist)

let test_tree_leaf_ids_distinct () =
  let rng = Rng.create 6 in
  let features, labels = grid_dataset rng 400 in
  let tree = train_tree ~rng ~n_classes:4 ~features ~labels () in
  let ids =
    List.sort_uniq compare
      [
        tree_leaf_id tree [| 0.5; 0.5 |];
        tree_leaf_id tree [| 0.5; 1.5 |];
        tree_leaf_id tree [| 1.5; 0.5 |];
        tree_leaf_id tree [| 1.5; 1.5 |];
      ]
  in
  Alcotest.(check int) "four distinct leaves" 4 (List.length ids)

let test_tree_invalid_inputs () =
  let rng = Rng.create 7 in
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (train_tree ~rng ~n_classes:2 ~features:[||] ~labels:[||] ());
       false
     with Invalid_argument _ -> true)

(* --- Random forest --- *)

let test_forest_beats_chance_on_grid () =
  let rng = Rng.create 8 in
  let features, labels = grid_dataset rng 400 in
  let forest =
    Random_forest.train
      ~params:{ Random_forest.default_params with n_trees = 30 }
      ~n_classes:4 ~features ~labels ()
  in
  let test_f, test_l = grid_dataset rng 200 in
  let predicted = Random_forest.predict_all forest (Matrix.of_rows test_f) in
  let acc = Eval.accuracy ~predicted ~actual:test_l in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.2f > 0.85" acc) true (acc > 0.85)

let test_forest_deterministic_given_seed () =
  let rng = Rng.create 9 in
  let features, labels = grid_dataset rng 200 in
  let train () =
    Random_forest.train
      ~params:{ Random_forest.default_params with n_trees = 10; seed = 5 }
      ~n_classes:4 ~features ~labels ()
  in
  let a = train () and b = train () in
  let test_f, _ = grid_dataset rng 100 in
  Array.iter
    (fun f ->
      Alcotest.(check int) "same predictions" (forest_predict a f) (forest_predict b f))
    test_f

let test_forest_proba_normalized () =
  let rng = Rng.create 10 in
  let features, labels = grid_dataset rng 200 in
  let forest =
    Random_forest.train
      ~params:{ Random_forest.default_params with n_trees = 10 }
      ~n_classes:4 ~features ~labels ()
  in
  let proba = Random_forest.predict_proba forest [| 0.5; 0.5 |] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 proba)

let test_forest_fingerprint_shape () =
  let rng = Rng.create 11 in
  let features, labels = grid_dataset rng 100 in
  let forest =
    Random_forest.train
      ~params:{ Random_forest.default_params with n_trees = 7 }
      ~n_classes:4 ~features ~labels ()
  in
  Alcotest.(check int) "one leaf per tree" 7
    (Array.length (Random_forest.leaf_fingerprint_m forest (Matrix.of_rows [| [| 1.0; 1.0 |] |]) 0))

let test_forest_feature_importance () =
  let rng = Rng.create 12 in
  (* Feature 1 is the only informative one; feature 0 is noise. *)
  let features = Array.init 300 (fun _ -> [| Rng.uniform rng 0.0 1.0; Rng.uniform rng 0.0 1.0 |]) in
  let labels = Array.map (fun f -> if f.(1) > 0.5 then 1 else 0) features in
  let forest =
    Random_forest.train
      ~params:{ Random_forest.default_params with n_trees = 15 }
      ~n_classes:2 ~features ~labels ()
  in
  let imp = Random_forest.feature_importance forest in
  Alcotest.(check (float 1e-6)) "normalized" 1.0 (Array.fold_left ( +. ) 0.0 imp);
  Alcotest.(check bool)
    (Printf.sprintf "informative feature dominates (%.2f vs %.2f)" imp.(1) imp.(0))
    true
    (imp.(1) > 5.0 *. imp.(0))

(* --- Knn --- *)

(* The Hamming distance, as [nearest] reports it. *)
let test_knn_hamming () =
  let distance a b =
    let knn = Knn.create ~fingerprints:[| a |] ~labels:[| 0 |] ~n_classes:1 in
    snd (List.hd (Knn.nearest knn ~k:1 b))
  in
  Alcotest.(check int) "distance" 2 (distance [| 1; 2; 3; 4 |] [| 1; 9; 3; 9 |]);
  Alcotest.(check int) "identical" 0 (distance [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "mismatch raises" true
    (try
       ignore (distance [| 1 |] [| 1; 2 |]);
       false
     with Invalid_argument _ -> true)

let test_knn_classify () =
  let fingerprints = [| [| 0; 0; 0 |]; [| 0; 0; 1 |]; [| 9; 9; 9 |]; [| 9; 9; 8 |] |] in
  let labels = [| 0; 0; 1; 1 |] in
  let knn = Knn.create ~fingerprints ~labels ~n_classes:2 in
  Alcotest.(check int) "near class 0" 0 (Knn.classify knn ~k:2 [| 0; 1; 0 |]);
  Alcotest.(check int) "near class 1" 1 (Knn.classify knn ~k:2 [| 9; 8; 9 |])

let test_knn_nearest_sorted () =
  let fingerprints = [| [| 0; 0 |]; [| 5; 5 |]; [| 0; 1 |] |] in
  let labels = [| 0; 1; 2 |] in
  let knn = Knn.create ~fingerprints ~labels ~n_classes:3 in
  match Knn.nearest knn ~k:3 [| 0; 0 |] with
  | [ (l1, d1); (_, d2); (_, d3) ] ->
      Alcotest.(check int) "closest label" 0 l1;
      Alcotest.(check bool) "sorted distances" true (d1 <= d2 && d2 <= d3)
  | _ -> Alcotest.fail "expected three neighbours"

(* Regression: neighbour ties break by (distance, training index), not by
   label value as the seed's polymorphic sort of (distance, label) tuples
   accidentally did.  Distances to [|0;0|]: idx 0 -> 0, idx 1 -> 1,
   idx 2 -> 1, idx 3 -> 0; training order puts idx 0 (label 3) before
   idx 3 (label 0), and idx 1 (label 1) before idx 2 (label 2). *)
let test_knn_tie_breaks_by_training_order () =
  let fingerprints = [| [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 0; 0 |] |] in
  let labels = [| 3; 1; 2; 0 |] in
  let knn = Knn.create ~fingerprints ~labels ~n_classes:4 in
  Alcotest.(check (list (pair int int)))
    "ties in training order"
    [ (3, 0); (0, 0); (1, 1) ]
    (Knn.nearest knn ~k:3 [| 0; 0 |]);
  Alcotest.(check (list (pair int int)))
    "boundary tie keeps the earlier sample"
    [ (3, 0) ]
    (Knn.nearest knn ~k:1 [| 0; 0 |]);
  Alcotest.(check int) "k larger than the training set is clamped" 4
    (List.length (Knn.nearest knn ~k:10 [| 0; 0 |]))

(* --- Matrix --- *)

let test_matrix_of_rows () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  Alcotest.(check int) "rows" 3 (Matrix.n_rows m);
  Alcotest.(check int) "cols" 2 (Matrix.n_cols m);
  Alcotest.(check (float 0.0)) "get" 4.0 (Matrix.get m 1 1);
  Alcotest.(check bool) "row round-trips" true (Matrix.get m 2 0 = 5.0 && Matrix.get m 2 1 = 6.0);
  Alcotest.(check bool) "ragged raises" true
    (try
       ignore (Matrix.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]);
       false
     with Invalid_argument _ -> true);
  let empty = Matrix.of_rows [||] in
  Alcotest.(check int) "empty rows" 0 (Matrix.n_rows empty);
  Alcotest.(check int) "empty cols" 0 (Matrix.n_cols empty)

let test_matrix_presorted () =
  let m = Matrix.of_rows [| [| 3.0 |]; [| 1.0 |]; [| 2.0 |]; [| 1.0 |] |] in
  let orders = Matrix.presorted m in
  Alcotest.(check int) "one order per column" 1 (Array.length orders);
  let order = orders.(0) in
  Alcotest.(check int) "permutation size" 4 (Array.length order);
  Alcotest.(check bool) "is a permutation" true
    (List.sort_uniq compare (Array.to_list order) = [ 0; 1; 2; 3 ]);
  let sorted = ref true in
  for i = 0 to Array.length order - 2 do
    if Matrix.get m order.(i) 0 > Matrix.get m order.(i + 1) 0 then sorted := false
  done;
  Alcotest.(check bool) "sorted by value" true !sorted

(* --- Presorted trainer vs the seed oracle (Reference) ---

   The column-major presorted trainer must reproduce the seed's naive
   row-major trainer bit for bit: same structure, same thresholds, same
   leaf ids and distributions, same feature gains — on messy inputs full
   of duplicate and constant feature values, across the parameter grid. *)

let shape_of_tree tree =
  Decision_tree.fold tree
    ~leaf:(fun ~id ~label ~dist -> Reference.Leaf { id; label; dist })
    ~split:(fun ~feature ~threshold left right ->
      Reference.Split { feature; threshold; left; right })

let check_tree_parity ~msg ~params ~seed ~n_classes ~features ~labels =
  let oracle =
    Reference.train_tree ~params ~rng:(Rng.create seed) ~n_classes ~features ~labels ()
  in
  let tree =
    train_tree ~params ~rng:(Rng.create seed) ~n_classes ~features ~labels ()
  in
  Alcotest.(check bool) (msg ^ ": structure") true
    (compare (shape_of_tree tree) oracle.Reference.root = 0);
  Alcotest.(check bool) (msg ^ ": gains") true
    (compare (Decision_tree.feature_gains tree) oracle.Reference.gains = 0);
  Alcotest.(check int) (msg ^ ": n_leaves") oracle.Reference.n_leaves (Decision_tree.n_leaves tree);
  Alcotest.(check int) (msg ^ ": depth") oracle.Reference.depth (Decision_tree.depth tree)

(* Columns are a random mix of continuous, heavily-duplicated (quantized)
   and constant values — the shapes that stress tie-breaking. *)
let messy_dataset rng ~n ~d ~n_classes =
  let kind = Array.init d (fun _ -> Rng.int rng 3) in
  let features =
    Array.init n (fun _ ->
        Array.init d (fun f ->
            match kind.(f) with
            | 0 -> Rng.uniform rng 0.0 10.0
            | 1 -> float_of_int (Rng.int rng 5)
            | _ -> 4.25))
  in
  let labels = Array.init n (fun _ -> Rng.int rng n_classes) in
  (features, labels)

let test_tree_matches_reference () =
  let rng = Rng.create 77 in
  let case = ref 0 in
  List.iter
    (fun (n, d, n_classes) ->
      List.iter
        (fun (max_depth, min_samples_leaf, features_per_split) ->
          incr case;
          let features, labels = messy_dataset rng ~n ~d ~n_classes in
          check_tree_parity
            ~msg:
              (Printf.sprintf "case %d (n=%d d=%d c=%d depth=%d leaf=%d)" !case n d n_classes
                 max_depth min_samples_leaf)
            ~params:{ Decision_tree.max_depth; min_samples_leaf; features_per_split }
            ~seed:(1000 + !case) ~n_classes ~features ~labels)
        [ (32, 1, None); (2, 1, None); (6, 1, Some 2); (32, 5, None); (32, 2, Some 3) ])
    [ (30, 3, 2); (80, 6, 4); (50, 5, 3); (120, 4, 5) ]

let test_tree_matches_reference_edges () =
  (* All-constant features: no split improves Gini, single leaf. *)
  let features = Array.make 20 [| 1.5; 1.5 |] in
  let labels = Array.init 20 (fun i -> i mod 2) in
  check_tree_parity ~msg:"constant features" ~params:Decision_tree.default_params ~seed:3
    ~n_classes:2 ~features ~labels;
  (* Smallest splittable input. *)
  check_tree_parity ~msg:"two samples" ~params:Decision_tree.default_params ~seed:4 ~n_classes:2
    ~features:[| [| 0.0 |]; [| 1.0 |] |]
    ~labels:[| 1; 0 |];
  (* min_samples_leaf large enough to veto most candidate splits. *)
  let rng = Rng.create 5 in
  let features, labels = messy_dataset rng ~n:12 ~d:3 ~n_classes:3 in
  check_tree_parity ~msg:"oversized leaves"
    ~params:{ Decision_tree.default_params with min_samples_leaf = 7 }
    ~seed:6 ~n_classes:3 ~features ~labels

let test_forest_matches_reference () =
  let rng = Rng.create 31 in
  let features, labels = messy_dataset rng ~n:60 ~d:5 ~n_classes:3 in
  let params = { Random_forest.default_params with n_trees = 12; seed = 9 } in
  let oracle = Reference.train_forest ~params ~n_classes:3 ~features ~labels () in
  let forest = Random_forest.train ~params ~n_classes:3 ~features ~labels () in
  let trees = Random_forest.trees forest in
  Alcotest.(check int) "tree count" (Array.length oracle.Reference.trees) (Array.length trees);
  Array.iteri
    (fun i (rt : Reference.tree) ->
      Alcotest.(check bool)
        (Printf.sprintf "tree %d structure" i)
        true
        (compare (shape_of_tree trees.(i)) rt.Reference.root = 0))
    oracle.Reference.trees;
  Alcotest.(check bool) "importance" true
    (compare (Random_forest.feature_importance forest) (Reference.forest_importance oracle) = 0);
  let test_f, _ = messy_dataset rng ~n:40 ~d:5 ~n_classes:3 in
  let m = Matrix.of_rows test_f in
  let predicted = Random_forest.predict_all forest m in
  Array.iteri
    (fun i x ->
      Alcotest.(check int) "prediction" (Reference.forest_predict oracle x) predicted.(i);
      Alcotest.(check bool) "fingerprint" true
        (Reference.forest_fingerprint oracle x = Random_forest.leaf_fingerprint_m forest m i))
    test_f;
  (* The Table 2 shape: 9 classes at the k-FP feature count, half the
     columns quantized — duplicate-heavy, like packet counts. *)
  let labels = Array.init 90 (fun i -> i mod 9) in
  let features =
    Array.map
      (fun l ->
        Array.init Stob_kfp.Features.dimension (fun f ->
            let v = float_of_int (10 * l) +. Rng.normal rng ~mu:0.0 ~sigma:25.0 in
            if f mod 2 = 0 then Float.round v else v))
      labels
  in
  let params = { Random_forest.default_params with n_trees = 4; seed = 11 } in
  let oracle = Reference.train_forest ~params ~n_classes:9 ~features ~labels () in
  let trees = Random_forest.trees (Random_forest.train ~params ~n_classes:9 ~features ~labels ()) in
  Array.iteri
    (fun i (rt : Reference.tree) ->
      Alcotest.(check bool)
        (Printf.sprintf "k-FP shape: tree %d structure" i)
        true
        (compare (shape_of_tree trees.(i)) rt.Reference.root = 0))
    oracle.Reference.trees

let test_forest_pool_invariant () =
  let rng = Rng.create 41 in
  let features, labels = messy_dataset rng ~n:50 ~d:4 ~n_classes:3 in
  let params = { Random_forest.default_params with n_trees = 8; seed = 2 } in
  let train pool = Random_forest.train ~params ?pool ~n_classes:3 ~features ~labels () in
  let seq = train None in
  Stob_par.Pool.with_pool ~domains:3 (fun pool ->
      let par = train (Some pool) in
      Array.iteri
        (fun i a ->
          Alcotest.(check bool)
            (Printf.sprintf "tree %d identical across domain counts" i)
            true
            (compare (shape_of_tree a) (shape_of_tree (Random_forest.trees par).(i)) = 0))
        (Random_forest.trees seq))

let test_batch_inference_matches_rowwise () =
  let rng = Rng.create 51 in
  let features, labels = messy_dataset rng ~n:60 ~d:4 ~n_classes:4 in
  let forest =
    Random_forest.train
      ~params:{ Random_forest.default_params with n_trees = 9; seed = 7 }
      ~n_classes:4 ~features ~labels ()
  in
  let test_f, _ = messy_dataset rng ~n:30 ~d:4 ~n_classes:4 in
  let m = Matrix.of_rows test_f in
  let one x = Matrix.of_rows [| x |] in
  Alcotest.(check bool) "predict_all == one row at a time" true
    (Random_forest.predict_all forest m = Array.map (forest_predict forest) test_f);
  Alcotest.(check bool) "leaf_fingerprints == one row at a time" true
    (Random_forest.leaf_fingerprints forest m
    = Array.map (fun x -> Random_forest.leaf_fingerprint_m forest (one x) 0) test_f)

(* The end-to-end determinism contract: a cross-validated attack through
   Evalcommon must give bit-identical accuracies at --jobs 1 and --jobs 3
   now that folds share one column matrix across worker domains. *)
let test_accuracy_cv_jobs_invariant () =
  let dataset =
    Stob_web.Dataset.sanitize
      (Stob_web.Dataset.generate ~samples_per_site:6 ~seed:5 ~failure_rate:0.0
         ~profiles:
           [
             Stob_web.Sites.find "bing.com";
             Stob_web.Sites.find "youtube.com";
             Stob_web.Sites.find "whatsapp.net";
           ]
         ())
  in
  let cv p = Stob_experiments.Evalcommon.accuracy_cv ~folds:3 ~trees:10 ?pool:p dataset in
  let seq = cv None in
  Stob_par.Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check bool) "--jobs 1 == --jobs 3" true (seq = cv (Some pool)))

(* --- Eval --- *)

let test_eval_accuracy () =
  Alcotest.(check (float 1e-9)) "3/4" 0.75
    (Eval.accuracy ~predicted:[| 1; 0; 1; 1 |] ~actual:[| 1; 0; 0; 1 |])

let test_eval_confusion () =
  let m = Eval.confusion ~n_classes:2 ~predicted:[| 0; 1; 1; 0 |] ~actual:[| 0; 1; 0; 0 |] in
  Alcotest.(check int) "true 0 predicted 0" 2 m.(0).(0);
  Alcotest.(check int) "true 0 predicted 1" 1 m.(0).(1);
  Alcotest.(check int) "true 1 predicted 1" 1 m.(1).(1)

let test_eval_per_class_recall () =
  let m = [| [| 8; 2 |]; [| 1; 9 |] |] in
  let r = Eval.per_class_recall m in
  Alcotest.(check (float 1e-9)) "class 0" 0.8 r.(0);
  Alcotest.(check (float 1e-9)) "class 1" 0.9 r.(1)

let test_eval_mean_std () =
  let m, s = Eval.mean_std [ 0.8; 0.9; 1.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 0.9 m;
  Alcotest.(check (float 1e-6)) "std" 0.1 s

(* --- qcheck --- *)

let prop_forest_predicts_known_class =
  QCheck.Test.make ~name:"forest prediction is a valid class" ~count:50
    QCheck.(int_range 2 5)
    (fun n_classes ->
      let rng = Rng.create n_classes in
      let features = Array.init 60 (fun _ -> [| Rng.uniform rng 0.0 1.0 |]) in
      let labels = Array.init 60 (fun i -> i mod n_classes) in
      let forest =
        Random_forest.train
          ~params:{ Random_forest.default_params with n_trees = 5 }
          ~n_classes ~features ~labels ()
      in
      let p = forest_predict forest [| 0.5 |] in
      p >= 0 && p < n_classes)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "ml.decision_tree",
      [
        Alcotest.test_case "fits training data" `Quick test_tree_fits_training_data;
        Alcotest.test_case "generalizes" `Quick test_tree_generalizes;
        Alcotest.test_case "max depth" `Quick test_tree_max_depth_respected;
        Alcotest.test_case "pure node" `Quick test_tree_pure_node_is_leaf;
        Alcotest.test_case "dist sums to one" `Quick test_tree_predict_dist_sums_to_one;
        Alcotest.test_case "leaf ids distinct" `Quick test_tree_leaf_ids_distinct;
        Alcotest.test_case "invalid inputs" `Quick test_tree_invalid_inputs;
      ] );
    ( "ml.random_forest",
      [
        Alcotest.test_case "beats chance on grid" `Quick test_forest_beats_chance_on_grid;
        Alcotest.test_case "deterministic given seed" `Quick test_forest_deterministic_given_seed;
        Alcotest.test_case "proba normalized" `Quick test_forest_proba_normalized;
        Alcotest.test_case "fingerprint shape" `Quick test_forest_fingerprint_shape;
        Alcotest.test_case "feature importance" `Quick test_forest_feature_importance;
        q prop_forest_predicts_known_class;
      ] );
    ( "ml.knn",
      [
        Alcotest.test_case "hamming" `Quick test_knn_hamming;
        Alcotest.test_case "classify" `Quick test_knn_classify;
        Alcotest.test_case "nearest sorted" `Quick test_knn_nearest_sorted;
        Alcotest.test_case "tie-break by training order" `Quick
          test_knn_tie_breaks_by_training_order;
      ] );
    ( "ml.matrix",
      [
        Alcotest.test_case "of_rows" `Quick test_matrix_of_rows;
        Alcotest.test_case "presorted" `Quick test_matrix_presorted;
      ] );
    ( "ml.parity",
      [
        Alcotest.test_case "tree == reference oracle" `Quick test_tree_matches_reference;
        Alcotest.test_case "tree == reference oracle (edges)" `Quick
          test_tree_matches_reference_edges;
        Alcotest.test_case "forest == reference oracle" `Quick test_forest_matches_reference;
        Alcotest.test_case "forest invariant across domains" `Quick test_forest_pool_invariant;
        Alcotest.test_case "batch inference == row-wise" `Quick
          test_batch_inference_matches_rowwise;
        Alcotest.test_case "accuracy_cv jobs-invariant" `Slow test_accuracy_cv_jobs_invariant;
      ] );
    ( "ml.eval",
      [
        Alcotest.test_case "accuracy" `Quick test_eval_accuracy;
        Alcotest.test_case "confusion" `Quick test_eval_confusion;
        Alcotest.test_case "per-class recall" `Quick test_eval_per_class_recall;
        Alcotest.test_case "mean/std" `Quick test_eval_mean_std;
      ] );
  ]
