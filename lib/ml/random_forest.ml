module Rng = Stob_util.Rng
module Pool = Stob_par.Pool

type params = {
  n_trees : int;
  max_depth : int;
  min_samples_leaf : int;
  features_per_split : [ `Sqrt | `All | `N of int ];
  seed : int;
}

let default_params =
  { n_trees = 100; max_depth = 32; min_samples_leaf = 1; features_per_split = `Sqrt; seed = 0 }

type t = { trees : Decision_tree.t array; n_classes : int }

let train_m ?(params = default_params) ?(pool = Pool.sequential) ~n_classes ~matrix ~labels () =
  let n = Matrix.n_rows matrix in
  if n = 0 then invalid_arg "Random_forest.train: no samples";
  if Array.length labels <> n then
    invalid_arg "Random_forest.train: labels/matrix length mismatch";
  let n_features = Matrix.n_cols matrix in
  let per_split =
    match params.features_per_split with
    | `All -> None
    | `Sqrt -> Some (max 1 (int_of_float (sqrt (float_of_int n_features))))
    | `N k -> Some (max 1 k)
  in
  let tree_params =
    {
      Decision_tree.max_depth = params.max_depth;
      min_samples_leaf = params.min_samples_leaf;
      features_per_split = per_split;
    }
  in
  (* The column matrix and its presort are immutable: one copy is shared
     by every tree and every domain.  A tree allocates only its bootstrap
     index array (plus the trainer's per-tree scratch) — no row copies. *)
  let orders = Matrix.presorted matrix in
  let master = Rng.create params.seed in
  (* Pre-split one generator per tree, in tree order; [split] only consumes
     the master stream, so this matches the sequential interleaving
     bit-for-bit and makes per-tree training order-independent. *)
  let rngs = Array.init params.n_trees (fun _ -> Rng.split master) in
  let train_tree rng =
    let sample = Array.make n 0 in
    for i = 0 to n - 1 do
      sample.(i) <- Rng.int rng n
    done;
    Decision_tree.train_presorted ~params:tree_params ~rng ~n_classes ~matrix ~labels ~sample
      ~orders ()
  in
  { trees = Pool.map pool train_tree rngs; n_classes }

let train ?params ?pool ~n_classes ~features ~labels () =
  if Array.length features = 0 then invalid_arg "Random_forest.train: no samples";
  train_m ?params ?pool ~n_classes ~matrix:(Matrix.of_rows features) ~labels ()

let predict_proba t x =
  let acc = Array.make t.n_classes 0.0 in
  Array.iter (fun tree -> Decision_tree.add_dist tree x ~into:acc) t.trees;
  let n = float_of_int (Array.length t.trees) in
  for c = 0 to t.n_classes - 1 do
    acc.(c) <- acc.(c) /. n
  done;
  acc

let vote_argmax votes =
  let best = ref 0 in
  Array.iteri (fun c v -> if v > votes.(!best) then best := c) votes;
  !best

let predict_all t m =
  let votes = Array.make t.n_classes 0 in
  Array.init (Matrix.n_rows m) (fun row ->
      Array.fill votes 0 t.n_classes 0;
      Array.iter
        (fun tree ->
          let c = Decision_tree.predict_m tree m row in
          votes.(c) <- votes.(c) + 1)
        t.trees;
      vote_argmax votes)

let leaf_fingerprint_m t m row =
  Array.map (fun tree -> Decision_tree.leaf_id_m tree m row) t.trees

let leaf_fingerprints t m = Array.init (Matrix.n_rows m) (fun row -> leaf_fingerprint_m t m row)

let trees t = Array.copy t.trees

let feature_importance t =
  let n_features =
    match Array.length t.trees with
    | 0 -> 0
    | _ -> Array.length (Decision_tree.feature_gains t.trees.(0))
  in
  let acc = Array.make n_features 0.0 in
  Array.iter
    (fun tree ->
      Array.iteri (fun i g -> acc.(i) <- acc.(i) +. g) (Decision_tree.feature_gains tree))
    t.trees;
  let total = Array.fold_left ( +. ) 0.0 acc in
  if total <= 0.0 then acc else Array.map (fun v -> v /. total) acc
