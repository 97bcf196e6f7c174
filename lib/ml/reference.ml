(* The seed trainer, preserved as-is.  Do not "improve" this file: its
   whole value is being the unoptimized original whose behaviour the
   presorted trainer must reproduce bit-for-bit. *)

module Rng = Stob_util.Rng

type node =
  | Leaf of { id : int; label : int; dist : float array }
  | Split of { feature : int; threshold : float; left : node; right : node }

type tree = { root : node; n_leaves : int; depth : int; gains : float array }

let class_counts ~n_classes labels indices =
  let counts = Array.make n_classes 0 in
  Array.iter (fun i -> counts.(labels.(i)) <- counts.(labels.(i)) + 1) indices;
  counts

let gini_of_counts counts total =
  if total = 0 then 0.0
  else
    let t = float_of_int total in
    1.0
    -. Array.fold_left
         (fun acc c ->
           let p = float_of_int c /. t in
           acc +. (p *. p))
         0.0 counts

let majority (counts : int array) =
  let best = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!best) then best := i) counts;
  !best

let best_split_on_feature ~features ~labels ~n_classes indices feature =
  let n = Array.length indices in
  let order = Array.copy indices in
  Array.sort (fun a b -> compare features.(a).(feature) features.(b).(feature)) order;
  let total_counts = class_counts ~n_classes labels order in
  let left_counts = Array.make n_classes 0 in
  let best = ref None in
  for i = 0 to n - 2 do
    let idx = order.(i) in
    left_counts.(labels.(idx)) <- left_counts.(labels.(idx)) + 1;
    let v = features.(idx).(feature) and v' = features.(order.(i + 1)).(feature) in
    if v < v' then begin
      let n_left = i + 1 in
      let n_right = n - n_left in
      let right_counts = Array.mapi (fun c total -> total - left_counts.(c)) total_counts in
      let score =
        (float_of_int n_left *. gini_of_counts left_counts n_left
        +. float_of_int n_right *. gini_of_counts right_counts n_right)
        /. float_of_int n
      in
      let threshold = (v +. v') /. 2.0 in
      match !best with
      | Some (_, s) when s <= score -> ()
      | _ -> best := Some (threshold, score)
    end
  done;
  !best

let train_tree ?(params = Decision_tree.default_params) ~rng ~n_classes ~features ~labels () =
  if Array.length features = 0 then invalid_arg "Reference.train_tree: no samples";
  if Array.length features <> Array.length labels then
    invalid_arg "Reference.train_tree: features/labels length mismatch";
  let n_features = Array.length features.(0) in
  let n_root = float_of_int (Array.length features) in
  let gains = Array.make n_features 0.0 in
  let next_leaf = ref 0 in
  let max_depth_seen = ref 0 in
  let make_leaf counts total depth =
    if depth > !max_depth_seen then max_depth_seen := depth;
    let id = !next_leaf in
    incr next_leaf;
    let dist = Array.map (fun c -> float_of_int c /. float_of_int (Int.max 1 total)) counts in
    Leaf { id; label = majority counts; dist }
  in
  let feature_candidates () =
    match params.Decision_tree.features_per_split with
    | None -> Array.init n_features (fun i -> i)
    | Some k -> Rng.sample_without_replacement rng (Int.min k n_features) n_features
  in
  let rec grow indices depth =
    let total = Array.length indices in
    let counts = class_counts ~n_classes labels indices in
    let pure = Array.exists (fun c -> c = total) counts in
    if
      pure
      || depth >= params.Decision_tree.max_depth
      || total < 2 * params.Decision_tree.min_samples_leaf
    then make_leaf counts total depth
    else begin
      let best = ref None in
      Array.iter
        (fun f ->
          match best_split_on_feature ~features ~labels ~n_classes indices f with
          | None -> ()
          | Some (threshold, score) -> (
              match !best with
              | Some (_, _, s) when s <= score -> ()
              | _ -> best := Some (f, threshold, score)))
        (feature_candidates ());
      match !best with
      | None -> make_leaf counts total depth
      | Some (feature, threshold, score) ->
          let left_idx =
            Array.of_list
              (List.filter (fun i -> features.(i).(feature) <= threshold) (Array.to_list indices))
          in
          let right_idx =
            Array.of_list
              (List.filter (fun i -> features.(i).(feature) > threshold) (Array.to_list indices))
          in
          if
            Array.length left_idx < params.Decision_tree.min_samples_leaf
            || Array.length right_idx < params.Decision_tree.min_samples_leaf
          then make_leaf counts total depth
          else begin
            let parent_gini = gini_of_counts counts total in
            gains.(feature) <-
              gains.(feature) +. ((parent_gini -. score) *. float_of_int total /. n_root);
            let left = grow left_idx (depth + 1) in
            let right = grow right_idx (depth + 1) in
            Split { feature; threshold; left; right }
          end
    end
  in
  let root = grow (Array.init (Array.length features) (fun i -> i)) 0 in
  { root; n_leaves = !next_leaf; depth = !max_depth_seen; gains }

let rec descend node x =
  match node with
  | Leaf _ -> node
  | Split { feature; threshold; left; right } ->
      if x.(feature) <= threshold then descend left x else descend right x

let tree_predict t x =
  match descend t.root x with Leaf { label; _ } -> label | Split _ -> assert false

let tree_leaf_id t x =
  match descend t.root x with Leaf { id; _ } -> id | Split _ -> assert false

type forest = { trees : tree array; n_classes : int }

let train_forest ?(params = Random_forest.default_params) ~n_classes ~features ~labels () =
  let n = Array.length features in
  if n = 0 then invalid_arg "Reference.train_forest: no samples";
  let n_features = Array.length features.(0) in
  let per_split =
    match params.Random_forest.features_per_split with
    | `All -> None
    | `Sqrt -> Some (Int.max 1 (int_of_float (sqrt (float_of_int n_features))))
    | `N k -> Some (Int.max 1 k)
  in
  let tree_params =
    {
      Decision_tree.max_depth = params.Random_forest.max_depth;
      min_samples_leaf = params.Random_forest.min_samples_leaf;
      features_per_split = per_split;
    }
  in
  let master = Rng.create params.Random_forest.seed in
  let rngs = Array.init params.Random_forest.n_trees (fun _ -> Rng.split master) in
  let train_one rng =
    let boot_features = Array.make n features.(0) in
    let boot_labels = Array.make n 0 in
    for i = 0 to n - 1 do
      let j = Rng.int rng n in
      boot_features.(i) <- features.(j);
      boot_labels.(i) <- labels.(j)
    done;
    train_tree ~params:tree_params ~rng ~n_classes ~features:boot_features ~labels:boot_labels ()
  in
  { trees = Array.map train_one rngs; n_classes }

let forest_predict t x =
  let votes = Array.make t.n_classes 0 in
  Array.iter
    (fun tree ->
      let c = tree_predict tree x in
      votes.(c) <- votes.(c) + 1)
    t.trees;
  let best = ref 0 in
  Array.iteri (fun c v -> if v > votes.(!best) then best := c) votes;
  !best

let forest_fingerprint t x = Array.map (fun tree -> tree_leaf_id tree x) t.trees

let forest_importance t =
  let n_features =
    match Array.length t.trees with 0 -> 0 | _ -> Array.length t.trees.(0).gains
  in
  let acc = Array.make n_features 0.0 in
  Array.iter (fun tree -> Array.iteri (fun i g -> acc.(i) <- acc.(i) +. g) tree.gains) t.trees;
  let total = Array.fold_left ( +. ) 0.0 acc in
  if total <= 0.0 then acc else Array.map (fun v -> v /. total) acc
