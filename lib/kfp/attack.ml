module Rf = Stob_ml.Random_forest
module Knn = Stob_ml.Knn
module Eval = Stob_ml.Eval
module Matrix = Stob_ml.Matrix

type mode = Forest_vote | Leaf_knn of int

type t = { forest : Rf.t; knn : Knn.t }

let train_m ?(forest = Rf.default_params) ?pool ~n_classes ~matrix ~labels () =
  let rf = Rf.train_m ~params:forest ?pool ~n_classes ~matrix ~labels () in
  let fingerprints = Rf.leaf_fingerprints rf matrix in
  let knn = Knn.create ~fingerprints ~labels ~n_classes in
  { forest = rf; knn }

let train ?forest ?pool ~n_classes ~features ~labels () =
  train_m ?forest ?pool ~n_classes ~matrix:(Matrix.of_rows features) ~labels ()

let predict_all_m t ~mode m =
  match mode with
  | Forest_vote -> Rf.predict_all t.forest m
  | Leaf_knn k ->
      Array.init (Matrix.n_rows m) (fun row ->
          Knn.classify t.knn ~k (Rf.leaf_fingerprint_m t.forest m row))

let evaluate_m t ~mode ~matrix ~labels =
  Eval.accuracy ~predicted:(predict_all_m t ~mode matrix) ~actual:labels

let evaluate t ~mode ~features ~labels =
  evaluate_m t ~mode ~matrix:(Matrix.of_rows features) ~labels

let open_world_of_nearest = function
  | [] -> None
  | (first, _) :: rest -> if List.for_all (fun (l, _) -> l = first) rest then Some first else None

let predict_open_world_all t ~k m =
  Array.init (Matrix.n_rows m) (fun row ->
      open_world_of_nearest (Knn.nearest t.knn ~k (Rf.leaf_fingerprint_m t.forest m row)))

let forest t = t.forest
