let accuracy ~predicted ~actual =
  let n = Array.length predicted in
  if n = 0 || n <> Array.length actual then invalid_arg "Eval.accuracy: bad inputs";
  let hits = ref 0 in
  Array.iteri (fun i p -> if p = actual.(i) then incr hits) predicted;
  float_of_int !hits /. float_of_int n

let confusion ~n_classes ~predicted ~actual =
  if Array.length predicted <> Array.length actual then
    invalid_arg "Eval.confusion: length mismatch";
  let m = Array.make_matrix n_classes n_classes 0 in
  Array.iteri (fun i p -> m.(actual.(i)).(p) <- m.(actual.(i)).(p) + 1) predicted;
  m

let per_class_recall m =
  Array.mapi
    (fun i row ->
      let total = Array.fold_left ( + ) 0 row in
      if total = 0 then 0.0 else float_of_int row.(i) /. float_of_int total)
    m

let mean_std values =
  let a = Array.of_list values in
  (Stob_util.Stats.mean a, Stob_util.Stats.sample_std a)
