let accuracy ~predicted ~actual =
  let n = Array.length predicted in
  if n = 0 || n <> Array.length actual then invalid_arg "Eval.accuracy: bad inputs";
  let hits = ref 0 in
  Array.iteri (fun i (p : int) -> if p = actual.(i) then incr hits) predicted;
  float_of_int !hits /. float_of_int n

let mean_std values =
  let a = Array.of_list values in
  (Stob_util.Stats.mean a, Stob_util.Stats.sample_std a)
