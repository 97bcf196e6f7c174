(* The folds below are plain loops rather than [Array.fold_left]: the same
   operations in the same order, without boxing the accumulator on every
   step. *)

let sum (a : float array) =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Array.unsafe_get a i
  done;
  !acc

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else sum a /. float_of_int n

(* [(x -. m) ** 2.0], not [x *. x]: glibc's [pow x 2.] and the product
   differ in the last bit on some inputs, and every committed digest was
   taken with [pow]. *)
let sum_sq_dev (a : float array) m =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. ((Array.unsafe_get a i -. m) ** 2.0)
  done;
  !acc

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0 else sum_sq_dev a (mean a) /. float_of_int n

let std a = sqrt (variance a)

let sample_std a =
  let n = Array.length a in
  if n < 2 then 0.0 else sqrt (sum_sq_dev a (mean a) /. float_of_int (n - 1))

(* [Stdlib.min]/[max] folds ([if a <= b then a else b]), NaN and -0.0
   behaviour included, without the polymorphic comparison. *)
let min_ (a : float array) =
  if Array.length a = 0 then 0.0
  else begin
    let m = ref (Array.unsafe_get a 0) in
    for i = 0 to Array.length a - 1 do
      let x = Array.unsafe_get a i in
      if not (!m <= x) then m := x
    done;
    !m
  end

let max_ (a : float array) =
  if Array.length a = 0 then 0.0
  else begin
    let m = ref (Array.unsafe_get a 0) in
    for i = 0 to Array.length a - 1 do
      let x = Array.unsafe_get a i in
      if not (!m >= x) then m := x
    done;
    !m
  end

(* [Array.sort compare] orders floats by a total preorder in which -0.0
   ties with 0.0 and NaN sorts first.  Heap sort is not stable, so where
   tied -0.0/0.0 (or distinct NaN payloads) land in its output is an
   artefact of the algorithm.  Without NaN and -0.0, tied values are
   bitwise equal and every correct sort returns the same bits, so the
   cheaper paths below are exact there; anything else still goes through
   [Array.sort compare]. *)
type shape = Sorted | Unsorted | Special

let shape (a : float array) =
  let n = Array.length a in
  let rec go i sorted =
    if i = n then if sorted then Sorted else Unsorted
    else
      let x = Array.unsafe_get a i in
      if x <> x || (x = 0.0 && 1.0 /. x < 0.0) then Special
      else go (i + 1) (sorted && (i = 0 || Array.unsafe_get a (i - 1) <= x))
  in
  go 0 true

let insertion_sort (a : float array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Top-down merge sort of [a.(lo..hi-1)]; [tmp] holds the left run while
   it merges back.  Only for arrays without NaN. *)
let rec merge_sort (a : float array) (tmp : float array) lo hi =
  if hi - lo <= 16 then insertion_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    merge_sort a tmp lo mid;
    merge_sort a tmp mid hi;
    if Array.unsafe_get a (mid - 1) > Array.unsafe_get a mid then begin
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid do
        if !j < hi && Array.unsafe_get a !j < Array.unsafe_get tmp !i then begin
          Array.unsafe_set a !k (Array.unsafe_get a !j);
          incr j
        end
        else begin
          Array.unsafe_set a !k (Array.unsafe_get tmp !i);
          incr i
        end;
        incr k
      done
    end
  end

let sort_shaped b = function
  | Sorted -> ()
  | Unsorted -> merge_sort b (Array.create_float (Array.length b)) 0 (Array.length b)
  | Special -> Array.sort compare b

(* [a] itself when it is already its own sorted copy: for read-only use. *)
let sorted_view a =
  match shape a with
  | Sorted -> a
  | s ->
      let b = Array.copy a in
      sort_shaped b s;
      b

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else if n = 1 then sorted.(0)
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percentile a p = percentile_sorted (sorted_view a) p
let median a = percentile a 50.0

let quantiles a ps =
  let sorted = sorted_view a in
  List.map (percentile_sorted sorted) ps

let iqr_bounds a =
  if Array.length a = 0 then invalid_arg "Stats.iqr_bounds: empty input";
  let sorted = sorted_view a in
  let q1 = percentile_sorted sorted 25.0 and q3 = percentile_sorted sorted 75.0 in
  let iqr = q3 -. q1 in
  (q1 -. (1.5 *. iqr), q3 +. (1.5 *. iqr))

let skewness a =
  let n = Array.length a in
  if n < 3 then 0.0
  else
    let m = mean a and s = std a in
    if s = 0.0 then 0.0
    else
      let acc = Array.fold_left (fun acc x -> acc +. (((x -. m) /. s) ** 3.0)) 0.0 a in
      acc /. float_of_int n

let kurtosis a =
  let n = Array.length a in
  if n < 4 then 0.0
  else
    let m = mean a and s = std a in
    if s = 0.0 then 0.0
    else
      let acc = Array.fold_left (fun acc x -> acc +. (((x -. m) /. s) ** 4.0)) 0.0 a in
      (acc /. float_of_int n) -. 3.0

let mad a =
  if Array.length a = 0 then 0.0
  else
    let m = median a in
    median (Array.map (fun x -> Float.abs (x -. m)) a)

let cumulative a =
  let n = Array.length a in
  let out = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. a.(i);
    out.(i) <- !acc
  done;
  out
