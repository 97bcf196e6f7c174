type t = { lo : float; hi : float; counts : int array; mutable total : int }

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let bins t = Array.length t.counts
let lo t = t.lo
let count t = t.total

let width t = (t.hi -. t.lo) /. float_of_int (bins t)

let bin_index t x =
  let i = int_of_float ((x -. t.lo) /. width t) in
  if i < 0 then 0 else if i >= bins t then bins t - 1 else i

let add t x =
  t.counts.(bin_index t x) <- t.counts.(bin_index t x) + 1;
  t.total <- t.total + 1

let of_samples ~lo ~hi ~bins samples =
  let t = create ~lo ~hi ~bins in
  Array.iter (add t) samples;
  t

let bin_count t i = t.counts.(i)

let bin_edges t i =
  let w = width t in
  (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w))

let sample t rng =
  if t.total = 0 then invalid_arg "Histogram.sample: empty histogram";
  let target = Rng.int rng t.total in
  let rec find i acc =
    let acc = acc + t.counts.(i) in
    if target < acc then i else find (i + 1) acc
  in
  let i = find 0 0 in
  let left, right = bin_edges t i in
  Rng.uniform rng left right

let quantile t q =
  if t.total = 0 then invalid_arg "Histogram.quantile: empty histogram";
  let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
  let target = q *. float_of_int t.total in
  let rec find i acc =
    if i >= bins t - 1 then i
    else
      let acc' = acc +. float_of_int t.counts.(i) in
      if target <= acc' then i else find (i + 1) acc'
  in
  let i = find 0 0.0 in
  let before =
    let acc = ref 0.0 in
    for j = 0 to i - 1 do
      acc := !acc +. float_of_int t.counts.(j)
    done;
    !acc
  in
  let in_bin = float_of_int t.counts.(i) in
  let frac = if in_bin = 0.0 then 0.5 else (target -. before) /. in_bin in
  let frac = if frac < 0.0 then 0.0 else if frac > 1.0 then 1.0 else frac in
  let left, right = bin_edges t i in
  left +. (frac *. (right -. left))

let merge a b =
  if bins a <> bins b || a.lo <> b.lo || a.hi <> b.hi then
    invalid_arg "Histogram.merge: geometry mismatch";
  let t = create ~lo:a.lo ~hi:a.hi ~bins:(bins a) in
  for i = 0 to bins a - 1 do
    t.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  t.total <- a.total + b.total;
  t
