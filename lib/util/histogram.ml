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
