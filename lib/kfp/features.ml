(* The k-FP featurizer: one kernel over the trace's lanes.

   The kernel counts directions in one pass, fills every
   per-direction array, counter and running sum in a second, then writes
   the statistics straight into the result, taking each array's order
   statistics from one sorted copy (none at all for time offsets that are
   already in order).

   Every value comes from the same float operations, in the same order, as
   the seed featurizer kept in test/kfp_reference.ml; the kfp.packed
   battery holds the two to bit identity.  HACKING.md "Classifier hot
   path" lists the rules that keep that true. *)

module Trace = Stob_net.Trace
module Stats = Stob_util.Stats
module BA1 = Bigarray.Array1

let chunk_size = 20

(* Entries in each evenly-spaced subsample (conc, pps, cumul). *)
let samples = 20

(* Width of a packets-per-interval bucket, seconds. *)
let pps_bucket = 0.25

(* Size bands (wire bytes) counted per direction; the last band also takes
   everything larger. *)
let size_bands = [| 100; 300; 600; 900; 1200; 1500 |]

let n_bands = Array.length size_bands

let band_of size =
  let rec go i = if i >= n_bands - 1 || size <= size_bands.(i) then i else go (i + 1) in
  go 0

let names =
  let block prefix suffixes = List.map (fun s -> prefix ^ "." ^ s) suffixes in
  let indexed prefix n = List.init n (Printf.sprintf "%s.%02d" prefix) in
  let stat = [ "mean"; "std"; "median"; "min"; "max" ] in
  let iat = [ "max"; "mean"; "std"; "p75" ] in
  let time = [ "p25"; "p50"; "p75"; "p100" ] in
  let burst = [ "count"; "mean"; "max"; "ge5"; "ge10" ] in
  Array.of_list
    (List.concat
       [
         [ "count.total"; "count.in"; "count.out"; "count.frac_in"; "count.frac_out" ];
         [ "bytes.total"; "bytes.in"; "bytes.out"; "bytes.frac_in" ];
         block "size.in" stat;
         block "size.out" stat;
         block "iat.total" iat;
         block "iat.in" iat;
         block "iat.out" iat;
         block "time.total" time;
         block "time.in" time;
         block "time.out" time;
         [ "order.out.mean"; "order.out.std"; "order.in.mean"; "order.in.std" ];
         block "conc" stat;
         [ "conc.sum" ];
         indexed "conc.sample" samples;
         block "pps" stat;
         indexed "pps.sample" samples;
         [ "first30.in"; "first30.out"; "last30.in"; "last30.out" ];
         block "burst.out" burst;
         block "burst.in" burst;
         indexed "band.in" n_bands;
         indexed "band.out" n_bands;
         [ "duration" ];
         indexed "cumul" samples;
       ])

let dimension = Array.length names

let safe_frac num den = if den = 0.0 then 0.0 else num /. den

(* Maximal same-direction runs of one direction, tallied as they close.
   Run lengths are small integers, so every float sum over them is exact
   in any order: their mean is the direction's packet count over [count]. *)
type bursts = { mutable count : int; mutable longest : int; mutable ge5 : int; mutable ge10 : int }

let close_run b len =
  b.count <- b.count + 1;
  if len > b.longest then b.longest <- len;
  if len >= 5 then b.ge5 <- b.ge5 + 1;
  if len >= 10 then b.ge10 <- b.ge10 + 1

let extract trace =
  let times = Trace.raw_times trace and meta = Trace.raw_meta trace in
  let n = Trace.length trace in
  let n_out = ref 0 in
  for i = 0 to n - 1 do
    n_out := !n_out + (Int32.to_int (BA1.unsafe_get meta i) land 1)
  done;
  let n_out = !n_out in
  let n_in = n - n_out in
  let t0 = if n = 0 then 0.0 else BA1.unsafe_get times 0 in
  let duration = if n < 2 then 0.0 else BA1.unsafe_get times (n - 1) -. t0 in
  let sizes_in = Array.create_float n_in and sizes_out = Array.create_float n_out in
  let rel = Array.create_float n in
  let rel_in = Array.create_float n_in and rel_out = Array.create_float n_out in
  let pos_in = Array.create_float n_in and pos_out = Array.create_float n_out in
  let gaps = Array.create_float (Int.max 0 (n - 1)) in
  let gaps_in = Array.create_float (Int.max 0 (n_in - 1)) in
  let gaps_out = Array.create_float (Int.max 0 (n_out - 1)) in
  let conc = Array.make ((n + chunk_size - 1) / chunk_size) 0.0 in
  let pps =
    if n = 0 then [||] else Array.make (Int.max 1 (1 + int_of_float (duration /. pps_bucket))) 0.0
  in
  let buckets = Array.length pps in
  let band_in = Array.make n_bands 0.0 and band_out = Array.make n_bands 0.0 in
  let cumul = Array.make samples 0.0 in
  let b_in = { count = 0; longest = 0; ge5 = 0; ge10 = 0 } in
  let b_out = { count = 0; longest = 0; ge5 = 0; ge10 = 0 } in
  let k_in = ref 0 and k_out = ref 0 in
  let last_in = ref 0.0 and last_out = ref 0.0 in
  let bytes_in = ref 0 and bytes_out = ref 0 in
  let first30_in = ref 0 and first30_out = ref 0 in
  let last30_in = ref 0 and last30_out = ref 0 in
  let run = ref 0 in
  let acc = ref 0.0 and next_sample = ref 0 in
  for i = 0 to n - 1 do
    let m = Int32.to_int (BA1.unsafe_get meta i) in
    let t = BA1.unsafe_get times i in
    let size = m lsr 1 in
    let r = t -. t0 in
    let band = band_of size in
    rel.(i) <- r;
    if i > 0 then gaps.(i - 1) <- t -. BA1.unsafe_get times (i - 1);
    (* Bounds-checked on purpose: on an unsorted trace a timestamp more than
       a bucket before the first raises, exactly as the seed featurizer. *)
    let b = Int.min (buckets - 1) (int_of_float (r /. pps_bucket)) in
    pps.(b) <- pps.(b) +. 1.0;
    if i > 0 && m land 1 <> Int32.to_int (BA1.unsafe_get meta (i - 1)) land 1 then begin
      close_run (if m land 1 = 1 then b_in else b_out) !run;
      run := 0
    end;
    incr run;
    if m land 1 = 1 then begin
      let k = !k_out in
      sizes_out.(k) <- float_of_int size;
      rel_out.(k) <- r;
      pos_out.(k) <- float_of_int i;
      if k > 0 then gaps_out.(k - 1) <- t -. !last_out;
      last_out := t;
      k_out := k + 1;
      bytes_out := !bytes_out + size;
      band_out.(band) <- band_out.(band) +. 1.0;
      conc.(i / chunk_size) <- conc.(i / chunk_size) +. 1.0;
      if i < 30 then incr first30_out;
      if i >= n - 30 then incr last30_out;
      acc := !acc +. float_of_int size
    end
    else begin
      let k = !k_in in
      sizes_in.(k) <- float_of_int size;
      rel_in.(k) <- r;
      pos_in.(k) <- float_of_int i;
      if k > 0 then gaps_in.(k - 1) <- t -. !last_in;
      last_in := t;
      k_in := k + 1;
      bytes_in := !bytes_in + size;
      band_in.(band) <- band_in.(band) +. 1.0;
      if i < 30 then incr first30_in;
      if i >= n - 30 then incr last30_in;
      acc := !acc +. float_of_int (-size)
    end;
    while !next_sample < samples && !next_sample * n / samples <= i do
      cumul.(!next_sample) <- !acc;
      incr next_sample
    done
  done;
  if n > 0 then
    close_run (if Int32.to_int (BA1.unsafe_get meta (n - 1)) land 1 = 1 then b_out else b_in) !run;
  let v = Array.make dimension 0.0 in
  let k = ref 0 in
  let put x =
    v.(!k) <- x;
    incr k
  in
  let stats a =
    put (Stats.mean a);
    put (Stats.std a);
    put (Stats.median a);
    put (Stats.min_ a);
    put (Stats.max_ a)
  in
  let iat a =
    put (Stats.max_ a);
    put (Stats.mean a);
    put (Stats.std a);
    put (Stats.percentile a 75.0)
  in
  let time_percentiles a = List.iter put (Stats.quantiles a [ 25.0; 50.0; 75.0; 100.0 ]) in
  let sampled a =
    let len = Array.length a in
    for i = 0 to samples - 1 do
      put (if len = 0 then 0.0 else a.(Int.min (i * len / samples) (len - 1)))
    done
  in
  let burst b n_dir =
    put (float_of_int b.count);
    put (if b.count = 0 then 0.0 else float_of_int n_dir /. float_of_int b.count);
    put (float_of_int b.longest);
    put (float_of_int b.ge5);
    put (float_of_int b.ge10)
  in
  let nf = float_of_int n and nf_in = float_of_int n_in and nf_out = float_of_int n_out in
  let bytes_total = float_of_int (!bytes_in + !bytes_out) and bytes_in = float_of_int !bytes_in in
  put nf;
  put nf_in;
  put nf_out;
  put (safe_frac nf_in nf);
  put (safe_frac nf_out nf);
  put bytes_total;
  put bytes_in;
  put (float_of_int !bytes_out);
  put (safe_frac bytes_in bytes_total);
  stats sizes_in;
  stats sizes_out;
  iat gaps;
  iat gaps_in;
  iat gaps_out;
  time_percentiles rel;
  time_percentiles rel_in;
  time_percentiles rel_out;
  put (Stats.mean pos_out);
  put (Stats.std pos_out);
  put (Stats.mean pos_in);
  put (Stats.std pos_in);
  stats conc;
  put (Stats.sum conc);
  sampled conc;
  stats pps;
  sampled pps;
  put (float_of_int !first30_in);
  put (float_of_int !first30_out);
  put (float_of_int !last30_in);
  put (float_of_int !last30_out);
  burst b_out n_out;
  burst b_in n_in;
  Array.iter put band_in;
  Array.iter put band_out;
  put duration;
  Array.iter put cumul;
  assert (!k = dimension);
  v

let extract_packed = extract
