(* Tests for stob_util: RNG determinism and distribution moments, statistics,
   histograms. *)

module Rng = Stob_util.Rng
module Stats = Stob_util.Stats
module Histogram = Stob_util.Histogram
module Units = Stob_util.Units

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose margin = Alcotest.(check (float margin))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_split_independence () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  (* Child's stream should not equal parent's continued stream. *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.bits64 child = Rng.bits64 parent then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 3)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 4 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let v = Rng.int_in rng 5 8 in
    if v = 5 then seen_lo := true;
    if v = 8 then seen_hi := true;
    Alcotest.(check bool) "in [5,8]" true (v >= 5 && v <= 8)
  done;
  Alcotest.(check bool) "endpoints reachable" true (!seen_lo && !seen_hi)

let test_rng_uniform_mean () =
  let rng = Rng.create 5 in
  let xs = Array.init 20000 (fun _ -> Rng.uniform rng 2.0 4.0) in
  check_float_loose 0.05 "uniform mean" 3.0 (Stats.mean xs)

let test_rng_normal_moments () =
  let rng = Rng.create 6 in
  let xs = Array.init 40000 (fun _ -> Rng.normal rng ~mu:5.0 ~sigma:2.0) in
  check_float_loose 0.08 "normal mean" 5.0 (Stats.mean xs);
  check_float_loose 0.08 "normal std" 2.0 (Stats.std xs)

let test_rng_exponential_mean () =
  let rng = Rng.create 8 in
  let xs = Array.init 40000 (fun _ -> Rng.exponential rng ~rate:4.0) in
  check_float_loose 0.02 "exponential mean" 0.25 (Stats.mean xs)

let test_rng_lognormal_positive () =
  let rng = Rng.create 10 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "lognormal > 0" true (Rng.lognormal rng ~mu:0.0 ~sigma:1.5 > 0.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 12 in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_float_loose 0.02 "bernoulli rate" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_geometric_mean () =
  let rng = Rng.create 13 in
  let xs = Array.init 20000 (fun _ -> float_of_int (Rng.geometric rng ~p:0.5)) in
  (* mean failures before success = (1-p)/p = 1 *)
  check_float_loose 0.05 "geometric mean" 1.0 (Stats.mean xs)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 15 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 16 in
  let s = Rng.sample_without_replacement rng 10 30 in
  Alcotest.(check int) "length" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) s

let test_rng_invalid_args () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "choice empty" (Invalid_argument "Rng.choice: empty array") (fun () ->
      ignore (Rng.choice rng [||]))

(* --- Stats --- *)

let test_stats_basics () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "sum" 10.0 (Stats.sum a);
  check_float "mean" 2.5 (Stats.mean a);
  check_float "min" 1.0 (Stats.min_ a);
  check_float "max" 4.0 (Stats.max_ a);
  check_float "std" (sqrt 1.25) (Stats.std a);
  check_float "median" 2.5 (Stats.median a)

let test_stats_empty () =
  check_float "mean empty" 0.0 (Stats.mean [||]);
  check_float "std empty" 0.0 (Stats.std [||]);
  check_float "median empty" 0.0 (Stats.median [||])

let test_stats_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "p0" 10.0 (Stats.percentile a 0.0);
  check_float "p50" 30.0 (Stats.percentile a 50.0);
  check_float "p100" 50.0 (Stats.percentile a 100.0);
  check_float "p25" 20.0 (Stats.percentile a 25.0);
  (* interpolation *)
  check_float "p10" 14.0 (Stats.percentile a 10.0)

let test_stats_percentile_unsorted () =
  let a = [| 50.0; 10.0; 40.0; 20.0; 30.0 |] in
  check_float "p50 unsorted" 30.0 (Stats.percentile a 50.0)

let test_stats_iqr_bounds () =
  let a = Array.init 101 (fun i -> float_of_int i) in
  let lo, hi = Stats.iqr_bounds a in
  check_float "lo" (-50.0) lo;
  check_float "hi" 150.0 hi

let test_stats_mean_std () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean a);
  check_float_loose 1e-6 "sample std" 2.13809 (Stats.sample_std a)

let test_stats_skew_symmetric () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float_loose 1e-9 "skew of symmetric" 0.0 (Stats.skewness a)

(* --- Histogram --- *)

let test_histogram_counts () =
  let h = Histogram.of_samples ~lo:0.0 ~hi:10.0 ~bins:10 [| 0.5; 1.5; 1.7; 9.9 |] in
  Alcotest.(check int) "total" 4 (Histogram.count h);
  Alcotest.(check int) "bin0" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin9" 1 (Histogram.bin_count h 9)

let test_histogram_clamping () =
  let h = Histogram.of_samples ~lo:0.0 ~hi:10.0 ~bins:5 [| -3.0; 100.0 |] in
  Alcotest.(check int) "bin0 catches low" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "last bin catches high" 1 (Histogram.bin_count h 4)

let test_histogram_sample_within () =
  let h = Histogram.of_samples ~lo:0.0 ~hi:100.0 ~bins:20 [| 5.0; 15.0; 42.0; 88.0 |] in
  let rng = Rng.create 21 in
  for _ = 1 to 500 do
    let x = Histogram.sample h rng in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 100.0)
  done

let test_histogram_sample_distribution () =
  (* All mass in one bin: samples must land in that bin. *)
  let h = Histogram.of_samples ~lo:0.0 ~hi:10.0 ~bins:10 [| 5.5; 5.6; 5.7 |] in
  let rng = Rng.create 22 in
  for _ = 1 to 200 do
    let x = Histogram.sample h rng in
    Alcotest.(check bool) "in the populated bin" true (x >= 5.0 && x < 6.0)
  done

let test_histogram_empty_sample_raises () =
  let h = Histogram.of_samples ~lo:0.0 ~hi:1.0 ~bins:2 [||] in
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Histogram.sample: empty histogram") (fun () ->
      ignore (Histogram.sample h rng))

(* --- Units --- *)

let test_units_conversions () =
  check_float "msec" 5e-2 (Units.msec 50.0);
  check_float "gbps" 1e11 (Units.gbps 100.0)

let test_units_throughput () =
  check_float "throughput" 8e6 (Units.throughput_bps ~bytes:1_000_000 ~seconds:1.0)

(* --- qcheck properties --- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_range (-1000.0) 1000.0)) (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
      let a = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile a lo <= Stats.percentile a hi +. 1e-9)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let a = Array.of_list xs in
      Stats.mean a >= Stats.min_ a -. 1e-6 && Stats.mean a <= Stats.max_ a +. 1e-6)

(* --- Stats fast paths vs the seed's [Array.sort compare] and folds --- *)

(* The seed's statistics, kept verbatim beside the seed featurizer. *)
module Seed = Kfp_reference.Stats

let bits a = Array.map Int64.bits_of_float a
let bit_list l = List.map Int64.bits_of_float l

(* Random, sorted, reversed and heavily duplicated arrays, plus the two
   inputs that leave the fast paths: NaN and signed zeros. *)
let stats_input =
  let open QCheck.Gen in
  let floats g = array_size (int_range 0 200) g in
  let wide = float_range (-1000.0) 1000.0 and dups = map float_of_int (int_range 0 3) in
  let sorted a =
    let b = Array.copy a in
    Array.sort compare b;
    b
  in
  let reversed a =
    let b = sorted a in
    Array.init (Array.length b) (fun i -> b.(Array.length b - 1 - i))
  in
  QCheck.make ~print:QCheck.Print.(array float)
    (oneof
       [
         floats wide;
         map sorted (floats wide);
         map reversed (floats wide);
         floats dups;
         map sorted (floats dups);
         floats (frequency [ (4, wide); (1, return Float.nan) ]);
         floats (oneofl [ -0.0; 0.0; 1.0 ]);
       ])

let percentiles = [ 0.0; 10.0; 25.0; 37.5; 50.0; 75.0; 99.0; 100.0 ]

let prop_sort_paths_match_oracle =
  QCheck.Test.make ~name:"sorted_copy, percentile, quantiles match Array.sort compare bitwise"
    ~count:500 stats_input (fun a ->
      let before = bits a in
      let want = List.map (Seed.percentile a) percentiles in
      bit_list (List.map (Stats.percentile a) percentiles) = bit_list want
      && bit_list (Stats.quantiles a percentiles) = bit_list want
      && bit_list [ Stats.median a ] = bit_list [ Seed.median a ]
      (* Read-only: the sorted fast path must not hand out or reorder [a]. *)
      && bits a = before)

let prop_moments_match_seed =
  QCheck.Test.make ~name:"sum, mean, std, min, max match the seed folds bitwise" ~count:500
    stats_input (fun a ->
      bit_list [ Stats.sum a; Stats.mean a; Stats.std a; Stats.min_ a; Stats.max_ a ]
      = bit_list [ Seed.sum a; Seed.mean a; Seed.std a; Seed.min_ a; Seed.max_ a ])

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram accounts for every sample" ~count:200
    QCheck.(list (float_range (-50.0) 150.0))
    (fun xs ->
      let h = Histogram.of_samples ~lo:0.0 ~hi:100.0 ~bins:13 (Array.of_list xs) in
      Histogram.count h = List.length xs)

let prop_rng_float_range =
  QCheck.Test.make ~name:"Rng.float stays in range" ~count:200
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.float rng bound in
      x >= 0.0 && x < bound)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independence;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "lognormal positive" `Quick test_rng_lognormal_positive;
        Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
        Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample without replacement" `Quick test_rng_sample_without_replacement;
        Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
        q prop_rng_float_range;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "basics" `Quick test_stats_basics;
        Alcotest.test_case "empty inputs" `Quick test_stats_empty;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "percentile unsorted" `Quick test_stats_percentile_unsorted;
        Alcotest.test_case "iqr bounds" `Quick test_stats_iqr_bounds;
        Alcotest.test_case "mean/std" `Quick test_stats_mean_std;
        Alcotest.test_case "skew symmetric" `Quick test_stats_skew_symmetric;
        q prop_percentile_monotone;
        q prop_mean_between_min_max;
        q prop_sort_paths_match_oracle;
        q prop_moments_match_seed;
      ] );
    ( "util.histogram",
      [
        Alcotest.test_case "counts" `Quick test_histogram_counts;
        Alcotest.test_case "clamping" `Quick test_histogram_clamping;
        Alcotest.test_case "sample within range" `Quick test_histogram_sample_within;
        Alcotest.test_case "sample follows mass" `Quick test_histogram_sample_distribution;
        Alcotest.test_case "empty sample raises" `Quick test_histogram_empty_sample_raises;
        q prop_histogram_total;
      ] );
    ( "util.units",
      [
        Alcotest.test_case "conversions" `Quick test_units_conversions;
        Alcotest.test_case "throughput" `Quick test_units_throughput;
      ] );
  ]
