(* The parallel layer's contract is determinism: same results for any
   domain count, bit for bit.  Unit tests cover the pool mechanics
   (ordering, exceptions, reuse), a qcheck property sweeps arbitrary
   inputs across 1-8 domains, and regression tests pin the promise for
   the real evaluation hot paths (forest training, CV, Table 2, the Fig 3
   sweep). *)

module Pool = Stob_par.Pool
module Rng = Stob_util.Rng
module Dataset = Stob_web.Dataset
open Stob_experiments

(* --- pool mechanics --------------------------------------------------- *)

let test_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let input = Array.init 101 (fun i -> i) in
      let expected = Array.map (fun x -> (x * 7919) mod 1000) input in
      Alcotest.(check (array int))
        "results land in input order" expected
        (Pool.map pool (fun x -> (x * 7919) mod 1000) input))

let test_map_empty () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "empty input" [||] (Pool.map pool (fun x -> x + 1) [||]))

exception Boom of int

let failing_map pool =
  (* Indices 3, 8 and 13 fail; the lowest-index error must win no matter
     which domain hits which task first. *)
  Pool.map pool (fun x -> if x mod 5 = 3 then raise (Boom x) else x) (Array.init 16 Fun.id)

let test_map_exception () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "lowest-index error re-raised" (Boom 3) (fun () ->
          ignore (failing_map pool)))

let test_pool_reuse_after_failure () =
  Pool.with_pool ~domains:4 (fun pool ->
      (try ignore (failing_map pool) with Boom _ -> ());
      let input = Array.init 64 (fun i -> i) in
      Alcotest.(check (array int))
        "pool still works after a failed batch"
        (Array.map (fun x -> x * 2) input)
        (Pool.map pool (fun x -> x * 2) input);
      Alcotest.check_raises "and still reports failures" (Boom 3) (fun () ->
          ignore (failing_map pool)))

let test_map_reduce () =
  Pool.with_pool ~domains:4 (fun pool ->
      let input = Array.init 50 (fun i -> i + 1) in
      Alcotest.(check int)
        "associative reduce matches sequential fold" 1275
        (Pool.map_reduce pool ~f:Fun.id ~reduce:( + ) ~init:0 input);
      (* String concatenation is associative but not commutative: any
         scheduling-order leak would scramble it. *)
      Alcotest.(check string)
        "reduction is applied in index order" "1234567891011121314151617181920"
        (Pool.map_reduce pool ~f:string_of_int ~reduce:( ^ ) ~init:""
           (Array.init 20 (fun i -> i + 1))))

let test_sequential_fallback () =
  let pool = Pool.create ~domains:1 () in
  Alcotest.(check int) "one domain" 1 (Pool.domains pool);
  Alcotest.(check (array int)) "sequential map" [| 2; 4; 6 |]
    (Pool.map pool (fun x -> x * 2) [| 1; 2; 3 |]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Shared sequential pool and post-shutdown pools behave identically. *)
  Alcotest.(check (array int)) "Pool.sequential" [| 1 |] (Pool.map Pool.sequential Fun.id [| 1 |]);
  Alcotest.(check (array int)) "map after shutdown degrades to sequential" [| 4 |]
    (Pool.map pool (fun x -> x * 2) [| 2 |])

let qcheck_map_matches_list_map =
  QCheck.Test.make ~count:60 ~name:"Pool.map f = List.map f for 1-8 domains"
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (l, domains) ->
      let f x = (x * 31) + 7 in
      Pool.with_pool ~domains (fun pool ->
          Pool.map_list pool f l = List.map f l))

(* --- determinism of the real hot paths -------------------------------- *)

let tiny_profiles () =
  [
    Stob_web.Sites.find "bing.com";
    Stob_web.Sites.find "youtube.com";
    Stob_web.Sites.find "whatsapp.net";
  ]

let tiny_dataset ?pool () =
  Dataset.generate ~samples_per_site:6 ~seed:5 ~profiles:(tiny_profiles ()) ?pool ()

let test_dataset_deterministic () =
  Pool.with_pool ~domains:4 (fun pool ->
      let seq = tiny_dataset () and par = tiny_dataset ~pool () in
      Alcotest.(check bool) "corpora byte-identical" true (seq = par))

let test_forest_deterministic () =
  let rng = Rng.create 11 in
  let features = Array.init 40 (fun _ -> Array.init 8 (fun _ -> Rng.float rng 1.0)) in
  let labels = Array.init 40 (fun i -> i mod 3) in
  let params = { Stob_ml.Random_forest.default_params with n_trees = 30; seed = 4 } in
  let train pool = Stob_ml.Random_forest.train ~params ?pool ~n_classes:3 ~features ~labels () in
  Pool.with_pool ~domains:4 (fun pool ->
      let seq = train None and par = train (Some pool) in
      Array.iter
        (fun x ->
          let m = Stob_ml.Matrix.of_rows [| x |] in
          Alcotest.(check bool) "identical leaf fingerprints" true
            (Stob_ml.Random_forest.leaf_fingerprint_m seq m 0
            = Stob_ml.Random_forest.leaf_fingerprint_m par m 0);
          Alcotest.(check bool) "identical class distributions" true
            (Stob_ml.Random_forest.predict_proba seq x
            = Stob_ml.Random_forest.predict_proba par x))
        features)

let test_accuracy_cv_deterministic () =
  let dataset = Dataset.sanitize (tiny_dataset ()) in
  Pool.with_pool ~domains:4 (fun pool ->
      let m1, s1 = Evalcommon.accuracy_cv ~folds:3 ~trees:12 dataset in
      let m4, s4 = Evalcommon.accuracy_cv ~folds:3 ~trees:12 ~pool dataset in
      Alcotest.(check bool) "mean byte-identical" true (m1 = m4);
      Alcotest.(check bool) "std byte-identical" true (s1 = s4))

let test_table2_deterministic () =
  let config =
    { Table2.default_config with Table2.samples_per_site = 6; folds = 2; forest_trees = 10; quiet = true }
  in
  let dataset = tiny_dataset () in
  Pool.with_pool ~domains:4 (fun pool ->
      let seq = Table2.run_on ~config dataset in
      let par = Table2.run_on ~config ~pool dataset in
      Alcotest.(check bool) "all 16 cells and per-site counts identical" true (seq = par))

let test_fig3_deterministic () =
  let config =
    { Fig3.default_config with Fig3.alphas = [ 0; 20; 40 ]; warmup = 0.02; measure = 0.04 }
  in
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check bool) "every sweep point identical" true
        (Fig3.run ~config () = Fig3.run ~config ~pool ()))

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "map preserves order" `Quick test_map_order;
        Alcotest.test_case "map on empty input" `Quick test_map_empty;
        Alcotest.test_case "map re-raises first task error" `Quick test_map_exception;
        Alcotest.test_case "pool reusable after failed batch" `Quick test_pool_reuse_after_failure;
        Alcotest.test_case "map_reduce folds in index order" `Quick test_map_reduce;
        Alcotest.test_case "sequential fallback and shutdown" `Quick test_sequential_fallback;
        QCheck_alcotest.to_alcotest qcheck_map_matches_list_map;
        Alcotest.test_case "dataset generation deterministic" `Slow test_dataset_deterministic;
        Alcotest.test_case "forest training deterministic" `Slow test_forest_deterministic;
        Alcotest.test_case "accuracy_cv deterministic" `Slow test_accuracy_cv_deterministic;
        Alcotest.test_case "table2 deterministic" `Slow test_table2_deterministic;
        Alcotest.test_case "fig3 deterministic" `Slow test_fig3_deterministic;
      ] );
  ]
