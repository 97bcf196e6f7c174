(* Tests for stob_kfp: the feature extractor and the attack pipeline. *)

module Rng = Stob_util.Rng
module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Features = Stob_kfp.Features
module Attack = Stob_kfp.Attack
module Ref = Trace_reference

let ev time dir size = { Trace.time; dir; size }
let out = Packet.Outgoing
let inc = Packet.Incoming

let sample_events () =
  Array.init 120 (fun i ->
      let dir = if i mod 5 = 0 then out else inc in
      ev (float_of_int i *. 0.01) dir (if dir = out then 80 else 1200 + (i mod 3 * 100)))

let sample_trace () = Trace.of_events (sample_events ())

(* --- Features --- *)

let test_dimension_matches_names () =
  Alcotest.(check int) "dimension = |names|" (Array.length Features.names) Features.dimension;
  Alcotest.(check bool) "substantial feature set" true (Features.dimension >= 120)

let test_names_unique () =
  let names = Array.to_list Features.names in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_extract_length_invariant () =
  List.iter
    (fun trace ->
      Alcotest.(check int) "fixed length" Features.dimension
        (Array.length (Features.extract trace)))
    [
      Trace.empty;
      Trace.of_events [| ev 0.0 out 60 |];
      Trace.of_events [| ev 0.0 inc 1500 |];
      sample_trace ();
      Trace.prefix (sample_trace ()) 3;
    ]

let test_extract_deterministic () =
  let t = sample_trace () in
  Alcotest.(check (array (float 0.0))) "same features" (Features.extract t) (Features.extract t)

let test_extract_all_finite () =
  List.iter
    (fun trace ->
      Array.iteri
        (fun i v ->
          if not (Float.is_finite v) then
            Alcotest.fail (Printf.sprintf "feature %s not finite" Features.names.(i)))
        (Features.extract trace))
    [ Trace.empty; Trace.of_events [| ev 0.0 out 60 |]; sample_trace () ]

let feature_value trace name =
  let features = Features.extract trace in
  let rec find i = if Features.names.(i) = name then features.(i) else find (i + 1) in
  find 0

let test_count_features () =
  let t = sample_trace () in
  Alcotest.(check (float 0.0)) "total" 120.0 (feature_value t "count.total");
  Alcotest.(check (float 0.0)) "out" 24.0 (feature_value t "count.out");
  Alcotest.(check (float 0.0)) "in" 96.0 (feature_value t "count.in");
  Alcotest.(check (float 1e-9)) "frac out" 0.2 (feature_value t "count.frac_out")

let test_first30_features () =
  let t = sample_trace () in
  Alcotest.(check (float 0.0)) "first30 out" 6.0 (feature_value t "first30.out");
  Alcotest.(check (float 0.0)) "first30 in" 24.0 (feature_value t "first30.in")

let test_burst_features () =
  (* out out in in in out -> out bursts [2;1], in bursts [3]. *)
  let t =
    Trace.of_events
      [| ev 0.0 out 1; ev 0.1 out 1; ev 0.2 inc 1; ev 0.3 inc 1; ev 0.4 inc 1; ev 0.5 out 1 |]
  in
  Alcotest.(check (float 0.0)) "out burst count" 2.0 (feature_value t "burst.out.count");
  Alcotest.(check (float 0.0)) "out burst max" 2.0 (feature_value t "burst.out.max");
  Alcotest.(check (float 0.0)) "in burst count" 1.0 (feature_value t "burst.in.count");
  Alcotest.(check (float 0.0)) "in burst max" 3.0 (feature_value t "burst.in.max")

let test_duration_feature () =
  let t = sample_trace () in
  Alcotest.(check (float 1e-9)) "duration" 1.19 (feature_value t "duration")

let test_split_changes_features () =
  let t = sample_trace () in
  let split = Stob_defense.Emulate.split t in
  Alcotest.(check bool) "feature vectors differ" true (Features.extract t <> Features.extract split)

(* --- Attack --- *)

(* Two synthetic "sites": big downloads vs small, with noise. *)
let synthetic_dataset rng n_per_class =
  let make label =
    Array.init n_per_class (fun _ ->
        let base_size = if label = 0 then 1400 else 700 in
        let n = 40 + Rng.int rng 20 in
        let trace =
          Trace.of_events
            (Array.init n (fun i ->
                 let dir = if i mod 4 = 0 then out else inc in
                 ev
                   (float_of_int i *. (0.005 +. Rng.float rng 0.002))
                   dir
                   (if dir = out then 80 else base_size + Rng.int rng 100)))
        in
        (Features.extract trace, label))
  in
  let all = Array.append (make 0) (make 1) in
  Rng.shuffle rng all;
  (Array.map fst all, Array.map snd all)

let test_attack_separates_synthetic_classes () =
  let rng = Rng.create 33 in
  let train_f, train_l = synthetic_dataset rng 40 in
  let test_f, test_l = synthetic_dataset rng 20 in
  let attack =
    Attack.train
      ~forest:{ Stob_ml.Random_forest.default_params with n_trees = 30 }
      ~n_classes:2 ~features:train_f ~labels:train_l ()
  in
  let acc = Attack.evaluate attack ~mode:Attack.Forest_vote ~features:test_f ~labels:test_l in
  Alcotest.(check bool) (Printf.sprintf "forest-vote accuracy %.2f > 0.9" acc) true (acc > 0.9);
  let acc_knn = Attack.evaluate attack ~mode:(Attack.Leaf_knn 3) ~features:test_f ~labels:test_l in
  Alcotest.(check bool) (Printf.sprintf "leaf-knn accuracy %.2f > 0.9" acc_knn) true (acc_knn > 0.9)

(* Both modes read the same forest, so they mostly agree.  Accuracy
   against the forest's own votes is the agreement rate. *)
let test_attack_modes_agree_mostly () =
  let rng = Rng.create 34 in
  let train_f, train_l = synthetic_dataset rng 30 in
  let attack =
    Attack.train
      ~forest:{ Stob_ml.Random_forest.default_params with n_trees = 20 }
      ~n_classes:2 ~features:train_f ~labels:train_l ()
  in
  let test_f, _ = synthetic_dataset rng 20 in
  let vote =
    Stob_ml.Random_forest.predict_all (Attack.forest attack) (Stob_ml.Matrix.of_rows test_f)
  in
  Alcotest.(check (float 0.0)) "forest-vote mode is the forest's vote" 1.0
    (Attack.evaluate attack ~mode:Attack.Forest_vote ~features:test_f ~labels:vote);
  Alcotest.(check bool) "modes mostly agree" true
    (Attack.evaluate attack ~mode:(Attack.Leaf_knn 3) ~features:test_f ~labels:vote > 0.8)

let test_open_world_rule () =
  let rng = Rng.create 35 in
  let train_f, train_l = synthetic_dataset rng 40 in
  let attack =
    Attack.train
      ~forest:{ Stob_ml.Random_forest.default_params with n_trees = 30 }
      ~n_classes:2 ~features:train_f ~labels:train_l ()
  in
  (* Clear members of each class are attributed; the strict all-k-agree
     rule abstains at least as often as plain kNN errs. *)
  let test_f, test_l = synthetic_dataset rng 30 in
  let attributed = ref 0 and correct = ref 0 in
  Array.iteri
    (fun i answer ->
      match answer with
      | Some l ->
          incr attributed;
          if l = test_l.(i) then incr correct
      | None -> ())
    (Attack.predict_open_world_all attack ~k:3 (Stob_ml.Matrix.of_rows test_f));
  Alcotest.(check bool) "attributes a majority" true (!attributed > Array.length test_f / 2);
  (* Precision of attributed samples is high: the point of the rule. *)
  Alcotest.(check bool)
    (Printf.sprintf "precision (%d/%d)" !correct !attributed)
    true
    (float_of_int !correct /. float_of_int (max 1 !attributed) > 0.9)

let prop_features_finite_on_random_traces =
  let arbitrary_trace =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 0 80)
          (map3
             (fun t d s -> ev t (if d then out else inc) (40 + s))
             (float_range 0.0 5.0) bool (int_range 0 1460))
        |> map (fun evs -> Trace.sort (Trace.of_events (Array.of_list evs))))
  in
  QCheck.Test.make ~name:"features are finite and fixed-length on any trace" ~count:200
    arbitrary_trace (fun t ->
      let f = Features.extract t in
      Array.length f = Features.dimension && Array.for_all Float.is_finite f)

(* --- Packed featurizer parity --- *)

(* Reference traces: the lanes are built from them with [Trace.of_events]. *)
let arbitrary_sorted_trace =
  QCheck.make
    ~print:(fun t -> Ref.to_csv t)
    QCheck.Gen.(
      list_size (int_range 0 80)
        (map3
           (fun t d s -> { Trace.time = t; dir = (if d then out else inc); size = s })
           (oneof [ float_range 0.0 10.0; return 1.5 ])
           bool (int_range 0 1500))
      |> map (fun evs -> Ref.sort (Array.of_list evs)))

(* Bitwise, not [=]: [=] equates -0.0 with 0.0 and never matches NaN. *)
let bits v = Array.map Int64.bits_of_float v

(* Both entry points, on the lanes, against the seed featurizer on the
   reference trace. *)
let parity t =
  let p = Trace.of_events t in
  let want = bits (Kfp_reference.extract t) in
  bits (Features.extract p) = want && bits (Features.extract_packed p) = want

let prop_extract_packed_parity =
  QCheck.Test.make ~name:"extract_packed is bit-identical to extract" ~count:200
    arbitrary_sorted_trace parity

let test_extract_packed_degenerate () =
  List.iter
    (fun t -> Alcotest.(check bool) "parity on degenerate trace" true (parity t))
    [ [||]; [| ev 0.0 out 52 |]; [| ev 1.0 inc 0; ev 1.0 inc 0 |]; sample_events () ]

(* --- Bitwise oracle: the seed featurizer kept in Kfp_reference --- *)

(* An exception counts as an output: on a trace whose timestamps run back
   more than one packets-per-second bucket, both featurizers must raise. *)
let outcome f t = match f t with v -> Ok (bits v) | exception e -> Error (Printexc.to_string e)

let oracle_trace =
  let open QCheck.Gen in
  let size = oneof [ int_range 0 1500; oneofl [ 0; 100; 101; 1500; 1501 ]; int_range 1501 9000 ] in
  let any_dir = map (fun b -> if b then out else inc) bool in
  let shaped ~sort time dir =
    list_size (int_range 0 120)
      (map3 (fun time dir size -> { Trace.time; dir; size }) time dir size)
    |> map (fun evs -> if sort then Ref.sort (Array.of_list evs) else Array.of_list evs)
  in
  QCheck.make ~print:Ref.to_csv
    (oneof
       [
         shaped ~sort:true (float_range 0.0 10.0) any_dir;
         (* unsorted, but never more than one bucket before the first packet *)
         shaped ~sort:false (float_range 0.0 0.2) any_dir;
         (* unsorted and wide: may raise *)
         shaped ~sort:false (float_range (-2.0) 10.0) any_dir;
         shaped ~sort:true (oneofl [ 0.0; 0.5; 1.5 ]) any_dir;
         shaped ~sort:false (oneofl [ -0.0; 0.0 ]) any_dir;
         shaped ~sort:true (float_range 0.0 10.0) (return out);
         shaped ~sort:true (float_range 0.0 10.0) (return inc);
         return Ref.empty;
       ])

let prop_extract_matches_reference =
  QCheck.Test.make ~name:"extract and extract_packed match the seed featurizer bitwise"
    ~count:500 oracle_trace (fun t ->
      let p = Trace.of_events t in
      List.for_all
        (fun k ->
          let want = outcome Kfp_reference.extract (Ref.prefix t k) in
          want = outcome Features.extract (Trace.prefix p k)
          && want = outcome Features.extract_packed (Trace.prefix p k))
        [ max_int; 15; 30; 45 ])

let test_names_match_reference () =
  Alcotest.(check (array string)) "names" Kfp_reference.names Features.names

(* --- Chance oracles ---

   An accuracy means something only if the pipeline scores chance when
   there is no signal.  The corpus is 30 page loads of each of the nine
   sites at seed 7, sanitized to 28 per site: 252 samples.  Its labels are
   shuffled, which keeps every class at 28 samples and leaves no relation
   between a trace and its label.  Each attack is scored over five
   stratified folds, so every sample is predicted once.

   The bands were stated before the first run.  With 252 predictions,
   each right with probability p = 1/9, the count right is binomial, and
   the accuracy has standard deviation sqrt (p (1 - p) / 252) = .0198.
   Each attack must land within three standard deviations of 1/9:
   [.052, .171].  A miss is a finding about the pipeline; the band does
   not move. *)
module Dataset = Stob_web.Dataset
module Matrix = Stob_ml.Matrix
module Dfnet = Stob_kfp.Dfnet

let chance_corpus =
  lazy
    (let d = Dataset.sanitize (Dataset.generate ~samples_per_site:30 ~seed:7 ()) in
     let labels = Array.map (fun s -> s.Dataset.label) d.samples in
     Rng.shuffle (Rng.create 11) labels;
     {
       d with
       Dataset.samples =
         Array.mapi
           (fun i s -> { s with Dataset.label = labels.(i); site = d.site_names.(labels.(i)) })
           d.samples;
     })

let chance = 1.0 /. 9.0

let check_chance name ~right ~predictions =
  let sd = sqrt (chance *. (1.0 -. chance) /. float_of_int predictions) in
  let acc = float_of_int right /. float_of_int predictions in
  Alcotest.(check int) "every sample predicted once" 252 predictions;
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d/%d = %.3f within 1/9 +- 3 sd (%.3f)" name right predictions acc sd)
    true
    (Float.abs (acc -. chance) <= 3.0 *. sd)

let labels_of (d : Dataset.t) = Array.map (fun s -> s.Dataset.label) d.samples
let traces_of (d : Dataset.t) = Array.map (fun s -> s.Dataset.trace) d.samples
let features_of d = Matrix.of_rows (Array.map Features.extract (traces_of d))

let chance_folds =
  lazy (Dataset.folds (Lazy.force chance_corpus) ~rng:(Rng.create 3) ~k:5)

(* Per fold, a k-FP attack trained on the other four, with the fold's
   features and labels; both k-FP oracles score these. *)
let kfp_folds =
  lazy
    (List.map
       (fun ((train : Dataset.t), test) ->
         ( Attack.train_m
             ~forest:{ Stob_ml.Random_forest.default_params with n_trees = 30 }
             ~n_classes:9 ~matrix:(features_of train) ~labels:(labels_of train) (),
           features_of test,
           labels_of test ))
       (Lazy.force chance_folds))

(* Test samples predicted right and test samples, over the folds. *)
let over_folds right folds =
  List.fold_left
    (fun (r, n) ((_, _, labels) as fold) -> (r + right fold, n + Array.length labels))
    (0, 0) folds

let count_right predicted actual =
  let n = ref 0 in
  Array.iteri (fun i l -> if l = actual.(i) then incr n) predicted;
  !n

let test_chance_forest_vote () =
  let right, predictions =
    over_folds
      (fun (attack, matrix, labels) ->
        count_right (Stob_ml.Random_forest.predict_all (Attack.forest attack) matrix) labels)
      (Lazy.force kfp_folds)
  in
  check_chance "forest vote" ~right ~predictions

(* At k = 1 the open-world rule always names a site: its one nearest
   training fingerprint's. *)
let test_chance_open_world () =
  let right, predictions =
    over_folds
      (fun (attack, matrix, labels) ->
        let n = ref 0 in
        Array.iteri
          (fun i answer -> if Option.equal Int.equal answer (Some labels.(i)) then incr n)
          (Attack.predict_open_world_all attack ~k:1 matrix);
        !n)
      (Lazy.force kfp_folds)
  in
  check_chance "open-world rule, k = 1" ~right ~predictions

let test_chance_dfnet () =
  let right, predictions =
    over_folds
      (fun ((train : Dataset.t), (test : Dataset.t), labels) ->
        let net =
          Dfnet.train ~epochs:5 ~seed:7 ~n_classes:9
            ~xs:(Dfnet.encode_batch (traces_of train))
            ~labels:(labels_of train) ()
        in
        let acc = Dfnet.accuracy_m net ~xs:(Dfnet.encode_batch (traces_of test)) ~labels in
        Float.to_int (Float.round (acc *. float_of_int (Array.length labels))))
      (List.map (fun (train, test) -> (train, test, labels_of test)) (Lazy.force chance_folds))
  in
  check_chance "DF-net" ~right ~predictions

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "kfp.packed",
      [
        Alcotest.test_case "degenerate traces" `Quick test_extract_packed_degenerate;
        q prop_extract_packed_parity;
        Alcotest.test_case "names match the seed featurizer" `Quick test_names_match_reference;
        q prop_extract_matches_reference;
      ] );
    ( "kfp.features",
      [
        Alcotest.test_case "dimension matches names" `Quick test_dimension_matches_names;
        Alcotest.test_case "names unique" `Quick test_names_unique;
        Alcotest.test_case "length invariant" `Quick test_extract_length_invariant;
        Alcotest.test_case "deterministic" `Quick test_extract_deterministic;
        Alcotest.test_case "all finite" `Quick test_extract_all_finite;
        Alcotest.test_case "count features" `Quick test_count_features;
        Alcotest.test_case "first30 features" `Quick test_first30_features;
        Alcotest.test_case "burst features" `Quick test_burst_features;
        Alcotest.test_case "duration feature" `Quick test_duration_feature;
        Alcotest.test_case "split changes features" `Quick test_split_changes_features;
        q prop_features_finite_on_random_traces;
      ] );
    ( "kfp.attack",
      [
        Alcotest.test_case "separates synthetic classes" `Quick
          test_attack_separates_synthetic_classes;
        Alcotest.test_case "modes mostly agree" `Quick test_attack_modes_agree_mostly;
        Alcotest.test_case "open-world rule" `Quick test_open_world_rule;
      ] );
    ( "kfp.chance",
      [
        Alcotest.test_case "shuffled labels: forest vote" `Quick test_chance_forest_vote;
        Alcotest.test_case "shuffled labels: open-world rule" `Quick test_chance_open_world;
        Alcotest.test_case "shuffled labels: DF-net" `Quick test_chance_dfnet;
      ] );
  ]
