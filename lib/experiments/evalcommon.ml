module Rng = Stob_util.Rng
module Dataset = Stob_web.Dataset
module Features = Stob_kfp.Features
module Attack = Stob_kfp.Attack
module Matrix = Stob_ml.Matrix
module Supervisor = Stob_store.Supervisor

(* The shared cell runner every sweep goes through: supervised execution
   (retries, poisoning, per-cell Livelock budget surfacing as a poisoned
   cell) with Marshal as the result codec — Marshal round-trips floats
   bit-exactly, which is what makes a resumed sweep's output identical to
   an uninterrupted run's. *)
let run_cells ?pool ?retries ?inject ?store ~experiment cells =
  let outcomes =
    Supervisor.run ?pool ?retries ?inject ?store ~experiment
      ~encode:(fun v -> Marshal.to_string v [])
      ~decode:(fun s -> Marshal.from_string s 0)
      cells
  in
  (List.map (fun (o : _ Supervisor.outcome) -> o.Supervisor.result) outcomes,
   Supervisor.report outcomes)

(* Identifies the corpus a cell was evaluated on, so a cache entry from a
   different dataset (other sites, other generator) can never be replayed
   into this sweep.  Hashes the full samples + site names, not just the
   generation parameters — [run_on]-style entry points accept arbitrary
   pre-generated corpora.  The hash is over explicit bytes (each string
   length-prefixed, each trace in its binary codec), so it does not depend
   on how the heap lays a sample out. *)
let dataset_fingerprint (d : Dataset.t) =
  let buf = Buffer.create 4096 in
  let add_string s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let add_int i = add_string (string_of_int i) in
  add_int (Array.length d.Dataset.site_names);
  Array.iter add_string d.Dataset.site_names;
  add_int (Array.length d.Dataset.samples);
  Array.iter
    (fun (s : Dataset.sample) ->
      add_string s.Dataset.site;
      add_int s.Dataset.label;
      add_string (string_of_bool s.Dataset.completed);
      add_int s.Dataset.total_in_bytes;
      add_string (Stob_net.Trace.to_bytes s.Dataset.trace))
    d.Dataset.samples;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let accuracy_cv ?(folds = 5) ?(trees = 100) ?(seed = 42) ?(pool = Stob_par.Pool.sequential)
    dataset =
  let cache = Hashtbl.create (Array.length dataset.Dataset.samples) in
  Array.iter
    (fun s -> Hashtbl.replace cache s (Features.extract s.Dataset.trace))
    dataset.Dataset.samples;
  let n_classes = Array.length dataset.Dataset.site_names in
  let forest = { Stob_ml.Random_forest.default_params with n_trees = trees; seed } in
  (* Folds are drawn up front from their own seed, and each fold's forest
     reseeds from [forest.seed], so the per-fold tasks are independent and
     the parallel map is deterministic (the shared feature cache is only
     read). *)
  let eval_fold (train, test) =
    (* Tiny corpora can leave a fold with no test (or train) samples;
       skip those folds rather than failing. *)
    if Array.length test.Dataset.samples = 0 || Array.length train.Dataset.samples = 0 then
      None
    else begin
      (* One column matrix per fold side, shared read-only by every tree
         (and domain) the fold trains. *)
      let feats d = Matrix.of_rows (Array.map (fun s -> Hashtbl.find cache s) d.Dataset.samples) in
      let labels d =
        Array.map (fun (s : Dataset.sample) -> s.Dataset.label) d.Dataset.samples
      in
      let attack =
        Attack.train_m ~forest ~n_classes ~matrix:(feats train) ~labels:(labels train) ()
      in
      Some
        (Attack.evaluate_m attack ~mode:Attack.Forest_vote ~matrix:(feats test)
           ~labels:(labels test))
    end
  in
  let accuracies =
    List.filter_map Fun.id
      (Stob_par.Pool.map_list pool eval_fold
         (Dataset.folds dataset ~rng:(Rng.create (seed + 5)) ~k:folds))
  in
  if accuracies = [] then invalid_arg "Evalcommon.accuracy_cv: empty dataset";
  Stob_ml.Eval.mean_std accuracies
