module Rng = Stob_util.Rng
module Trace = Stob_net.Trace
module Dataset = Stob_web.Dataset
module Features = Stob_kfp.Features
module Emulate = Stob_defense.Emulate

type config = { samples_per_site : int; folds : int; forest_trees : int; seed : int; quiet : bool }

let default_config = { samples_per_site = 100; folds = 5; forest_trees = 100; seed = 42; quiet = false }

type cell = { mean : float; std : float }

type row = { n_label : string; original : cell; split : cell; delayed : cell; combined : cell }

type result = { rows : row list; per_site : (string * int) list }

type variant = Original | Split | Delayed | Combined

let variant_name = function
  | Original -> "Original"
  | Split -> "Split"
  | Delayed -> "Delayed"
  | Combined -> "Combined"

let apply_variant variant ~first_n ~rng trace =
  match variant with
  | Original -> trace
  | Split -> Emulate.split ?first_n trace
  | Delayed -> Emulate.delay ?first_n ~rng trace
  | Combined -> Emulate.combined ?first_n ~rng trace

(* Accuracy (mean, std over folds) of k-FP on [dataset] where both the
   countermeasure and the attacker's view are limited to the first
   [first_n] packets. *)
let evaluate_variant ?(pool = Stob_par.Pool.sequential) ~config ~dataset ~variant ~first_n () =
  let rng = Rng.create (config.seed + 17) in
  let defended =
    Dataset.map_traces dataset (fun s -> apply_variant variant ~first_n ~rng s.Dataset.trace)
  in
  let view (s : Dataset.sample) =
    match first_n with None -> s.Dataset.trace | Some n -> Trace.prefix s.Dataset.trace n
  in
  let mean, std =
    Evalcommon.cross_validate ~pool ~rng:(Rng.create (config.seed + 23)) ~folds:config.folds
      ~forest:
        { Stob_ml.Random_forest.default_params with
          n_trees = config.forest_trees;
          seed = config.seed }
      ~features:(Array.map (fun s -> Features.extract (view s)) defended.Dataset.samples)
      defended
  in
  { mean; std }

let prefixes = [ ("15", Some 15); ("30", Some 30); ("45", Some 45); ("All", None) ]
let variants = [ Original; Split; Delayed; Combined ]

(* The sweep decomposes into 16 idempotent cells (prefix x variant), each a
   pure function of (dataset, config, seed) — the unit of checkpointing,
   caching, and retry.  Parallelism moves from folds-within-a-variant to
   whole cells; every fold evaluation is deterministic, so the table is
   bit-identical either way. *)
let run_on ?(config = default_config) ?pool ?retries ?inject ?store ?on_report dataset =
  let clean = Dataset.sanitize dataset in
  let fingerprint = Evalcommon.dataset_fingerprint clean in
  Option.iter
    (fun s ->
      Stob_store.Store.set_manifest s ~experiment:"table2"
        ~fields:
          [ ("dataset", fingerprint);
            ("samples_per_site", string_of_int config.samples_per_site);
            ("folds", string_of_int config.folds);
            ("trees", string_of_int config.forest_trees);
            ("seed", string_of_int config.seed) ]
        ~total:(List.length prefixes * List.length variants))
    store;
  let cell_of (n_label, first_n) variant =
    {
      Stob_store.Supervisor.label =
        Printf.sprintf "table2/N=%s/%s" n_label (variant_name variant);
      config =
        [ ("dataset", fingerprint);
          ("prefix", n_label);
          ("variant", variant_name variant);
          ("folds", string_of_int config.folds);
          ("trees", string_of_int config.forest_trees) ];
      seed = config.seed;
      run =
        (fun ~attempt:_ ->
          if not config.quiet then
            Printf.eprintf "table2: N=%s %s...\n%!" n_label (variant_name variant);
          let c = evaluate_variant ~config ~dataset:clean ~variant ~first_n () in
          (c.mean, c.std));
    }
  in
  let cells = List.concat_map (fun p -> List.map (cell_of p) variants) prefixes in
  let results, report =
    Evalcommon.run_cells ?pool ?retries ?inject ?store ~experiment:"table2" cells
  in
  Option.iter (fun f -> f report) on_report;
  let results = Array.of_list results in
  let cell_at i =
    match results.(i) with
    | Ok (mean, std) -> { mean; std }
    | Error _ -> { mean = Float.nan; std = Float.nan }
  in
  let width = List.length variants in
  let rows =
    List.mapi
      (fun pi (n_label, _) ->
        let base = pi * width in
        {
          n_label;
          original = cell_at base;
          split = cell_at (base + 1);
          delayed = cell_at (base + 2);
          combined = cell_at (base + 3);
        })
      prefixes
  in
  { rows; per_site = Dataset.per_site_counts clean }

let run ?(config = default_config) ?pool ?retries ?store ?on_report () =
  let progress =
    if config.quiet then None
    else
      Some (fun ~done_ ~total -> if done_ mod 90 = 0 then Printf.eprintf "table2: generated %d/%d visits\n%!" done_ total)
  in
  let dataset =
    Dataset.generate ~samples_per_site:config.samples_per_site ~seed:config.seed ?progress ?pool
      ()
  in
  run_on ~config ?pool ?retries ?store ?on_report dataset

let print result =
  let pp_cell c =
    if Float.is_nan c.mean then "poisoned" else Printf.sprintf "%.3f +/- %.3f" c.mean c.std
  in
  Printf.printf "Table 2: k-FP Random Forest accuracy rates (closed world, 9 sites)\n";
  Printf.printf "%-5s %-17s %-17s %-17s %-17s\n" "N" "Original" "Split" "Delayed" "Combined";
  List.iter
    (fun r ->
      Printf.printf "%-5s %-17s %-17s %-17s %-17s\n" r.n_label (pp_cell r.original)
        (pp_cell r.split) (pp_cell r.delayed) (pp_cell r.combined))
    result.rows;
  let counts = List.map snd result.per_site in
  Printf.printf "(surviving samples per site after sanitization: %s)\n"
    (String.concat ", " (List.map string_of_int counts))
