module Rng = Stob_util.Rng
module Dataset = Stob_web.Dataset
module Emulate = Stob_defense.Emulate
module Overhead = Stob_defense.Overhead

type point = {
  policy : Stob_core.Policy.t;
  accuracy : float;
  latency_overhead : float;
  packet_overhead : float;
  pareto : bool;
}

let sweep =
  let thresholds = [ 600; 900; 1200 ] in
  let delays = [ None; Some (0.1, 0.3); Some (0.3, 0.6) ] in
  List.concat_map
    (fun threshold -> List.map (fun delay -> (Some threshold, delay)) delays)
    thresholds
  @ List.map (fun delay -> (None, delay)) [ Some (0.1, 0.3); Some (0.3, 0.6) ]

let policy_of (threshold, delay) =
  match (threshold, delay) with
  | Some th, None -> Stob_core.Strategies.stack_split ~threshold:th ()
  | Some th, Some (lo, hi) -> Stob_core.Strategies.stack_combined ~threshold:th ~lo ~hi ()
  | None, Some (lo, hi) -> Stob_core.Strategies.stack_delay ~lo ~hi ()
  | None, None -> Stob_core.Policy.unmodified

let apply (threshold, delay) ~rng trace =
  let split = match threshold with Some th -> Emulate.split ~threshold:th trace | None -> trace in
  match delay with Some (lo, hi) -> Emulate.delay ~lo ~hi ~rng split | None -> split

let run ?(samples_per_site = 30) ?(trees = 100) ?(folds = 3) ?(seed = 42) ?pool
    ?retries ?store ?on_report () =
  let say fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s\n%!" s) fmt in
  say "pareto: generating corpus...";
  let base = Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ()) in
  let fingerprint = Evalcommon.dataset_fingerprint base in
  let shared_fields =
    [ ("dataset", fingerprint); ("trees", string_of_int trees); ("folds", string_of_int folds) ]
  in
  Option.iter
    (fun s ->
      Stob_store.Store.set_manifest s ~experiment:"pareto"
        ~fields:
          (("seed", string_of_int seed)
          :: ("samples_per_site", string_of_int samples_per_site)
          :: shared_fields)
        ~total:(List.length sweep))
    store;
  (* One checkpoint cell per sweep point: defend the shared corpus, run the
     attack, summarize the overheads.  The frontier is recomputed from the
     cell results, so it is resume-invariant too. *)
  let cell_of params =
    let policy = policy_of params in
    let threshold_field = match fst params with Some th -> string_of_int th | None -> "none" in
    let delay_field =
      match snd params with
      | Some (lo, hi) -> Printf.sprintf "%.17g-%.17g" lo hi
      | None -> "none"
    in
    {
      Stob_store.Supervisor.label = "pareto/" ^ policy.Stob_core.Policy.name;
      config = ("threshold", threshold_field) :: ("delay", delay_field) :: shared_fields;
      seed;
      run =
        (fun ~attempt:_ ->
          say "pareto: evaluating %s..." policy.Stob_core.Policy.name;
          let rng = Rng.create (seed + 3) in
          let defended = Dataset.map_traces base (fun s -> apply params ~rng s.Dataset.trace) in
          let accuracy = fst (Evalcommon.accuracy_cv ~folds ~trees ~seed defended) in
          let overheads =
            Array.to_list
              (Array.map2
                 (fun (b : Dataset.sample) (d : Dataset.sample) ->
                   Overhead.summarize ~original:b.Dataset.trace ~defended:d.Dataset.trace)
                 base.Dataset.samples defended.Dataset.samples)
          in
          let m = Overhead.mean_summary overheads in
          (accuracy, m.Overhead.latency, m.Overhead.packets));
    }
  in
  let results, report =
    Evalcommon.run_cells ?pool ?retries ?store ~experiment:"pareto"
      (List.map cell_of sweep)
  in
  Option.iter (fun f -> f report) on_report;
  let measured =
    List.map2
      (fun params result ->
        match result with
        | Ok (accuracy, latency, packets) -> (policy_of params, Some (accuracy, latency, packets))
        | Error _ -> (policy_of params, None))
      sweep results
  in
  (* Pareto efficiency: lower accuracy is better protection; lower cost
     (latency + packet overhead) is cheaper.  Poisoned points carry no
     measurements: they render as [nan], never enter the frontier, and
     cannot dominate anything. *)
  let cost (_, lat, pkt) = lat +. pkt in
  let dominated p q =
    let ((acc_p : float), _, _) = p and ((acc_q : float), _, _) = q in
    acc_q <= acc_p && cost q <= cost p && (acc_q < acc_p || cost q < cost p)
  in
  List.map
    (fun (policy, m) ->
      match m with
      | Some ((accuracy, latency_overhead, packet_overhead) as p) ->
          {
            policy;
            accuracy;
            latency_overhead;
            packet_overhead;
            pareto =
              not
                (List.exists
                   (fun (_, q) -> match q with Some q -> dominated p q | None -> false)
                   measured);
          }
      | None ->
          {
            policy;
            accuracy = Float.nan;
            latency_overhead = Float.nan;
            packet_overhead = Float.nan;
            pareto = false;
          })
    measured

let print points =
  Printf.printf "Stob policy sweep: protection vs. overhead (* = Pareto-efficient)\n";
  Printf.printf "  %-32s %-10s %-10s %-10s\n" "policy" "accuracy" "lat-ovhd" "pkt-ovhd";
  List.iter
    (fun p ->
      if Float.is_nan p.accuracy then
        Printf.printf "  %-32s poisoned\n" p.policy.Stob_core.Policy.name
      else
        Printf.printf "  %-32s %-10.3f %+-10.1f%% %+-9.1f%% %s\n"
          p.policy.Stob_core.Policy.name p.accuracy
          (p.latency_overhead *. 100.0)
          (p.packet_overhead *. 100.0)
          (if p.pareto then "*" else ""))
    points
