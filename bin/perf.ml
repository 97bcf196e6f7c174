(* Kernel gates and the BENCH writer.

   A kernel gate times an optimised kernel against the oracle it replaced,
   which the library keeps verbatim: the presorted forest trainer against
   Stob_ml.Reference, the batched DF-net engine against Stob_nn.Reference,
   and the timing wheel against the comparison heap.  Every run gates
   parity with the oracle and a speedup floor: a loose tripwire on
   --smoke, where the workload is too small for the kernel to amortize,
   and the headline >= 3x on a full run, which also writes the run's
   numbers to BENCH_<name>.json.  The tier-1 tests hold the parity
   halves; the timed halves run on `dune build @perf`. *)

module Rng = Stob_util.Rng
module Rf = Stob_ml.Random_forest
module Reference = Stob_ml.Reference
module Dfn = Stob_kfp.Dfnet
module Nn = Stob_nn.Network
module Nref = Stob_nn.Reference.Network
module Eq = Stob_sim.Event_queue
module Population = Stob_experiments.Population

(* --- BENCH files ------------------------------------------------------ *)

type value = Int of int | Float of float | Bool of bool | Text of string

let git_rev () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let rev = try input_line ic with End_of_file -> "unknown" in
  ignore (Unix.close_process_in ic);
  rev

(* The first "model name" of /proc/cpuinfo: wall times only compare
   between runs on the same CPU. *)
let cpu_model () =
  let model line =
    match String.index_opt line ':' with
    | Some i when String.starts_with ~prefix:"model name" line ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
    | _ -> None
  in
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text -> Option.value ~default:"unknown" (List.find_map model (String.split_on_char '\n' text))
  | exception Sys_error _ -> "unknown"

(* Atomically write [file] in the layout of `benchmark/run.exe --out`: a
   provenance block, and [metrics] (name, unit, value) as
   {name: {value, unit}}. *)
let write_bench file ~jobs metrics =
  let json = function
    | Int i -> string_of_int i
    | Float f -> if Float.is_finite f then Printf.sprintf "%.12g" f else "null"
    | Bool b -> string_of_bool b
    | Text s -> Printf.sprintf "%S" s
  in
  let field (k, v) = Printf.sprintf "%S: %s" k v in
  let obj fields = "{" ^ String.concat ", " (List.map field fields) ^ "}" in
  let provenance =
    obj
      [
        ("git_rev", json (Text (git_rev ())));
        ("nproc", json (Int (Domain.recommended_domain_count ())));
        ("jobs", json (Int jobs));
        ("ocaml_version", json (Text Sys.ocaml_version));
        ("cpu_model", json (Text (cpu_model ())));
      ]
  in
  let metric (name, unit, v) = field (name, obj [ ("value", json v); ("unit", json (Text unit)) ]) in
  Stob_store.Atomic_file.write file
    (Printf.sprintf "{\n  \"provenance\": %s,\n  \"metrics\": {\n    %s\n  }\n}\n" provenance
       (String.concat ",\n    " (List.map metric metrics)));
  Printf.printf "  wrote %s\n%!" file

(* --- timing and the ratio check -------------------------------------- *)

(* The last result of [reps] runs of [run (setup ())], and the best wall
   time of [run] alone.  A single smoke-sized sample is at the mercy of
   scheduler jitter; the best of a few is not. *)
let best_of ~reps ~setup run =
  let best = ref infinity and last = ref None in
  for _ = 1 to reps do
    let x = setup () in
    let start = Unix.gettimeofday () in
    last := Some (run x);
    best := Float.min !best (Unix.gettimeofday () -. start)
  done;
  (Option.get !last, !best)

let check_speedup ~smoke ~floor speedup =
  let floor = if smoke then floor else 3.0 in
  if speedup < floor then begin
    Printf.printf "  FAILED: speedup %.2fx < required %.1fx\n" speedup floor;
    exit 1
  end;
  Printf.printf "  ok: speedup %.2fx >= %.1fx\n" speedup floor

(* --- forest: presorted column-major trainer vs the naive CART oracle -- *)

(* The Table 2 shape: 9 classes at the k-FP feature count, with half the
   columns quantized — the duplicate-heavy shape real k-FP features
   (packet counts, burst sizes) have. *)
let forest_workload ~n_per_class =
  let n_classes = 9 in
  let d = Stob_kfp.Features.dimension in
  let rng = Rng.create 2024 in
  let centers = Array.init n_classes (fun _ -> Array.init d (fun _ -> Rng.uniform rng 0.0 100.0)) in
  let n = n_classes * n_per_class in
  let labels = Array.init n (fun i -> i mod n_classes) in
  let features =
    Array.init n (fun i ->
        let c = centers.(labels.(i)) in
        Array.init d (fun f ->
            let v = c.(f) +. Rng.normal rng ~mu:0.0 ~sigma:25.0 in
            if f mod 2 = 0 then Float.round v else v))
  in
  (features, labels, n_classes)

let shape_of_tree tree =
  Stob_ml.Decision_tree.fold tree
    ~leaf:(fun ~id ~label ~dist -> Reference.Leaf { id; label; dist })
    ~split:(fun ~feature ~threshold left right ->
      Reference.Split { feature; threshold; left; right })

let forest ~smoke =
  let n_per_class, trees_ref, trees_fast, reps = if smoke then (25, 8, 8, 3) else (100, 10, 100, 1) in
  let features, labels, n_classes = forest_workload ~n_per_class in
  let params ~n_trees = { Rf.default_params with Rf.n_trees; seed = 11 } in
  Printf.printf "workload: %d samples x %d features, %d classes\n%!" (Array.length features)
    Stob_kfp.Features.dimension n_classes;
  let reference, t_ref =
    best_of ~reps ~setup:ignore (fun () ->
        Reference.train_forest ~params:(params ~n_trees:trees_ref) ~n_classes ~features ~labels ())
  in
  let fast, t_fast =
    best_of ~reps ~setup:ignore (fun () ->
        Rf.train ~params:(params ~n_trees:trees_fast) ~n_classes ~features ~labels ())
  in
  let per_ref = t_ref /. float_of_int trees_ref in
  let per_fast = t_fast /. float_of_int trees_fast in
  let speedup = per_ref /. per_fast in
  Printf.printf "  naive (reference): %3d trees  %8.3f s  (%.4f s/tree)\n" trees_ref t_ref per_ref;
  Printf.printf "  presorted:         %3d trees  %8.3f s  (%.4f s/tree)\n" trees_fast t_fast
    per_fast;
  Printf.printf "  per-tree speedup:  %.2fx\n%!" speedup;
  (* Per-tree generators are pre-split from the seed in tree order, so tree
     i does not depend on the tree count: the naive trees must be
     bit-identical to the first [trees_ref] presorted ones. *)
  let fast_trees = Rf.trees fast in
  let parity = ref true in
  Array.iteri
    (fun i (rt : Reference.tree) ->
      if compare (shape_of_tree fast_trees.(i)) rt.Reference.root <> 0 then begin
        parity := false;
        Printf.printf "  PARITY MISMATCH at tree %d\n" i
      end)
    reference.Reference.trees;
  Printf.printf "  parity: %s\n%!" (if !parity then "ok (trees bit-identical)" else "FAILED");
  if not smoke then
    write_bench "BENCH_forest.json" ~jobs:1
      [
        ("workload.n_samples", "samples", Int (Array.length features));
        ("workload.n_features", "features", Int Stob_kfp.Features.dimension);
        ("workload.n_classes", "classes", Int n_classes);
        ("naive.trees", "trees", Int trees_ref);
        ("naive.wall_s", "s", Float t_ref);
        ("naive.per_tree_s", "s/tree", Float per_ref);
        ("presorted.trees", "trees", Int trees_fast);
        ("presorted.wall_s", "s", Float t_fast);
        ("presorted.per_tree_s", "s/tree", Float per_fast);
        ("per_tree_speedup", "ratio", Float speedup);
        ("parity", "bool", Bool !parity);
      ];
  if not !parity then exit 1;
  check_speedup ~smoke ~floor:1.5 speedup

(* --- dfnet: batched float32 engine vs the per-sample float64 oracle --- *)

(* Gates (a) logits and prediction parity at seed-paired weights, within
   the float32 tolerance EXPERIMENTS.md documents, (b) bit-exact weight
   digests at 1 and N domains, and (c) the per-epoch speedup. *)
let dfnet_logit_tolerance = 1e-5

(* Direction sequences at DF shape: class-dependent burst period, random
   length, 5% direction noise.  Explicit loops fix the draw order. *)
let dfnet_workload ~n_per_class ~n_classes =
  let rng = Rng.create 2024 in
  let n = n_per_class * n_classes in
  let xs = Array.make n [||] in
  let labels = Array.make n 0 in
  for i = 0 to n - 1 do
    let label = i mod n_classes in
    let len = 250 + Rng.int rng 250 in
    let period = 2 + label in
    let x = Array.make Dfn.input_length 0.0 in
    for p = 0 to min (len - 1) (Dfn.input_length - 1) do
      let v = if p / period mod 2 = 0 then 1.0 else -1.0 in
      let v = if Rng.float rng 1.0 < 0.05 then -.v else v in
      x.(p) <- v
    done;
    xs.(i) <- x;
    labels.(i) <- label
  done;
  (xs, labels)

let dfnet ~smoke pool =
  let n_classes = 9 in
  let n_per_class, epochs = if smoke then (8, 1) else (24, 2) in
  let xs_rows, labels = dfnet_workload ~n_per_class ~n_classes in
  let n = Array.length xs_rows in
  let xs = Stob_nn.Tensor.of_rows xs_rows in
  Printf.printf "workload: %d samples x %d steps, %d classes\n%!" n Dfn.input_length n_classes;
  let refnet = Dfn.build_reference ~rng:(Rng.create 7) ~n_classes in
  let batnet = Dfn.build ~rng:(Rng.create 7) ~n_classes in
  let blogits = Nn.logits_m batnet xs in
  let bpreds = Nn.predict_m batnet xs in
  let max_dev = ref 0.0 and pred_mismatch = ref 0 in
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun c v -> max_dev := Float.max !max_dev (Float.abs (v -. Stob_nn.Tensor.get blogits i c)))
        (Nref.logits refnet x);
      if Nref.predict refnet x <> bpreds.(i) then incr pred_mismatch)
    xs_rows;
  Printf.printf "  parity:   max |logit dev| %.2e (tol %.0e), %d/%d prediction mismatches\n%!"
    !max_dev dfnet_logit_tolerance !pred_mismatch n;
  let parity = !pred_mismatch = 0 && !max_dev <= dfnet_logit_tolerance in
  (* Same epochs, batch and lr on both engines; the parallel column is the
     engine as shipped, minibatch shards across domains. *)
  let train_ref () =
    let rng = Rng.create 2024 in
    let net = Dfn.build_reference ~rng ~n_classes in
    Nref.fit net ~rng ~xs:xs_rows ~labels ~epochs ();
    net
  in
  let train_batched pool =
    let rng = Rng.create 2024 in
    let net = Dfn.build ~rng ~n_classes in
    Nn.fit net ~rng ~xs ~labels ~epochs ?pool ();
    net
  in
  let run par_pool =
    let par_domains = Stob_par.Pool.domains par_pool in
    let ref_trained, t_ref = best_of ~reps:3 ~setup:ignore train_ref in
    let _, t_seq = best_of ~reps:3 ~setup:ignore (fun () -> train_batched None) in
    let bat_trained, t_par = best_of ~reps:3 ~setup:ignore (fun () -> train_batched (Some par_pool)) in
    let per_ref = t_ref /. float_of_int epochs in
    let per_seq = t_seq /. float_of_int epochs in
    let per_par = t_par /. float_of_int epochs in
    Printf.printf "  reference (per-sample): %8.3f s  (%.4f s/epoch)\n" t_ref per_ref;
    Printf.printf "  batched --jobs 1:       %8.3f s  (%.4f s/epoch, %.2fx)\n" t_seq per_seq
      (per_ref /. per_seq);
    Printf.printf "  batched --jobs %d:       %8.3f s  (%.4f s/epoch, %.2fx)\n" par_domains t_par
      per_par (per_ref /. per_par);
    let d1 = Nn.weights_digest (train_batched None) in
    let invariant = String.equal d1 (Nn.weights_digest (train_batched (Some par_pool))) in
    Printf.printf "  jobs-invariance: %s\n%!"
      (if invariant then
         Printf.sprintf "ok (digest %s at 1 and %d domains)" (String.sub d1 0 12) par_domains
       else "FAILED (weight digests differ)");
    (* Reported, not gated: the engines round differently, so trained
       weights drift apart within float32 tolerance. *)
    let ref_acc =
      let hits = ref 0 in
      Array.iteri (fun i x -> if Nref.predict ref_trained x = labels.(i) then incr hits) xs_rows;
      float_of_int !hits /. float_of_int n
    in
    let bat_acc = Nn.accuracy_m bat_trained ~xs ~labels in
    let bat_preds = Nn.predict_m bat_trained xs in
    let agree = ref 0 in
    Array.iteri (fun i x -> if Nref.predict ref_trained x = bat_preds.(i) then incr agree) xs_rows;
    Printf.printf "  trained accuracy: reference %.3f, batched %.3f (%.1f%% agreement)\n%!" ref_acc
      bat_acc
      (100.0 *. float_of_int !agree /. float_of_int n);
    if not smoke then
      write_bench "BENCH_dfnet.json" ~jobs:par_domains
        [
          ("workload.n_samples", "samples", Int n);
          ("workload.input_length", "steps", Int Dfn.input_length);
          ("workload.n_classes", "classes", Int n_classes);
          ("workload.epochs", "epochs", Int epochs);
          ("reference.wall_s", "s", Float t_ref);
          ("reference.per_epoch_s", "s/epoch", Float per_ref);
          ("batched_seq.wall_s", "s", Float t_seq);
          ("batched_seq.per_epoch_s", "s/epoch", Float per_seq);
          ("batched_seq.speedup", "ratio", Float (per_ref /. per_seq));
          ("batched_par.domains", "domains", Int par_domains);
          ("batched_par.wall_s", "s", Float t_par);
          ("batched_par.per_epoch_s", "s/epoch", Float per_par);
          ("batched_par.speedup", "ratio", Float (per_ref /. per_par));
          ("parity.max_logit_dev", "logit", Float !max_dev);
          ("parity.tolerance", "logit", Float dfnet_logit_tolerance);
          ("parity.prediction_mismatches", "count", Int !pred_mismatch);
          ("jobs_invariant", "bool", Bool invariant);
          ("trained.reference_acc", "share", Float ref_acc);
          ("trained.batched_acc", "share", Float bat_acc);
        ];
    (invariant, per_ref /. per_par)
  in
  let invariant, speedup =
    match pool with
    | Some p -> run p
    | None -> Stob_par.Pool.with_pool ~domains:(if smoke then 2 else 4) run
  in
  if not parity then begin
    Printf.printf "  FAILED: parity (dev %.2e, %d mismatches)\n" !max_dev !pred_mismatch;
    exit 1
  end;
  if not invariant then begin
    Printf.printf "  FAILED: training is not --jobs-invariant\n";
    exit 1
  end;
  check_speedup ~smoke ~floor:1.5 speedup

(* --- simperf: the timing wheel vs the comparison heap ----------------- *)

(* Classic hold model: the queue stays at a constant size while each step
   pops the earliest event and reschedules it a random increment later —
   the steady state of a discrete-event simulation.  Increments mix the
   population workload's time constants: pacing gaps (tens to hundreds of
   microseconds), RTT-scale timers (tens of milliseconds) and think/RTO
   timers (up to a second).  Pre-drawn, so the loop times the queues, not
   the RNG. *)
let simperf_increments () =
  let rng = Rng.create 7 in
  Array.init 4096 (fun _ ->
      let r = Rng.float rng 1.0 in
      if r < 0.70 then Rng.uniform rng 50e-6 500e-6
      else if r < 0.90 then Rng.uniform rng 0.01 0.1
      else Rng.uniform rng 0.2 1.0)

let hold_queue impl ~queue_size ~increments =
  let q = Eq.create_impl impl in
  let m = Array.length increments in
  let t = ref 0.0 in
  for i = 0 to queue_size - 1 do
    t := !t +. increments.(i mod m);
    Eq.push q ~time:!t i
  done;
  q

let hold ~ops ~increments q =
  let m = Array.length increments in
  for i = 0 to ops - 1 do
    match Eq.pop q with
    | None -> assert false
    | Some (time, v) -> Eq.push q ~time:(time +. increments.(i mod m)) v
  done

(* Pop-sequence parity on a randomized mixed push/pop/cancel schedule: the
   wheel must replay the heap exactly, (time, insertion order) both.  A
   cancel picks a random earlier push; if it still waits, the wheel removes
   it, while the heap keeps it and the run skips it on pop, as the engine
   does.  Every other cancel re-arms at the same instant, like a TCP timer.
   A cancelled element popping off the wheel fails the parity.  The wheel
   runs at the default tick and at a 0.1 s tick that gathers many elements
   in the ready heap, so that cancels also remove from inside it. *)
let simperf_parity ~steps =
  let run q =
    let rng = Rng.create 11 in
    let removes = Eq.impl q = Eq.Wheel in
    let times = Array.make steps 0.0 and handles = Array.make steps 0 in
    let waiting = Array.make steps false and cancelled = Array.make steps false in
    let pushed = ref 0 and leaked = ref false in
    let push t =
      let i = !pushed in
      incr pushed;
      times.(i) <- t;
      handles.(i) <- Eq.add q ~time:t i;
      waiting.(i) <- true
    in
    let popped = ref [] in
    (* [false] once the queue is empty. *)
    let rec pop () =
      let p = Eq.pop q in
      match p with
      | Some (_, i) when cancelled.(i) ->
          if removes then leaked := true;
          pop ()
      | Some (_, i) ->
          waiting.(i) <- false;
          popped := p :: !popped;
          true
      | None ->
          popped := p :: !popped;
          false
    in
    let time = ref 0.0 in
    for i = 0 to steps - 1 do
      let r = Rng.float rng 1.0 in
      if r < 0.4 then begin
        time := !time +. Rng.float rng 0.002;
        (* Same-instant bursts: every third push duplicates its timestamp. *)
        push (if i mod 3 = 0 then !time else !time +. Rng.float rng 1.0)
      end
      else if r < 0.8 then ignore (pop ())
      else begin
        let j = Rng.int rng (max 1 !pushed) in
        if waiting.(j) then begin
          Eq.remove q handles.(j);
          waiting.(j) <- false;
          cancelled.(j) <- true;
          if i mod 2 = 0 then push times.(j)
        end
      end
    done;
    while pop () do
      ()
    done;
    (List.rev !popped, !leaked)
  in
  let heap, _ = run (Eq.create_impl Eq.Heap) in
  List.for_all
    (fun wheel ->
      let pops, leaked = run wheel in
      pops = heap && not leaked)
    [ Eq.create_impl Eq.Wheel; Eq.create_wheel ~granularity:0.1 () ]

let simperf ~smoke =
  let queue_size, ops = if smoke then (5_000, 200_000) else (200_000, 2_000_000) in
  let increments = simperf_increments () in
  Printf.printf
    "hold model: queue size %d, %d pop+push ops (population mixture: 70%% pacing 50-500us, 20%% \
     RTT 10-100ms, 10%% think 0.2-1s)\n\
     %!"
    queue_size ops;
  let time impl =
    snd
      (best_of ~reps:3
         ~setup:(fun () -> hold_queue impl ~queue_size ~increments)
         (hold ~ops ~increments))
  in
  let t_heap = time Eq.Heap in
  let t_wheel = time Eq.Wheel in
  let heap_eps = float_of_int ops /. t_heap in
  let wheel_eps = float_of_int ops /. t_wheel in
  let speedup = wheel_eps /. heap_eps in
  Printf.printf "  heap (oracle):  %8.3f s  %12.0f events/s\n" t_heap heap_eps;
  Printf.printf "  timing wheel:   %8.3f s  %12.0f events/s\n" t_wheel wheel_eps;
  Printf.printf "  speedup:        %.2fx\n%!" speedup;
  let parity = simperf_parity ~steps:(if smoke then 20_000 else 100_000) in
  Printf.printf "  parity: %s\n%!"
    (if parity then "ok (pop sequences identical)" else "FAILED (wheel diverges from heap)");
  (* Trace factory throughput at population shape. *)
  let pop_config =
    if smoke then
      {
        Population.default_config with
        Population.users = 24;
        shards = 4;
        background_sites = 11;
        max_trace_events = 400;
      }
    else { Population.default_config with Population.shards = 8 }
  in
  let summary, wall =
    Tmp.with_dir "stob-simperf." (fun dir ->
        best_of ~reps:1 ~setup:ignore (fun () -> Population.generate pop_config ~state_dir:dir))
  in
  let traces_per_s = float_of_int summary.Population.flows /. wall in
  let events_per_s = float_of_int summary.Population.events /. wall in
  Printf.printf
    "population factory: %d traces (%d packed events, %.1f MiB) in %.3f s\n\
    \  %12.0f traces/s  %12.0f events/s\n\
     %!"
    summary.Population.flows summary.Population.events
    (float_of_int summary.Population.bytes /. 1048576.0)
    wall traces_per_s events_per_s;
  if not smoke then
    write_bench "BENCH_sim.json" ~jobs:1
      [
        ("queue.size", "events", Int queue_size);
        ("queue.ops", "ops", Int ops);
        ("queue.heap_events_per_s", "events/s", Float heap_eps);
        ("queue.wheel_events_per_s", "events/s", Float wheel_eps);
        ("queue.speedup", "ratio", Float speedup);
        ("queue.parity", "bool", Bool parity);
        ("population.traces", "traces", Int summary.Population.flows);
        ("population.events", "events", Int summary.Population.events);
        ("population.packed_bytes", "bytes", Int summary.Population.bytes);
        ("population.wall_s", "s", Float wall);
        ("population.traces_per_s", "traces/s", Float traces_per_s);
        ("population.events_per_s", "events/s", Float events_per_s);
        ("population.corpus_digest", "md5", Text summary.Population.corpus_digest);
      ];
  if not parity then exit 1;
  check_speedup ~smoke ~floor:1.2 speedup
