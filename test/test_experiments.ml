(* Integration tests for the experiment harnesses: every table/figure
   regenerator runs on reduced parameters and yields sane-shaped results. *)

open Stob_experiments

(* [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_table1_rows () =
  let rows = Table1.run () in
  Alcotest.(check bool) "all registry rows present" true
    (List.length rows = List.length Stob_defense.Registry.all);
  (* Implemented rows carry measurements; padding defenses cost bandwidth;
     timing-only defenses do not. *)
  let find name = List.find (fun r -> r.Table1.entry.Stob_defense.Registry.name = name) rows in
  (match (find "FRONT").Table1.overhead with
  | None -> Alcotest.fail "FRONT should be measured"
  | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "FRONT bandwidth cost substantial (%.2f)" s.Stob_defense.Overhead.bandwidth)
        true
        (s.Stob_defense.Overhead.bandwidth > 0.2));
  (match (find "Stob-delay").Table1.overhead with
  | None -> Alcotest.fail "Stob-delay should be measured"
  | Some s ->
      Alcotest.(check bool) "timing-only defense is bandwidth-free" true
        (Float.abs s.Stob_defense.Overhead.bandwidth < 0.01);
      Alcotest.(check bool) "but adds latency" true (s.Stob_defense.Overhead.latency > 0.01));
  match (find "QCSD").Table1.overhead with
  | None -> ()
  | Some _ -> Alcotest.fail "unimplemented defense should have no measurement"

let test_fig3_shape () =
  let config =
    { Fig3.default_config with Fig3.alphas = [ 0; 20; 40 ]; warmup = 0.02; measure = 0.05 }
  in
  let points = Fig3.run ~config () in
  Alcotest.(check int) "three points" 3 (List.length points);
  let p0 = List.nth points 0 and p40 = List.nth points 2 in
  Alcotest.(check bool) "baseline in sane range" true
    (p0.Fig3.baseline_gbps > 20.0 && p0.Fig3.baseline_gbps < 100.0);
  Alcotest.(check bool) "tso reduction costs throughput" true
    (p40.Fig3.tso_gbps < p0.Fig3.tso_gbps *. 0.9);
  Alcotest.(check bool) "packet reduction costs less than tso" true
    (p40.Fig3.packet_gbps >= p40.Fig3.tso_gbps);
  Alcotest.(check bool) "floor stays high (paper: >= ~20 Gb/s)" true
    (p40.Fig3.combined_gbps > 15.0)

(* [test_fig3_shape]'s points against the closed form (Fig3_closed_form).
   The tolerance is 0.1 %, from the model: a 50 ms window holds 37 to 74
   whole 99-segment cycles here, and over every alignment of the window on
   the cycle, counting the segment at its edge or not, the closed form
   itself moves by at most 0.045 % (alpha = 40, combined).  The margin
   covers the link's serialization offset between a segment's CPU
   completion and the byte counter.  The warm-up (20 ms) is hundreds of
   RTTs, so slow start is over before the window opens.  At alpha = 0
   [Fig3.run] copies the baseline into the three series, so those are not
   compared. *)
let test_fig3_closed_form () =
  let config =
    { Fig3.default_config with Fig3.alphas = [ 0; 20; 40 ]; warmup = 0.02; measure = 0.05 }
  in
  let points = Fig3.run ~config () in
  let near what expected got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.4f Gb/s within 0.1 %% of %.4f" what got expected)
      true
      (Float.abs (got -. expected) <= 1e-3 *. expected)
  in
  near "baseline" Fig3_closed_form.baseline_gbps (List.hd points).Fig3.baseline_gbps;
  List.iter
    (fun (p : Fig3.point) ->
      if p.Fig3.alpha > 0 then
        List.iter
          (fun (name, series, got) ->
            near
              (Printf.sprintf "alpha=%d %s" p.Fig3.alpha name)
              (Fig3_closed_form.gbps ~alpha:p.Fig3.alpha ~series)
              got)
          [ ("packet", Fig3_closed_form.Packet, p.Fig3.packet_gbps);
            ("tso", Fig3_closed_form.Tso, p.Fig3.tso_gbps);
            ("combined", Fig3_closed_form.Combined, p.Fig3.combined_gbps) ])
    points

(* Thirty equal traces, ten per class.  Folds are assigned by sample
   position, so each of five folds tests two samples of every class, and
   the attack, which cannot tell the classes apart, scores exactly chance.
   Keyed by sample value, every sample of a class took one fold, no fold
   had both a train and a test side, and the CV raised "empty dataset". *)
let test_folds_over_equal_traces () =
  let module Dataset = Stob_web.Dataset in
  let module Trace = Stob_net.Trace in
  let trace =
    Trace.of_events
      (Array.init 20 (fun i ->
           let dir = if i mod 4 = 0 then Stob_net.Packet.Outgoing else Stob_net.Packet.Incoming in
           { Trace.time = 0.01 *. float_of_int i; dir; size = 100 + (50 * i) }))
  in
  let site_names = [| "a"; "b"; "c" |] in
  let samples =
    Array.init 30 (fun i ->
        {
          Dataset.site = site_names.(i / 10);
          label = i / 10;
          trace;
          completed = true;
          total_in_bytes = Trace.bytes ~dir:Stob_net.Packet.Incoming trace;
        })
  in
  let d = { Dataset.samples; site_names } in
  List.iter
    (fun (_, (test : Dataset.t)) ->
      let per_class label =
        Array.fold_left (fun n s -> if s.Dataset.label = label then n + 1 else n) 0 test.samples
      in
      Alcotest.(check (list int)) "two test samples per class" [ 2; 2; 2 ]
        (List.map per_class [ 0; 1; 2 ]))
    (Dataset.folds d ~rng:(Stob_util.Rng.create 1) ~k:5);
  let mean, std = Evalcommon.accuracy_cv ~folds:5 ~trees:10 d in
  Alcotest.(check (float 1e-12)) "chance accuracy" (1.0 /. 3.0) mean;
  Alcotest.(check (float 1e-12)) "on every fold" 0.0 std

(* [test_table2_reduced]'s cells as [Int64.bits_of_float] of (mean, std),
   and its per-site counts after sanitization. *)
let table2_reduced_cells =
  [
    ("N=15 Original", ("3fee38e38e38e38e", "3fb41cfe93ff519c"));
    ("N=15 Split", ("3ff0000000000000", "0000000000000000"));
    ("N=15 Delayed", ("3fee38e38e38e38e", "3fb41cfe93ff519c"));
    ("N=15 Combined", ("3ff0000000000000", "0000000000000000"));
    ("N=30 Original", ("3ff0000000000000", "0000000000000000"));
    ("N=30 Split", ("3ff0000000000000", "0000000000000000"));
    ("N=30 Delayed", ("3ff0000000000000", "0000000000000000"));
    ("N=30 Combined", ("3ff0000000000000", "0000000000000000"));
    ("N=45 Original", ("3ff0000000000000", "0000000000000000"));
    ("N=45 Split", ("3ff0000000000000", "0000000000000000"));
    ("N=45 Delayed", ("3ff0000000000000", "0000000000000000"));
    ("N=45 Combined", ("3ff0000000000000", "0000000000000000"));
    ("N=All Original", ("3feeaaaaaaaaaaaa", "3fae2b7dddfefa6a"));
    ("N=All Split", ("3feeaaaaaaaaaaaa", "3fae2b7dddfefa6a"));
    ("N=All Delayed", ("3feeaaaaaaaaaaaa", "3fae2b7dddfefa6a"));
    ("N=All Combined", ("3feeaaaaaaaaaaaa", "3fae2b7dddfefa6a"));
  ]

let table2_reduced_per_site = [ ("bing.com", 7); ("youtube.com", 7); ("whatsapp.net", 7) ]

let test_table2_reduced () =
  let config =
    { Table2.default_config with Table2.samples_per_site = 8; folds = 2; forest_trees = 15; quiet = true }
  in
  let profiles =
    [ Stob_web.Sites.find "bing.com"; Stob_web.Sites.find "youtube.com"; Stob_web.Sites.find "whatsapp.net" ]
  in
  let dataset = Stob_web.Dataset.generate ~samples_per_site:8 ~seed:5 ~profiles () in
  let result = Table2.run_on ~config dataset in
  Alcotest.(check int) "four rows" 4 (List.length result.Table2.rows);
  List.iter
    (fun r ->
      List.iter
        (fun (c : Table2.cell) ->
          Alcotest.(check bool) "accuracy in [0,1]" true (c.Table2.mean >= 0.0 && c.Table2.mean <= 1.0))
        [ r.Table2.original; r.Table2.split; r.Table2.delayed; r.Table2.combined ])
    result.Table2.rows;
  (* With 3 distinctive sites even a tiny forest beats chance on full
     traces. *)
  let all_row = List.nth result.Table2.rows 3 in
  Alcotest.(check bool)
    (Printf.sprintf "beats chance (%.2f > 0.5)" all_row.Table2.original.Table2.mean)
    true
    (all_row.Table2.original.Table2.mean > 0.5);
  (* Every cell pinned to the bit, with the per-site counts: the corpus,
     the emulated defenses and the featurizer must reproduce the table
     exactly, not merely plausibly. *)
  let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x) in
  let cells =
    List.concat_map
      (fun r ->
        List.map
          (fun (v, (c : Table2.cell)) ->
            (Printf.sprintf "N=%s %s" r.Table2.n_label v, (bits c.Table2.mean, bits c.Table2.std)))
          [ ("Original", r.Table2.original); ("Split", r.Table2.split);
            ("Delayed", r.Table2.delayed); ("Combined", r.Table2.combined) ])
      result.Table2.rows
  in
  Alcotest.(check (list (pair string (pair string string)))) "cell bits" table2_reduced_cells cells;
  Alcotest.(check (list (pair string int))) "per-site counts" table2_reduced_per_site
    result.Table2.per_site

let test_arch_renderings () =
  let f1 = Arch.figure1 () and f2 = Arch.figure2 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("figure 1 mentions " ^ needle) true
        (contains ~sub:needle f1))
    [ "TLS over TCP"; "kTLS"; "QUIC"; "TSO"; "reno, cubic, bbr" ];
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("figure 2 mentions " ^ needle) true
        (contains ~sub:needle f2))
    [ "policy table"; "tso_bytes"; "packet_payload"; "earliest_departure"; "clamp" ]

let test_cca_ablation_reduced () =
  let rows = Ablation.run_cca ~quiet:true () in
  Alcotest.(check int) "three CCAs" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) (r.Ablation.cca ^ " audits clean") 0 r.Ablation.violations;
      Alcotest.(check bool)
        (Printf.sprintf "%s achieves link-order throughput (%.2f)" r.Ablation.cca
           r.Ablation.baseline_gbps)
        true
        (r.Ablation.baseline_gbps > 1.0))
    rows;
  (* The paper's Section 5.1 concern, measured: the delaying policy costs
     BBR (pacing-based) more than CUBIC (window-based). *)
  let find name = List.find (fun r -> r.Ablation.cca = name) rows in
  let cubic = find "cubic" and bbr = find "bbr" in
  let cost r = r.Ablation.baseline_gbps -. r.Ablation.delayed_gbps in
  Alcotest.(check bool)
    (Printf.sprintf "bbr pays more (%.2f vs %.2f)" (cost bbr) (cost cubic))
    true
    (cost bbr > cost cubic +. 0.05)

let test_openworld_reduced () =
  let r =
    Openworld.run ~samples_per_site:6 ~background_train_sites:6 ~background_test_sites:6 ~k:2
      ~trees:15 ~quiet:true ()
  in
  let check_metrics name (m : Openworld.metrics) =
    List.iter
      (fun (what, v) ->
        Alcotest.(check bool) (name ^ " " ^ what ^ " in [0,1]") true (v >= 0.0 && v <= 1.0))
      [ ("tpr", m.Openworld.tpr); ("fpr", m.Openworld.fpr); ("wrong", m.Openworld.wrong_site) ]
  in
  check_metrics "undefended" r.Openworld.undefended;
  check_metrics "defended" r.Openworld.defended;
  (* The strict all-k-agree rule keeps false positives low even at this
     tiny scale. *)
  Alcotest.(check bool) "fpr below 0.5" true (r.Openworld.undefended.Openworld.fpr < 0.5)

let test_httpos_reduced () =
  let r = Httpos.run ~samples_per_site:6 ~trees:15 ~quiet:true () in
  Alcotest.(check bool) "load time inflates" true
    (r.Httpos.defended_load_time > r.Httpos.base_load_time *. 1.3);
  Alcotest.(check bool) "accuracies in range" true
    (r.Httpos.base_accuracy >= 0.0 && r.Httpos.base_accuracy <= 1.0
    && r.Httpos.defended_accuracy >= 0.0
    && r.Httpos.defended_accuracy <= 1.0)

let test_importance_reduced () =
  let r = Importance.run ~samples_per_site:6 ~trees:15 ~quiet:true () in
  Alcotest.(check int) "all features ranked"
    (Array.length Stob_kfp.Features.names)
    (List.length r.Importance.undefended);
  let sum l = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 l in
  Alcotest.(check (float 1e-6)) "undefended normalized" 1.0 (sum r.Importance.undefended);
  Alcotest.(check (float 1e-6)) "defended normalized" 1.0 (sum r.Importance.defended);
  (* Descending order. *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (sorted r.Importance.undefended)

let test_cca_id_reduced () =
  (* 5 flows/CCA leaves only 15 test samples and sits exactly on the 0.4
     threshold — one reclassified flow flips it; 8 gives a robust margin. *)
  let r = Cca_id.run ~flows_per_cca:8 ~trees:15 ~quiet:true () in
  Alcotest.(check bool) "attack beats chance" true (r.Cca_id.undefended > 0.4);
  Alcotest.(check bool) "rate floor reduces identifiability" true
    (r.Cca_id.shaped <= r.Cca_id.undefended)

(* --- population statistical battery ----------------------------------- *)

let pop_dir_counter = ref 0

let fresh_pop_dir () =
  incr pop_dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stob-test-pop.%d.%d" (Unix.getpid ()) !pop_dir_counter)
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let with_pop_dir f =
  let dir = fresh_pop_dir () in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* Small enough to generate in-process, big enough for the digests to be
   sensitive to any ordering or payload difference. *)
let pop_config =
  {
    Population.default_config with
    Population.users = 24;
    shards = 4;
    background_sites = 7;
    max_trace_events = 256;
  }

let pop_site_counts config =
  let n = 9 + config.Population.background_sites in
  let counts = Array.make n 0 in
  for shard = 0 to config.Population.shards - 1 do
    Array.iter
      (fun v -> counts.(v.Population.site) <- counts.(v.Population.site) + 1)
      (Population.plan_shard config ~shard)
  done;
  counts

let test_population_zipf_slope () =
  (* Planning is pure, so a large population is cheap: ~20k visit draws
     over 50 sites pins the empirical rank-frequency slope tightly. *)
  let config =
    { pop_config with Population.users = 2_000; shards = 8; background_sites = 41 }
  in
  let counts = pop_site_counts config in
  let total = Array.fold_left ( + ) 0 counts in
  Alcotest.(check bool) (Printf.sprintf "enough visits (%d)" total) true (total > 10_000);
  (* Least-squares slope of log count vs log rank over the well-populated
     head; the tail of a finite sample is noisy by nature. *)
  let pts =
    List.filter_map
      (fun r -> if counts.(r) > 30 then Some (log (float_of_int (r + 1)), log (float_of_int counts.(r))) else None)
      (List.init (Array.length counts) Fun.id)
  in
  Alcotest.(check bool) "head covers 20+ ranks" true (List.length pts >= 20);
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let expected = -.config.Population.zipf_exponent in
  Alcotest.(check bool)
    (Printf.sprintf "rank-frequency slope %.3f within 0.2 of %.3f" slope expected)
    true
    (Float.abs (slope -. expected) < 0.2)

let test_population_plan_deterministic () =
  let a = Population.plan_shard pop_config ~shard:1 in
  let b = Population.plan_shard pop_config ~shard:1 in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  let c = Population.plan_shard { pop_config with Population.seed = 43 } ~shard:1 in
  Alcotest.(check bool) "different seed, different plan" true (a <> c);
  (* Per-user pre-split generators: a user's visits (sessions, sites,
     start times, trace seeds) must not depend on how many shards the
     population is cut into. *)
  let visits_of_user config u =
    Array.to_list (Population.plan_shard config ~shard:(u mod config.Population.shards))
    |> List.filter (fun v -> v.Population.user = u)
  in
  let two = { pop_config with Population.shards = 2 } in
  for u = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "user %d plan independent of shard count" u)
      true
      (visits_of_user pop_config u = visits_of_user two u)
  done;
  (* Session counts look Poisson-ish: the mean over the population sits
     near the configured rate. *)
  let sessions = Hashtbl.create 64 in
  for shard = 0 to pop_config.Population.shards - 1 do
    Array.iter
      (fun v -> Hashtbl.replace sessions (v.Population.user, v.Population.session) ())
      (Population.plan_shard pop_config ~shard)
  done;
  let mean = float_of_int (Hashtbl.length sessions) /. float_of_int pop_config.Population.users in
  Alcotest.(check bool)
    (Printf.sprintf "mean sessions/user %.2f near %.2f" mean pop_config.Population.mean_sessions)
    true
    (Float.abs (mean -. pop_config.Population.mean_sessions) < 1.0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_population_jobs_parity () =
  with_pop_dir (fun dir1 ->
      with_pop_dir (fun dir4 ->
          let seq = Population.generate pop_config ~state_dir:dir1 in
          let par =
            Stob_par.Pool.with_pool ~domains:4 (fun pool ->
                Population.generate ~pool pop_config ~state_dir:dir4)
          in
          Alcotest.(check string) "corpus digest jobs-invariant" seq.Population.corpus_digest
            par.Population.corpus_digest;
          (* The digest covers each shard's payload CRCs, so it pins the
             journal bytes and each shard's [payload_crc]. *)
          Alcotest.(check string) "corpus digest pinned" "522fdce1292120722110d1b3ceaceeea"
            seq.Population.corpus_digest;
          Alcotest.(check int) "flow counts equal" seq.Population.flows par.Population.flows;
          for shard = 0 to pop_config.Population.shards - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "shard %d journal byte-identical" shard)
              true
              (read_file (Population.shard_file ~state_dir:dir1 shard)
              = read_file (Population.shard_file ~state_dir:dir4 shard))
          done;
          (* Resume: a second run over a warm state directory recomputes
             nothing and reports the identical corpus. *)
          let resumed = Population.generate pop_config ~state_dir:dir1 in
          Alcotest.(check int) "all shards served from cache" pop_config.Population.shards
            resumed.Population.cached_shards;
          Alcotest.(check string) "resumed digest identical" seq.Population.corpus_digest
            resumed.Population.corpus_digest;
          (* The journaled corpus streams back: per-shard flow counts match
             the stats, traces arrive sorted and capped. *)
          let streamed = ref 0 in
          for shard = 0 to pop_config.Population.shards - 1 do
            Population.iter_shard_traces ~state_dir:dir1 ~shard (fun pt ->
                incr streamed;
                Alcotest.(check bool) "trace within event cap" true
                  (Stob_net.Trace.length pt <= pop_config.Population.max_trace_events))
          done;
          Alcotest.(check int) "streamed corpus complete" seq.Population.flows !streamed))

(* A small corpus under Dl.run_population's own config, so the same state
   directory serves both generation and the attack replay. *)
let damage_config = { Population.default_config with Population.users = 40; seed = 7; shards = 4 }

let damage_shard0 dir how =
  let file = Population.shard_file ~state_dir:dir 0 in
  match how with
  | `Truncate -> Unix.truncate file (((Unix.stat file).Unix.st_size / 2) + 3)
  | `Delete -> Sys.remove file

(* A cached shard whose journal was cut short or deleted is recomputed
   whole; before, generation trusted the stats record and the corpus
   silently lost traces. *)
let test_population_damaged_shard_recomputed () =
  List.iter
    (fun (what, how) ->
      with_pop_dir (fun dir ->
          let fresh = Population.generate damage_config ~state_dir:dir in
          let shard_bytes =
            List.init damage_config.Population.shards (fun i ->
                read_file (Population.shard_file ~state_dir:dir i))
          in
          damage_shard0 dir how;
          let resumed = Population.generate damage_config ~state_dir:dir in
          Alcotest.(check int) (what ^ ": only the damaged shard recomputed")
            (damage_config.Population.shards - 1)
            resumed.Population.cached_shards;
          Alcotest.(check string) (what ^ ": corpus digest as fresh") fresh.Population.corpus_digest
            resumed.Population.corpus_digest;
          List.iteri
            (fun i want ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: shard %d bytes as fresh" what i)
                true
                (read_file (Population.shard_file ~state_dir:dir i) = want))
            shard_bytes))
    [ ("truncated", `Truncate); ("deleted", `Delete) ]

(* Damage in place keeps a journal's size, so generation serves it as
   cached; the attack replay must refuse the corpus and name the file.  It
   runs without a pool and on a 2-domain pool, where the shard walk fails
   on a worker. *)
let expect_refused ~damage ~says =
  List.iter
    (fun domains ->
      with_pop_dir (fun dir ->
          ignore (Population.generate damage_config ~state_dir:dir);
          let file = Population.shard_file ~state_dir:dir 0 in
          damage file;
          let run ?pool () =
            Dl.run_population ~users:damage_config.Population.users
              ~seed:damage_config.Population.seed ~trees:2 ~epochs:1 ~quiet:true ?pool
              ~state_dir:dir ()
          in
          match
            if domains = 1 then run ()
            else Stob_par.Pool.with_pool ~domains (fun pool -> run ~pool ())
          with
          | _ -> Alcotest.fail "run_population trained on a damaged shard journal"
          | exception Failure msg ->
              let mentions sub = contains ~sub msg in
              let at = Printf.sprintf "%d domain(s): " domains in
              Alcotest.(check bool) (at ^ "failure names the shard file: " ^ msg) true
                (mentions file);
              Alcotest.(check bool) (at ^ "failure says " ^ says) true (mentions says)))
    [ 1; 2 ]

let test_population_flipped_byte_refused () =
  expect_refused ~says:"fewer traces" ~damage:(fun file ->
      let bytes = Bytes.of_string (read_file file) in
      let at = String.length Stob_store.Journal.magic + 8 + 10 in
      Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0xff));
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc bytes))

(* Extra valid frames.  One frame appended would change the size, and
   generation would recompute the shard; every trace frame is 18 + 12k
   bytes, so a same-size rewrite adds at least two.  The last trace loses
   three events (36 bytes) and two empty traces (18 bytes each) follow. *)
let test_population_extra_frames_refused () =
  expect_refused ~says:"more traces" ~damage:(fun file ->
      let module Trace = Stob_net.Trace in
      let size = (Unix.stat file).Unix.st_size in
      match List.rev (Stob_store.Journal.read file) with
      | [] -> Alcotest.fail "shard 0 is empty"
      | last :: earlier ->
          let last = Trace.of_slice (Bytes.of_string last) (String.length last) in
          let shortened = Trace.to_bytes (Trace.prefix last (Trace.length last - 3)) in
          let empty = Trace.to_bytes Trace.empty in
          ignore
            (Stob_store.Journal.rewrite file (List.rev_append earlier [ shortened; empty; empty ])
              : int);
          Alcotest.(check int) "rewritten journal keeps its size" size
            (Unix.stat file).Unix.st_size)

(* [Dl.run_population] on [damage_config]'s corpus: the flow count, the
   train/test sizes and the bits of both accuracies.  Every monitored site
   has more than [max_per_site] visits, so the shuffle cap picks each
   class's sample; 3 trees and 10 epochs leave both accuracies strictly
   inside (0, 1), where a reordered sample moves them. *)
let population_run_pin = (357, 36, 18, "3fd8e38e38e38e39", "3fd1c71c71c71c72")

let test_population_run_pinned () =
  let run ?pool () =
    with_pop_dir (fun dir ->
        let r =
          Dl.run_population ~users:damage_config.Population.users
            ~seed:damage_config.Population.seed ~trees:3 ~epochs:10 ~max_per_site:6 ~quiet:true
            ?pool ~state_dir:dir ()
        in
        ( r.Dl.flows,
          r.Dl.train_samples,
          r.Dl.test_samples,
          Printf.sprintf "%016Lx" (Int64.bits_of_float r.Dl.kfp),
          Printf.sprintf "%016Lx" (Int64.bits_of_float r.Dl.dfnet) ))
  in
  let pin = Alcotest.(pair int (pair int (pair int (pair string string)))) in
  let nest (f, tr, te, k, d) = (f, (tr, (te, (k, d)))) in
  Alcotest.check pin "no pool" (nest population_run_pin) (nest (run ()));
  Alcotest.check pin "2 domains" (nest population_run_pin)
    (nest (Stob_par.Pool.with_pool ~domains:2 (fun pool -> run ~pool ())))

let suite =
  [
    ( "experiments",
      [
        Alcotest.test_case "table1 rows and overheads" `Slow test_table1_rows;
        Alcotest.test_case "fig3 shape" `Slow test_fig3_shape;
        Alcotest.test_case "fig3 matches the closed form" `Slow test_fig3_closed_form;
        Alcotest.test_case "table2 reduced" `Slow test_table2_reduced;
        Alcotest.test_case "folds over equal traces score chance" `Quick
          test_folds_over_equal_traces;
        Alcotest.test_case "architecture renderings" `Quick test_arch_renderings;
        Alcotest.test_case "cca ablation" `Slow test_cca_ablation_reduced;
        Alcotest.test_case "openworld reduced" `Slow test_openworld_reduced;
        Alcotest.test_case "httpos reduced" `Slow test_httpos_reduced;
        Alcotest.test_case "importance reduced" `Slow test_importance_reduced;
        Alcotest.test_case "cca-id reduced" `Slow test_cca_id_reduced;
      ] );
    ( "experiments.population",
      [
        Alcotest.test_case "zipf rank-frequency slope" `Quick test_population_zipf_slope;
        Alcotest.test_case "plans deterministic and shard-count independent" `Quick
          test_population_plan_deterministic;
        Alcotest.test_case "jobs parity, resume, and streaming" `Slow
          test_population_jobs_parity;
        Alcotest.test_case "truncated or deleted shard recomputed" `Quick
          test_population_damaged_shard_recomputed;
        Alcotest.test_case "shard damaged in place refused" `Quick
          test_population_flipped_byte_refused;
        Alcotest.test_case "shard with extra frames refused" `Quick
          test_population_extra_frames_refused;
        Alcotest.test_case "run_population pinned, no pool and 2 domains" `Quick
          test_population_run_pinned;
      ] );
  ]
