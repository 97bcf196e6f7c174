module Store = Stob_store.Store
module Journal = Stob_store.Journal
module Io_fault = Stob_store.Io_fault
module Vfs = Stob_store.Vfs
module Sv = Stob_store.Supervisor
module Fig3 = Stob_experiments.Fig3

type report = {
  sweep_boundaries : int;
  sweep_crashes_passed : int;
  ckpt_boundaries : int;
  ckpt_crashes_passed : int;
  orphans_reclaimed : int;
  frames_scrubbed : int;
  torn_tails_seen : int;
  short_write_runs : int;
  short_writes_injected : int;
  transient_runs : int;
  transient_retried : int;
  enospc_degraded : bool;
  enospc_dropped : int;
  degraded_edge_fired : bool;
  compaction : Store.compaction option;
  failures : string list;
}

(* Fast retry budget: same attempts as production, no sleeping — the
   fault plane is deterministic, so backoff buys nothing but wall time. *)
let retry_fast = { Journal.attempts = 3; backoff_s = 0. }

type ctx = {
  root : string;
  mutable dirs : int;
  mutable frames : int;
  mutable torn : int;
  mutable orphans : int;
  mutable fails : string list; (* newest first *)
}

let fail ctx fmt = Printf.ksprintf (fun s -> ctx.fails <- s :: ctx.fails) fmt

let fresh_dir ctx =
  ctx.dirs <- ctx.dirs + 1;
  Filename.concat ctx.root (Printf.sprintf "d%04d" ctx.dirs)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Scrub, and cross-check the frame walker's three faces on the same
   (possibly torn) file: [read] must replay exactly [verify]'s frame count,
   and the payloads [iter] lends must equal [read]'s. *)
let scrub ctx path =
  match Journal.verify path with
  | s ->
      ctx.frames <- ctx.frames + s.Journal.scrub_frames;
      if s.Journal.torn_bytes > 0 then ctx.torn <- ctx.torn + 1;
      let read = Journal.read path in
      let lent = ref [] in
      Journal.iter path (fun buf len -> lent := Bytes.sub_string buf 0 len :: !lent);
      if List.length read <> s.Journal.scrub_frames then
        fail ctx "%s: read replays %d frames, verify counts %d" path (List.length read)
          s.Journal.scrub_frames
      else if List.rev !lent <> read then fail ctx "%s: iter lends other payloads than read" path
  | exception Journal.Corrupt msg -> fail ctx "scrub refused a journal we wrote: %s" msg

(* --- the synthetic sweep ------------------------------------------------- *)

(* Deterministic cells with payload sizes spanning the interesting journal
   shapes: the empty record, single bytes, and multi-KB frames whose
   writes a crash can cut anywhere. *)
let sizes = [| 0; 1; 9; 137; 1024; 10240 |]

let payload_of ~seed i =
  let len = sizes.(i mod Array.length sizes) + (i * 7 mod 13) in
  String.init len (fun j -> Char.chr ((i * 131 + j * 17 + seed) land 0xff))

let cells ~seed n =
  List.init n (fun i ->
      { Sv.label = Printf.sprintf "cell=%02d" i;
        config = [ ("i", string_of_int i) ];
        seed;
        run = (fun ~attempt:_ -> payload_of ~seed i) })

let run_synthetic ~seed ~n ~vfs ~dir =
  let store = Store.open_ ~vfs ~retry:retry_fast dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      Store.set_manifest store ~experiment:"storechaos"
        ~fields:[ ("n", string_of_int n) ]
        ~total:n;
      let outcomes =
        Sv.run ~store ~experiment:"storechaos" ~encode:Fun.id ~decode:Fun.id (cells ~seed n)
      in
      let results = List.map (fun (o : _ Sv.outcome) -> (o.Sv.label, o.Sv.result)) outcomes in
      (Marshal.to_string results [], Store.report store))

(* --- the real sweep (quick Fig 3) ---------------------------------------- *)

let fig3_cfg =
  { Fig3.default_config with Fig3.alphas = [ 0; 16; 32 ]; warmup = 0.02; measure = 0.04 }

let run_fig3 ~vfs ~dir =
  let store = Store.open_ ~vfs ~retry:retry_fast dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      let pts = Fig3.run ~config:fig3_cfg ~store () in
      (Marshal.to_string pts [], Store.report store))

(* --- crash-point enumeration --------------------------------------------- *)

(* For every syscall boundary of an uninterrupted [run_sweep]: die there
   (possibly mid-frame), resume with a clean plane, and demand results
   and final journal bytes bit-identical to the uninterrupted run. *)
let enumerate ctx ~name ~seed ~run_sweep =
  let ref_dir = fresh_dir ctx in
  let res_ref, _ = run_sweep ~vfs:Vfs.unix ~dir:ref_dir in
  let bytes_ref = read_file (Store.journal_file ref_dir) in
  scrub ctx (Store.journal_file ref_dir);
  let counter = Io_fault.arm Io_fault.quiet in
  let res_quiet, _ = run_sweep ~vfs:(Io_fault.vfs counter) ~dir:(fresh_dir ctx) in
  if res_quiet <> res_ref then fail ctx "%s: counting plane perturbed the results" name;
  let n = Io_fault.ops counter in
  let passed = ref 0 in
  for k = 1 to n do
    let dir = fresh_dir ctx in
    let fault = Io_fault.arm { Io_fault.quiet with Io_fault.seed; crash_at = Some k } in
    (match run_sweep ~vfs:(Io_fault.vfs fault) ~dir with
    | _ -> fail ctx "%s: crash point %d/%d never fired" name k n
    | exception Io_fault.Crash _ | exception Fun.Finally_raised (Io_fault.Crash _) ->
        scrub ctx (Store.journal_file dir);
        let res, rep = run_sweep ~vfs:Vfs.unix ~dir in
        ctx.orphans <- ctx.orphans + rep.Store.r_orphans_swept;
        let bytes = read_file (Store.journal_file dir) in
        if res <> res_ref then
          fail ctx "%s: resume after crash at boundary %d/%d computed different results" name k n
        else if bytes <> bytes_ref then
          fail ctx "%s: resume after crash at boundary %d/%d left different journal bytes" name
            k n
        else incr passed)
  done;
  (n, !passed)

(* --- degraded mode (persistent ENOSPC) ----------------------------------- *)

let enospc_phase ctx ~seed ~n =
  let ref_res, _ = run_synthetic ~seed ~n ~vfs:Vfs.unix ~dir:(fresh_dir ctx) in
  let ref_bytes = ref "" in
  (let d = fresh_dir ctx in
   ignore (run_synthetic ~seed ~n ~vfs:Vfs.unix ~dir:d);
   ref_bytes := read_file (Store.journal_file d));
  let dir = fresh_dir ctx in
  (* Mid-run: past the store open (first ~5 boundaries) so the sweep is
     underway when the disk "fills". *)
  let k = 6 + (2 * n / 3) in
  let fault =
    Io_fault.arm { Io_fault.quiet with Io_fault.seed; fail_from = Some (Unix.ENOSPC, k) }
  in
  let engine = Stob_sim.Engine.create () in
  let monitor = Monitor.create engine in
  let degraded = ref false and dropped = ref 0 and edge = ref false in
  (match Store.open_ ~vfs:(Io_fault.vfs fault) ~retry:retry_fast dir with
  | exception e -> fail ctx "enospc: store open failed: %s" (Printexc.to_string e)
  | store ->
      Monitor.watch_store monitor ~name:"storechaos" store;
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          Store.set_manifest store ~experiment:"storechaos"
            ~fields:[ ("n", string_of_int n) ]
            ~total:n;
          match
            Sv.run ~store ~experiment:"storechaos" ~encode:Fun.id ~decode:Fun.id
              (cells ~seed n)
          with
          | exception e ->
              fail ctx "enospc: sweep aborted instead of degrading: %s" (Printexc.to_string e)
          | outcomes ->
              let results =
                List.map (fun (o : _ Sv.outcome) -> (o.Sv.label, o.Sv.result)) outcomes
              in
              if Marshal.to_string results [] <> ref_res then
                fail ctx "enospc: degraded sweep computed different results";
              (* Edge-triggered: two sweeps of the watches, one violation. *)
              Monitor.check_now monitor ~now:0.0;
              Monitor.check_now monitor ~now:1.0;
              edge :=
                Monitor.counts monitor = [ ("store-durability-degraded", 1) ];
              if not !edge then
                fail ctx "enospc: expected exactly one store-durability-degraded edge, got %s"
                  (String.concat ","
                     (List.map
                        (fun (k, c) -> Printf.sprintf "%s=%d" k c)
                        (Monitor.counts monitor)));
              let rep = Store.report store in
              degraded := rep.Store.degraded_reason <> None;
              dropped := rep.Store.dropped;
              if not !degraded then fail ctx "enospc: store never degraded";
              if rep.Store.dropped < 1 then fail ctx "enospc: no records counted as dropped";
              if rep.Store.journal_frames + rep.Store.dropped <> n + 1 then
                fail ctx "enospc: report does not account for all records (%d frames + %d dropped <> %d)"
                  rep.Store.journal_frames rep.Store.dropped (n + 1)));
  (* Journaling-off must still have left a valid prefix: a clean resume
     recomputes the dropped cells and reconverges byte-for-byte. *)
  let res, _ = run_synthetic ~seed ~n ~vfs:Vfs.unix ~dir in
  if res <> ref_res then fail ctx "enospc: clean resume after degraded run differs";
  if read_file (Store.journal_file dir) <> !ref_bytes then
    fail ctx "enospc: clean resume did not reconverge to the reference journal bytes";
  (!degraded, !dropped, !edge)

(* --- compaction ----------------------------------------------------------- *)

(* Supersede every other cell so the journal holds stale frames, then
   checkpoint and hold the replay-digest-agreement invariant. *)
let supersede store =
  let n = ref 0 in
  List.iteri
    (fun i (key, label, status) ->
      if i mod 2 = 0 then
        match status with
        | Store.Done s ->
            incr n;
            Store.record store ~key ~label (Store.Done (s ^ "!"))
        | Store.Poisoned _ -> ())
    (Store.entries store);
  !n

let compaction_phase ctx ~seed ~n =
  let dir = fresh_dir ctx in
  ignore (run_synthetic ~seed ~n ~vfs:Vfs.unix ~dir);
  let store = Store.open_ dir in
  let stale = supersede store in
  let digest_pre = Store.digest store in
  let rep = Store.report store in
  if rep.Store.stale_frames <> stale then
    fail ctx "compaction: expected %d stale frames, report says %d" stale rep.Store.stale_frames;
  (* Size gate: a small journal is left alone... *)
  if Store.maybe_checkpoint ~threshold_bytes:max_int store <> None then
    fail ctx "compaction: maybe_checkpoint ignored its size threshold";
  (* ...a big-enough one with stale frames is compacted... *)
  let c =
    match Store.maybe_checkpoint ~threshold_bytes:1 store with
    | Some c -> Some c
    | None ->
        fail ctx "compaction: maybe_checkpoint refused a stale journal";
        None
  in
  (match c with
  | Some c ->
      if c.Store.frames_after <> n + 1 then
        fail ctx "compaction: expected %d frames after, got %d" (n + 1) c.Store.frames_after;
      if c.Store.frames_after >= c.Store.frames_before then
        fail ctx "compaction: frame count did not shrink (%d -> %d)" c.Store.frames_before
          c.Store.frames_after;
      if c.Store.bytes_after >= c.Store.bytes_before then
        fail ctx "compaction: journal did not shrink (%d B -> %d B)" c.Store.bytes_before
          c.Store.bytes_after
  | None -> ());
  (* ...and once compacted there is nothing stale left to reclaim. *)
  if Store.maybe_checkpoint ~threshold_bytes:1 store <> None then
    fail ctx "compaction: second maybe_checkpoint found stale frames in a fresh rewrite";
  Store.close store;
  if Store.replay_digest dir <> digest_pre then
    fail ctx "compaction: post-compaction replay digest disagrees with pre-compaction state";
  let _, ents = Store.peek dir in
  if List.length ents <> n then
    fail ctx "compaction: compacted journal replays %d cells, expected %d" (List.length ents) n;
  (* Rename-failure class: a flaky rename under the bounded retry budget
     must not break an offline compaction. *)
  let flaky =
    Io_fault.arm { Io_fault.quiet with Io_fault.seed; rename_fails = 1 }
  in
  let dir2 = fresh_dir ctx in
  ignore (run_synthetic ~seed ~n ~vfs:Vfs.unix ~dir:dir2);
  let store2 = Store.open_ ~vfs:(Io_fault.vfs flaky) ~retry:retry_fast dir2 in
  ignore (supersede store2);
  let digest2 = Store.digest store2 in
  (match Store.checkpoint store2 with
  | _ -> ()
  | exception e ->
      fail ctx "compaction: retry did not absorb a single rename failure: %s"
        (Printexc.to_string e));
  Store.close store2;
  if Store.replay_digest dir2 <> digest2 then
    fail ctx "compaction: flaky-rename compaction changed the replay digest";
  c

(* Crash at every boundary of open+checkpoint: tmp+rename atomicity means
   the replay digest must be unchanged whichever side of the rename the
   crash lands on, and stranded tmps must be swept by the next open. *)
let ckpt_crash_phase ctx ~seed ~n =
  let setup () =
    let dir = fresh_dir ctx in
    ignore (run_synthetic ~seed ~n ~vfs:Vfs.unix ~dir);
    let store = Store.open_ dir in
    ignore (supersede store);
    Store.close store;
    (dir, Store.replay_digest dir)
  in
  let dir0, digest0 = setup () in
  let counter = Io_fault.arm Io_fault.quiet in
  let store = Store.open_ ~vfs:(Io_fault.vfs counter) ~retry:retry_fast dir0 in
  ignore (Store.checkpoint store);
  Store.close store;
  let m = Io_fault.ops counter in
  if Store.replay_digest dir0 <> digest0 then
    fail ctx "ckpt-crash: counting run changed the replay digest";
  let passed = ref 0 in
  for k = 1 to m do
    let dir, digest_pre = setup () in
    (match
       let store = Store.open_ ~vfs:(Io_fault.vfs (Io_fault.arm { Io_fault.quiet with Io_fault.seed; crash_at = Some k })) ~retry:retry_fast dir in
       Fun.protect
         ~finally:(fun () -> Store.close store)
         (fun () -> ignore (Store.checkpoint store))
     with
    | () -> fail ctx "ckpt-crash: crash point %d/%d never fired" k m
    | exception Io_fault.Crash _ | exception Fun.Finally_raised (Io_fault.Crash _) ->
        if Store.replay_digest dir <> digest_pre then
          fail ctx "ckpt-crash: crash at boundary %d/%d changed the replay digest" k m
        else begin
          scrub ctx (Store.journal_file dir);
          let store = Store.open_ dir in
          ctx.orphans <- ctx.orphans + Store.orphans_swept store;
          if Store.digest store <> digest_pre then
            fail ctx "ckpt-crash: reopen after crash at %d/%d replays differently" k m
          else incr passed;
          Store.close store
        end)
  done;
  (m, !passed)

(* --- battery -------------------------------------------------------------- *)

let run ?(smoke = false) ?(seed = 42) () =
  let n = if smoke then 6 else 18 in
  let short_runs = if smoke then 2 else 6 in
  let transient_runs = if smoke then 1 else 3 in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stob-storechaos.%d" (Unix.getpid ()))
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)));
  Unix.mkdir root 0o755;
  let ctx = { root; dirs = 0; frames = 0; torn = 0; orphans = 0; fails = [] } in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () ->
      (* 1. crash enumeration over the synthetic sweep *)
      let sweep_boundaries, sweep_passed =
        enumerate ctx ~name:"synthetic" ~seed ~run_sweep:(fun ~vfs ~dir ->
            run_synthetic ~seed ~n ~vfs ~dir)
      in
      (* 1b. and over a real (quick Fig 3) sweep for the full battery *)
      let fig3_boundaries, fig3_passed =
        if not smoke then enumerate ctx ~name:"fig3" ~seed ~run_sweep:run_fig3 else (0, 0)
      in
      (* 2. short writes: seeded splits must leave journal bytes identical *)
      let ref_dir = fresh_dir ctx in
      let ref_res, _ = run_synthetic ~seed ~n ~vfs:Vfs.unix ~dir:ref_dir in
      let ref_bytes = read_file (Store.journal_file ref_dir) in
      let shorts = ref 0 in
      for s = 1 to short_runs do
        let fault =
          Io_fault.arm { Io_fault.quiet with Io_fault.seed = seed + s; short_writes = true }
        in
        let dir = fresh_dir ctx in
        let res, _ = run_synthetic ~seed ~n ~vfs:(Io_fault.vfs fault) ~dir in
        shorts := !shorts + Io_fault.injected fault;
        if res <> ref_res then fail ctx "short-writes: run %d computed different results" s;
        if read_file (Store.journal_file dir) <> ref_bytes then
          fail ctx "short-writes: run %d left different journal bytes" s
      done;
      if !shorts = 0 then fail ctx "short-writes: plane never split a write";
      (* 3. transient EIO bursts healed by the retry envelope *)
      let retried = ref 0 in
      for s = 1 to transient_runs do
        let fault =
          Io_fault.arm
            { Io_fault.quiet with Io_fault.seed = seed + s;
              transient = Some (Unix.EIO, 5, 2) }
        in
        let dir = fresh_dir ctx in
        match run_synthetic ~seed ~n ~vfs:(Io_fault.vfs fault) ~dir with
        | exception e ->
            fail ctx "transient: run %d did not heal: %s" s (Printexc.to_string e)
        | res, rep ->
            retried := !retried + rep.Store.retried;
            if res <> ref_res then fail ctx "transient: run %d computed different results" s;
            if read_file (Store.journal_file dir) <> ref_bytes then
              fail ctx "transient: run %d left different journal bytes" s
      done;
      if !retried = 0 then fail ctx "transient: retry envelope never engaged";
      (* 4. persistent ENOSPC: degrade, report, monitor edge, reconverge *)
      let enospc_degraded, enospc_dropped, degraded_edge_fired = enospc_phase ctx ~seed ~n in
      (* 5. compaction + replay-digest agreement + rename-failure class *)
      let compaction = compaction_phase ctx ~seed ~n in
      (* 6. crash enumeration inside the checkpoint *)
      let ckpt_boundaries, ckpt_passed = ckpt_crash_phase ctx ~seed ~n in
      if ctx.orphans = 0 then
        fail ctx "ckpt-crash: no crash point ever stranded an orphan tmp for the sweep to reclaim";
      { sweep_boundaries = sweep_boundaries + fig3_boundaries;
        sweep_crashes_passed = sweep_passed + fig3_passed;
        ckpt_boundaries;
        ckpt_crashes_passed = ckpt_passed;
        orphans_reclaimed = ctx.orphans;
        frames_scrubbed = ctx.frames;
        torn_tails_seen = ctx.torn;
        short_write_runs = short_runs;
        short_writes_injected = !shorts;
        transient_runs;
        transient_retried = !retried;
        enospc_degraded;
        enospc_dropped;
        degraded_edge_fired;
        compaction;
        failures = List.rev ctx.fails })

let print_report r =
  Printf.printf "  crash points     : %d/%d sweep, %d/%d checkpoint\n" r.sweep_crashes_passed
    r.sweep_boundaries r.ckpt_crashes_passed r.ckpt_boundaries;
  Printf.printf "  scrub            : %d frames walked, %d torn tails truncated-on-resume\n"
    r.frames_scrubbed r.torn_tails_seen;
  Printf.printf "  orphan tmp swept : %d\n" r.orphans_reclaimed;
  Printf.printf "  short writes     : %d splits over %d runs, journals byte-identical\n"
    r.short_writes_injected r.short_write_runs;
  Printf.printf "  transient EIO    : %d retries absorbed over %d runs\n" r.transient_retried
    r.transient_runs;
  Printf.printf "  persistent ENOSPC: degraded=%b dropped=%d monitor-edge=%b\n"
    r.enospc_degraded r.enospc_dropped r.degraded_edge_fired;
  (match r.compaction with
  | Some c ->
      Printf.printf "  compaction       : %d -> %d frames, %d -> %d bytes, replay digest agrees\n"
        c.Store.frames_before c.Store.frames_after c.Store.bytes_before c.Store.bytes_after
  | None -> Printf.printf "  compaction       : FAILED\n");
  List.iter (fun f -> Printf.printf "  FAIL: %s\n" f) r.failures
