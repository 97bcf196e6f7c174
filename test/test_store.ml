(* Tests for the crash-safe experiment store: journal framing and torn-tail
   recovery, digest stability, atomic file writes, supervisor
   cache/retry/poison semantics (also end to end on a journaled Fig 3
   sweep, torn mid-journal and resumed), jobs-invariant journal bytes, and the
   kill-and-resume integration test (a forked Table 2 sweep SIGKILLed
   mid-journal must resume bit-identically). *)

module Journal = Stob_store.Journal
module Store = Stob_store.Store
module Cell = Stob_store.Cell
module Atomic_file = Stob_store.Atomic_file
module Io_fault = Stob_store.Io_fault
module Monitor = Stob_check.Monitor
module Sv = Stob_store.Supervisor
module Pool = Stob_par.Pool
module Table2 = Stob_experiments.Table2
module Dataset = Stob_web.Dataset

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stob-test-store.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  Unix.mkdir dir 0o755;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* --- journal framing and recovery -------------------------------------- *)

let test_journal_roundtrip () =
  let path = Filename.concat (fresh_dir ()) "j.stob" in
  let j, rs = Journal.open_ path in
  Alcotest.(check (list string)) "fresh journal is empty" [] rs;
  Journal.append j "alpha";
  Journal.append j "";
  Journal.append j (String.make 10_000 'x');
  Journal.close j;
  let j, rs = Journal.open_ path in
  Alcotest.(check (list string)) "records replay in order"
    [ "alpha"; ""; String.make 10_000 'x' ]
    rs;
  Journal.close j

let test_journal_torn_tail () =
  let path = Filename.concat (fresh_dir ()) "j.stob" in
  let j, _ = Journal.open_ path in
  Journal.append j "alpha";
  Journal.append j "beta";
  Journal.close j;
  (* A torn tail: a frame header promising 16 payload bytes that never made
     it to disk. *)
  append_bytes path "\x00\x00\x00\x10\xde\xad\xbe\xef\x01\x02";
  let size_torn = (Unix.stat path).Unix.st_size in
  (* Read-only replay sees the valid prefix and leaves the file alone. *)
  Alcotest.(check (list string)) "read skips the torn tail" [ "alpha"; "beta" ]
    (Journal.read path);
  Alcotest.(check int) "read does not truncate" size_torn (Unix.stat path).Unix.st_size;
  (* Opening recovers: truncates the tear and appends after it. *)
  let j, rs = Journal.open_ path in
  Alcotest.(check (list string)) "open recovers the valid prefix" [ "alpha"; "beta" ] rs;
  Alcotest.(check bool) "torn tail was truncated" true
    ((Unix.stat path).Unix.st_size < size_torn);
  Journal.append j "gamma";
  Journal.close j;
  Alcotest.(check (list string)) "append lands after the cut" [ "alpha"; "beta"; "gamma" ]
    (Journal.read path)

let test_journal_crc () =
  let path = Filename.concat (fresh_dir ()) "j.stob" in
  let j, _ = Journal.open_ path in
  Journal.append j "alpha";
  Journal.append j "beta";
  Journal.close j;
  (* Flip one byte inside "beta"'s payload: its CRC disagrees, so recovery
     must stop after "alpha" — a half-lie is worse than a short journal. *)
  let bytes = Bytes.of_string (read_file path) in
  let beta_payload = String.length Journal.magic + 8 + String.length "alpha" + 8 in
  Bytes.set bytes beta_payload 'X';
  write_file path (Bytes.to_string bytes);
  Alcotest.(check (list string)) "corrupt record cuts the replay" [ "alpha" ]
    (Journal.read path)

let test_journal_bad_magic () =
  let path = Filename.concat (fresh_dir ()) "j.stob" in
  write_file path "this is no journal";
  (match Journal.open_ path with
  | exception Journal.Corrupt _ -> ()
  | j, _ ->
      Journal.close j;
      Alcotest.fail "expected Corrupt on bad magic");
  match Journal.read path with
  | exception Journal.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on bad magic (read)"

(* Recovery edge cases: files a crash can leave behind that are not the
   happy torn-mid-payload shape. *)
let test_journal_open_edges () =
  let dir = fresh_dir () in
  (* Zero-length file (crashed before the magic landed): recovered as a
     fresh journal. *)
  let p0 = Filename.concat dir "zero.stob" in
  write_file p0 "";
  let j, rs = Journal.open_ p0 in
  Alcotest.(check (list string)) "zero-length file replays empty" [] rs;
  Journal.append j "a";
  Journal.close j;
  Alcotest.(check (list string)) "and accepts appends" [ "a" ] (Journal.read p0);
  (* Magic-only file: a valid journal with no records, left exactly alone. *)
  let p1 = Filename.concat dir "magic.stob" in
  write_file p1 Journal.magic;
  let size1 = (Unix.stat p1).Unix.st_size in
  let j, rs = Journal.open_ p1 in
  Journal.close j;
  Alcotest.(check (list string)) "magic-only file replays empty" [] rs;
  Alcotest.(check int) "and is not rewritten" size1 (Unix.stat p1).Unix.st_size;
  (* A zero-length record is a valid frame, not a torn tail. *)
  let p2 = Filename.concat dir "empty-rec.stob" in
  let j, _ = Journal.open_ p2 in
  Journal.append j "";
  Journal.append j "after";
  Journal.close j;
  Alcotest.(check (list string)) "zero-length record replays" [ ""; "after" ] (Journal.read p2);
  (* Declared length past end-of-file: torn, truncated back to the valid
     prefix on open. *)
  let p3 = Filename.concat dir "pasteof.stob" in
  let j, _ = Journal.open_ p3 in
  Journal.append j "keep";
  Journal.close j;
  let keep_size = (Unix.stat p3).Unix.st_size in
  append_bytes p3 "\x00\x00\x01\x00\x00\x00\x00\x00only 12 here";
  let j, rs = Journal.open_ p3 in
  Journal.close j;
  Alcotest.(check (list string)) "length past EOF cuts the replay" [ "keep" ] rs;
  Alcotest.(check int) "and the tail is truncated" keep_size (Unix.stat p3).Unix.st_size

(* A CRC-valid frame sitting beyond a torn frame must STAY truncated: the
   journal never resynchronizes past damage, because the cut is the only
   point where "everything before this is the real prefix" holds. *)
let test_journal_no_resync_past_tear () =
  let dir = fresh_dir () in
  let base = Filename.concat dir "base.stob" in
  let j, _ = Journal.open_ base in
  Journal.append j "keep";
  Journal.close j;
  let keep_size = (Unix.stat base).Unix.st_size in
  let two = Filename.concat dir "two.stob" in
  let j, _ = Journal.open_ two in
  Journal.append j "keep";
  Journal.append j "later";
  Journal.close j;
  let both = read_file two in
  (* The byte-exact valid frame for "later", as append wrote it. *)
  let later_frame = String.sub both keep_size (String.length both - keep_size) in
  let p = Filename.concat dir "resync.stob" in
  (* keep | CRC-mismatched 2-byte frame | perfectly valid "later" frame *)
  write_file p (read_file base ^ "\x00\x00\x00\x02\xde\xad\xbe\xef" ^ "xy" ^ later_frame);
  Alcotest.(check (list string)) "replay stops at the damaged frame" [ "keep" ]
    (Journal.read p);
  let j, rs = Journal.open_ p in
  Alcotest.(check (list string)) "open recovers only the prefix" [ "keep" ] rs;
  Alcotest.(check int) "valid frame past the tear is gone" keep_size
    (Unix.stat p).Unix.st_size;
  Journal.append j "fresh";
  Journal.close j;
  Alcotest.(check (list string)) "appends land at the cut" [ "keep"; "fresh" ]
    (Journal.read p)

(* --- journal scrub ------------------------------------------------------ *)

let test_journal_verify () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "j.stob" in
  let s = Journal.verify path in
  Alcotest.(check bool) "missing file: exists=false" false s.Journal.exists;
  let j, _ = Journal.open_ path in
  Journal.append j "alpha";
  Journal.append j "beta";
  Journal.close j;
  let s = Journal.verify path in
  Alcotest.(check int) "clean: two frames" 2 s.Journal.scrub_frames;
  Alcotest.(check int) "clean: no torn bytes" 0 s.Journal.torn_bytes;
  Alcotest.(check int) "clean: valid = total" s.Journal.scrub_bytes s.Journal.valid_bytes;
  (* Torn write: extra bytes, no CRC lie. *)
  append_bytes path "\x00\x00\x00\x10\x01\x02\x03";
  let s = Journal.verify path in
  Alcotest.(check int) "torn: damage measured" 7 s.Journal.torn_bytes;
  Alcotest.(check bool) "torn: not a CRC mismatch" false s.Journal.crc_mismatch;
  Alcotest.(check int) "verify never truncates" s.Journal.scrub_bytes
    (Unix.stat path).Unix.st_size;
  (* In-place corruption: same length, flipped payload byte. *)
  let p2 = Filename.concat dir "flip.stob" in
  let j, _ = Journal.open_ p2 in
  Journal.append j "alpha";
  Journal.close j;
  let bytes = Bytes.of_string (read_file p2) in
  Bytes.set bytes (String.length Journal.magic + 8) 'X';
  write_file p2 (Bytes.to_string bytes);
  let s = Journal.verify p2 in
  Alcotest.(check bool) "flip: CRC mismatch flagged" true s.Journal.crc_mismatch;
  Alcotest.(check int) "flip: no frame survives" 0 s.Journal.scrub_frames

(* --- CRC-32 and the frame walker ----------------------------------------- *)

module Crc32 = Stob_store.Crc32

let test_crc_vectors () =
  let check what want s =
    Alcotest.(check int32) what want (Crc32.string s);
    (* The same bytes as a slice in the middle of a larger buffer. *)
    let b = Bytes.of_string ("<<" ^ s ^ ">>>") in
    Alcotest.(check int32) (what ^ " (slice)") want (Crc32.slice b ~pos:2 ~len:(String.length s))
  in
  check "empty" 0l "";
  check "check value" 0xCBF43926l "123456789";
  check "fox" 0x414FA339l "The quick brown fox jumps over the lazy dog";
  let b = Bytes.create 10 in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "slice pos %d len %d out of range" pos len)
        (Invalid_argument "Crc32.slice")
        (fun () -> ignore (Crc32.slice b ~pos ~len)))
    [ (-1, 2); (0, -1); (0, 11); (5, 6); (11, 0); (max_int, 1) ]

(* Random strings, every slice length 0..16 (so each tail length after the
   8-byte blocks occurs) plus one random slice, all against the seed
   bytewise CRC. *)
let prop_crc_oracle =
  QCheck.Test.make ~name:"sliced CRC equals the bytewise Int32 original" ~count:300
    QCheck.(triple (string_of_size Gen.(0 -- 600)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let bytes = Bytes.of_string s in
      let agrees pos len =
        Crc32.slice bytes ~pos ~len = Crc32_reference.string (String.sub s pos len)
      in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Crc32.string s = Crc32_reference.string s
      && agrees pos len
      && List.for_all (fun l -> pos + l > n || agrees pos l) (List.init 17 Fun.id))

let test_crc_allocation () =
  let mib = 1 lsl 20 in
  let s = String.init mib (fun i -> Char.chr ((i * 7919) land 0xff)) in
  let b = Bytes.of_string s in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let w_string = words (fun () -> Crc32.string s) in
  let w_slice = words (fun () -> Crc32.slice b ~pos:1 ~len:(mib - 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "Crc32.string over 1 MiB: %.0f minor words < 64" w_string)
    true (w_string < 64.);
  Alcotest.(check bool)
    (Printf.sprintf "Crc32.slice over 1 MiB: %.0f minor words < 64" w_slice)
    true (w_slice < 64.)

(* Walker property: a journal of random payloads (empty ones, and ones past
   4 KiB so the walk buffer must grow) takes one damage; [read], the
   payloads [iter] lends, [verify] and [open_] must all agree with the
   undamaged prefix worked out from the frame offsets. *)
let gen_payload =
  QCheck.Gen.(
    map2
      (fun len seed -> String.init len (fun j -> Char.chr ((seed + (j * 31)) land 0xff)))
      (frequency [ (1, return 0); (4, int_range 1 200); (2, int_range 4097 9000) ])
      (int_bound 255))

let gen_damage = QCheck.Gen.(quad (int_bound 3) nat nat (int_range 1 7))

let arbitrary_walk =
  QCheck.make
    ~print:(fun (ps, (kind, a, b, g)) ->
      Printf.sprintf "payload lengths [%s], damage (%d, %d, %d, %d)"
        (String.concat "; " (List.map (fun p -> string_of_int (String.length p)) ps))
        kind a b g)
    QCheck.Gen.(pair (list_size (int_bound 8) gen_payload) gen_damage)

let prop_walker_agrees =
  let dir = lazy (fresh_dir ()) in
  let case = ref 0 in
  QCheck.Test.make ~name:"read, iter, verify and open_ agree on one damaged journal" ~count:200
    arbitrary_walk (fun (payloads, (kind, a, b, g)) ->
      incr case;
      let path = Filename.concat (Lazy.force dir) (Printf.sprintf "w%03d.stob" !case) in
      let j, _ = Journal.open_ path in
      List.iter (Journal.append j) payloads;
      Journal.close j;
      let ml = String.length Journal.magic in
      let lens = Array.of_list (List.map String.length payloads) in
      let n = Array.length lens in
      (* offsets.(k): where frame k starts; offsets.(n): the clean size. *)
      let offsets = Array.make (n + 1) ml in
      Array.iteri (fun k len -> offsets.(k + 1) <- offsets.(k) + 8 + len) lens;
      let size = offsets.(n) in
      let with_payload = List.filter (fun k -> lens.(k) > 0) (List.init n Fun.id) in
      let flip at =
        let bytes = Bytes.of_string (read_file path) in
        Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0x5a));
        write_file path (Bytes.to_string bytes)
      in
      (* Damage the file; expect (frames kept, valid bytes, CRC mismatch). *)
      let kept, valid, mismatch =
        match kind with
        | 1 when n > 0 ->
            let k = a mod n in
            flip (offsets.(k) + 4 + (b mod 4));
            (k, offsets.(k), true)
        | 2 when with_payload <> [] ->
            let k = List.nth with_payload (a mod List.length with_payload) in
            flip (offsets.(k) + 8 + (b mod lens.(k)));
            (k, offsets.(k), true)
        | 3 ->
            append_bytes path (String.make g '\x07');
            (n, size, false)
        | _ ->
            let t = a mod (size + 1) in
            Unix.truncate path t;
            if t < ml then (0, 0, false)
            else
              let k = ref 0 in
              while !k < n && offsets.(!k + 1) <= t do
                incr k
              done;
              (!k, offsets.(!k), false)
      in
      let want = List.filteri (fun i _ -> i < kept) payloads in
      let damaged_size = (Unix.stat path).Unix.st_size in
      let read = Journal.read path in
      let lent = ref [] in
      Journal.iter path (fun buf len -> lent := Bytes.sub_string buf 0 len :: !lent);
      let s = Journal.verify path in
      let j, replayed = Journal.open_ path in
      Journal.close j;
      read = want
      && List.rev !lent = want
      && s.Journal.exists
      && s.Journal.scrub_frames = kept
      && s.Journal.valid_bytes = valid
      && s.Journal.scrub_bytes = damaged_size
      && s.Journal.torn_bytes = damaged_size - valid
      && s.Journal.crc_mismatch = mismatch
      && replayed = want
      && (Unix.stat path).Unix.st_size = (if valid = 0 then ml else valid))

(* --- fault plane: short writes, retries, crash, degradation ------------- *)

let no_backoff attempts = { Journal.attempts; backoff_s = 0. }

let test_short_writes_identical () =
  let dir = fresh_dir () in
  let payloads = [ "alpha"; ""; String.make 5_000 'x'; "tail" ] in
  let write_with vfs path =
    let j, _ = Journal.open_ ?vfs path in
    List.iter (Journal.append j) payloads;
    Journal.close j;
    read_file path
  in
  let clean = write_with None (Filename.concat dir "clean.stob") in
  let fault =
    Io_fault.arm { Io_fault.quiet with Io_fault.seed = 11; short_writes = true }
  in
  let short = write_with (Some (Io_fault.vfs fault)) (Filename.concat dir "short.stob") in
  Alcotest.(check bool) "splits were injected" true (Io_fault.injected fault > 0);
  Alcotest.(check bool) "journal bytes identical under short writes" true (clean = short)

let test_transient_retry () =
  let path = Filename.concat (fresh_dir ()) "j.stob" in
  let fault =
    Io_fault.arm
      { Io_fault.quiet with Io_fault.seed = 3; transient = Some (Unix.EIO, 3, 2) }
  in
  let j, _ = Journal.open_ ~vfs:(Io_fault.vfs fault) ~retry:(no_backoff 4) path in
  let payloads = List.init 5 (Printf.sprintf "record-%d") in
  List.iter (Journal.append j) payloads;
  Alcotest.(check bool) "bursts were absorbed by retries" true (Journal.retried j >= 2);
  Journal.close j;
  Alcotest.(check (list string)) "journal heals invisibly" payloads (Journal.read path)

let test_retry_exhaustion () =
  let path = Filename.concat (fresh_dir ()) "j.stob" in
  let j, _ = Journal.open_ path in
  Journal.append j "durable";
  Journal.close j;
  (* Reopen on a plane where every write fails and the budget is one
     attempt: the raw error must surface, not hang in backoff. *)
  let fault =
    Io_fault.arm { Io_fault.quiet with Io_fault.fail_from = Some (Unix.EIO, 1) }
  in
  let j, rs = Journal.open_ ~vfs:(Io_fault.vfs fault) ~retry:Journal.no_retry path in
  Alcotest.(check (list string)) "replay unaffected (reads are not faulted)" [ "durable" ] rs;
  (match Journal.append j "lost" with
  | exception Unix.Unix_error (Unix.EIO, _, _) -> ()
  | () -> Alcotest.fail "expected EIO past the retry budget");
  Journal.close j

let test_crash_semantics () =
  let path = Filename.concat (fresh_dir ()) "j.stob" in
  let fault = Io_fault.arm { Io_fault.quiet with Io_fault.seed = 5; crash_at = Some 6 } in
  (* Open is boundaries 1-3 (open, magic, flush); the crash lands inside a
     later append.  A generous retry budget must NOT absorb it: Crash is
     death, not a transient error. *)
  let j, _ = Journal.open_ ~vfs:(Io_fault.vfs fault) ~retry:(no_backoff 10) path in
  (match
     Journal.append j "aa";
     Journal.append j "bb";
     Journal.append j "cc"
   with
  | exception Io_fault.Crash _ -> ()
  | () -> Alcotest.fail "expected the plane to crash");
  Alcotest.(check bool) "plane reports death" true (Io_fault.crashed fault);
  (match Journal.append j "dd" with
  | exception Io_fault.Crash _ -> ()
  | () -> Alcotest.fail "a dead plane must stay dead");
  (* close is the one post-death no-op, so Fun.protect finalizers unwind
     without masking the crash. *)
  Journal.close j;
  let j, rs = Journal.open_ path in
  Journal.close j;
  let expect = [ "aa"; "bb"; "cc" ] in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
    | _ :: _, [] -> false
  in
  Alcotest.(check bool) "recovery yields a clean prefix of the appends" true
    (is_prefix rs expect)

let test_store_degradation () =
  let dir = fresh_dir () in
  (* Manifest journals at boundaries 4-5; every write/flush from 8 on hits
     ENOSPC, so exactly one cell record lands before journaling degrades. *)
  let fault =
    Io_fault.arm { Io_fault.quiet with Io_fault.fail_from = Some (Unix.ENOSPC, 8) }
  in
  let engine = Stob_sim.Engine.create () in
  let monitor = Monitor.create engine in
  let store = Store.open_ ~vfs:(Io_fault.vfs fault) ~retry:(no_backoff 2) dir in
  Monitor.watch_store monitor ~name:"test" store;
  Monitor.check_now monitor ~now:0.0;
  Alcotest.(check bool) "no edge while healthy" true
    (List.assoc_opt "store-durability-degraded" (Monitor.counts monitor) = None
    || List.assoc_opt "store-durability-degraded" (Monitor.counts monitor) = Some 0);
  Store.set_manifest store ~experiment:"degr" ~fields:[ ("seed", "1") ] ~total:4;
  for i = 0 to 3 do
    (* record must never raise: completion over durability. *)
    Store.record store
      ~key:(Printf.sprintf "k%d" i)
      ~label:(Printf.sprintf "c%d" i)
      (Store.Done (Printf.sprintf "v%d" i))
  done;
  Alcotest.(check bool) "store degraded" true (Store.degraded store <> None);
  let rep = Store.report store in
  Alcotest.(check int) "one cell was journaled" 2 rep.Store.journal_frames;
  Alcotest.(check int) "the rest were dropped" 3 rep.Store.dropped;
  Alcotest.(check int) "in-memory index kept everything" 4 (List.length (Store.entries store));
  (match Store.find store "k3" with
  | Some (Store.Done "v3") -> ()
  | _ -> Alcotest.fail "dropped record must still resolve in memory");
  (* Edge-triggered: two checks, one violation. *)
  Monitor.check_now monitor ~now:1.0;
  Monitor.check_now monitor ~now:2.0;
  Alcotest.(check (option int)) "degraded edge fired exactly once" (Some 1)
    (List.assoc_opt "store-durability-degraded" (Monitor.counts monitor));
  (* Nothing durable to compact on a degraded store. *)
  (match Store.checkpoint store with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "checkpoint must refuse a degraded store");
  Store.close store;
  (* The on-disk journal stayed a valid replayable prefix: a clean resume
     sees the manifest and the one durable cell. *)
  let store = Store.open_ dir in
  Alcotest.(check bool) "reopen is healthy" true (Store.degraded store = None);
  Alcotest.(check int) "durable prefix replayed" 1 (List.length (Store.entries store));
  Store.close store

let test_orphan_sweep () =
  let dir = fresh_dir () in
  write_file (Filename.concat dir "journal.stob.tmp.12.3") "stranded";
  write_file (Filename.concat dir "out.json.tmp.4.5") "stranded";
  write_file (Filename.concat dir "keep.txt") "keep";
  let store = Store.open_ dir in
  Alcotest.(check int) "two orphans swept" 2 (Store.orphans_swept store);
  Alcotest.(check int) "report agrees" 2 (Store.report store).Store.r_orphans_swept;
  Store.close store;
  Alcotest.(check (list string)) "tmps gone, the rest intact"
    [ "journal.stob"; "keep.txt" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* --- checkpoint / compaction -------------------------------------------- *)

let test_checkpoint_digest_agreement () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  Store.set_manifest store ~experiment:"ckpt" ~fields:[ ("seed", "1") ] ~total:6;
  for i = 0 to 5 do
    Store.record store
      ~key:(Printf.sprintf "k%d" i)
      ~label:(Printf.sprintf "c%d" i)
      (Store.Done (Printf.sprintf "v%d" i))
  done;
  (* Supersede half the keys: replay keeps the latest record per key. *)
  List.iter
    (fun i ->
      Store.record store
        ~key:(Printf.sprintf "k%d" i)
        ~label:(Printf.sprintf "c%d" i)
        (Store.Done (Printf.sprintf "v%d!" i)))
    [ 0; 2; 4 ];
  let rep = Store.report store in
  Alcotest.(check int) "stale frames counted" 3 rep.Store.stale_frames;
  let digest_pre = Store.digest store in
  Alcotest.(check bool) "below-threshold journal is left alone" true
    (Store.maybe_checkpoint ~threshold_bytes:max_int store = None);
  let c = Store.checkpoint store in
  Alcotest.(check int) "superseded frames dropped" (c.Store.frames_before - 3)
    c.Store.frames_after;
  Alcotest.(check bool) "journal shrank" true (c.Store.bytes_after < c.Store.bytes_before);
  Alcotest.(check string) "in-memory digest unchanged" digest_pre (Store.digest store);
  Alcotest.(check string) "on-disk replay agrees" digest_pre (Store.replay_digest dir);
  (* Nothing stale anymore: the auto gate refuses even at threshold 1. *)
  Alcotest.(check bool) "nothing-stale journal is left alone" true
    (Store.maybe_checkpoint ~threshold_bytes:1 store = None);
  Store.close store;
  (* A resume replays the compacted journal to the superseded values. *)
  let store = Store.open_ dir in
  (match Store.find store "k0" with
  | Some (Store.Done "v0!") -> ()
  | _ -> Alcotest.fail "latest record must win after compaction");
  (match Store.find store "k1" with
  | Some (Store.Done "v1") -> ()
  | _ -> Alcotest.fail "un-superseded record must survive compaction");
  Alcotest.(check string) "digest stable across reopen" digest_pre (Store.digest store);
  Store.close store

(* --- cell digests ------------------------------------------------------- *)

let test_digest_stability () =
  let d1 =
    Cell.digest ~experiment:"e" ~config:[ ("alpha", "4"); ("beta", "x") ] ~seed:42
  in
  let d2 =
    Cell.digest ~experiment:"e" ~config:[ ("beta", "x"); ("alpha", "4") ] ~seed:42
  in
  Alcotest.(check string) "field order is canonicalized away" d1 d2;
  let differs what d' = Alcotest.(check bool) what true (d' <> d1) in
  differs "value changes the digest"
    (Cell.digest ~experiment:"e" ~config:[ ("alpha", "5"); ("beta", "x") ] ~seed:42);
  differs "seed changes the digest"
    (Cell.digest ~experiment:"e" ~config:[ ("alpha", "4"); ("beta", "x") ] ~seed:43);
  differs "experiment changes the digest"
    (Cell.digest ~experiment:"f" ~config:[ ("alpha", "4"); ("beta", "x") ] ~seed:42);
  (* Length-prefixed canonicalization: these two configs would collide under
     naive string concatenation. *)
  Alcotest.(check bool) "no concatenation ambiguity" true
    (Cell.digest ~experiment:"e" ~config:[ ("a", "bc") ] ~seed:0
    <> Cell.digest ~experiment:"e" ~config:[ ("ab", "c") ] ~seed:0);
  match Cell.digest ~experiment:"e" ~config:[ ("a", "1"); ("a", "2") ] ~seed:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate config field must be rejected"

(* --- atomic file writes ------------------------------------------------- *)

let test_atomic_file () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "out.txt" in
  Atomic_file.write path "hello";
  Alcotest.(check string) "contents round-trip" "hello" (read_file path);
  Atomic_file.write path "replaced";
  Alcotest.(check string) "overwrite replaces atomically" "replaced" (read_file path);
  (* A writer that dies mid-emit must leave the previous contents intact
     and no temp litter behind. *)
  (match Atomic_file.write_lines path (fun b ->
       Buffer.add_string b "partial";
       failwith "boom")
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected the emit exception to propagate");
  Alcotest.(check string) "failed write leaves the old contents" "replaced" (read_file path);
  Alcotest.(check (list string)) "no temp files left" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir))

(* --- supervisor: cache, retries, poisoning ------------------------------ *)

let encode v = Marshal.to_string (v : int) []
let decode s : int = Marshal.from_string s 0

let int_cell ?(seed = 7) label v =
  { Sv.label; config = [ ("which", label) ]; seed; run = (fun ~attempt:_ -> v) }

let run_cells ?pool ?retries ?inject ?store cells =
  Sv.run ?pool ?retries ?inject ?store ~experiment:"test" ~encode ~decode cells

let test_supervisor_cache () =
  let dir = fresh_dir () in
  let computed = ref 0 in
  let cells =
    List.map
      (fun i ->
        {
          Sv.label = Printf.sprintf "c%d" i;
          config = [ ("i", string_of_int i) ];
          seed = 7;
          run =
            (fun ~attempt:_ ->
              incr computed;
              i * i);
        })
      [ 0; 1; 2; 3 ]
  in
  let store = Store.open_ dir in
  let out = run_cells ~store cells in
  Store.close store;
  Alcotest.(check (list int)) "fresh run computes" [ 0; 1; 4; 9 ]
    (List.map (fun (o : _ Sv.outcome) -> Result.get_ok o.Sv.result) out);
  Alcotest.(check int) "every cell ran" 4 !computed;
  Alcotest.(check bool) "nothing cached on the fresh run" true
    (List.for_all (fun (o : _ Sv.outcome) -> not o.Sv.cached) out);
  let store = Store.open_ dir in
  let out = run_cells ~store cells in
  Store.close store;
  Alcotest.(check (list int)) "cached run returns the same results" [ 0; 1; 4; 9 ]
    (List.map (fun (o : _ Sv.outcome) -> Result.get_ok o.Sv.result) out);
  Alcotest.(check int) "no cell re-ran" 4 !computed;
  let r = Sv.report out in
  Alcotest.(check int) "all served from cache" 4 r.Sv.cached

let test_supervisor_poison_and_retry () =
  let dir = fresh_dir () in
  let attempts = ref [] in
  let flaky threshold =
    {
      Sv.label = "flaky";
      config = [ ("which", "flaky") ];
      seed = 7;
      run =
        (fun ~attempt ->
          attempts := attempt :: !attempts;
          if attempt < threshold then failwith "transient" else 42);
    }
  in
  (* No retries: the cell poisons, the sweep still completes and the
     failure is journaled. *)
  let store = Store.open_ dir in
  let out = run_cells ~store [ int_cell "ok" 1; flaky 10 ] in
  Store.close store;
  (match List.map (fun (o : _ Sv.outcome) -> o.Sv.result) out with
  | [ Ok 1; Error msg ] ->
      Alcotest.(check bool) "poison message carries the exception" true
        (contains ~sub:"transient" msg)
  | _ -> Alcotest.fail "expected [Ok 1; Error _]");
  let r = Sv.report out in
  Alcotest.(check int) "one poisoned" 1 (List.length r.Sv.poisoned);
  (* Resume: the poisoned record replays from the journal — deterministic
     failures stay failed rather than burning compute again. *)
  let before = List.length !attempts in
  let store = Store.open_ dir in
  let out = run_cells ~store [ int_cell "ok" 1; flaky 10 ] in
  Store.close store;
  Alcotest.(check int) "poisoned cell is not retried on resume" before (List.length !attempts);
  Alcotest.(check bool) "poisoned outcome is cached" true
    (List.for_all (fun (o : _ Sv.outcome) -> o.Sv.cached) out);
  (* Retries: a fault that clears on the second attempt heals, and the
     attempt indices are the deterministic 0, 1 sequence. *)
  attempts := [];
  let out = run_cells ~retries:3 [ flaky 1 ] in
  (match out with
  | [ { Sv.result = Ok 42; attempts = 2; cached = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected a healed cell after one retry");
  Alcotest.(check (list int)) "attempt tags are 0 then 1" [ 0; 1 ] (List.rev !attempts);
  Alcotest.(check int) "report counts the retried cell" 1 (Sv.report out).Sv.retried

let test_supervisor_inject_and_duplicates () =
  (* The chaos hook: inject runs before each attempt and can fault it. *)
  let out =
    run_cells ~retries:1
      ~inject:(fun ~label ~attempt ->
        if label = "b" && attempt = 0 then failwith "injected")
      [ int_cell "a" 1; int_cell "b" 2 ]
  in
  (match List.map (fun (o : _ Sv.outcome) -> (o.Sv.result, o.Sv.attempts)) out with
  | [ (Ok 1, 1); (Ok 2, 2) ] -> ()
  | _ -> Alcotest.fail "expected b to heal on its second attempt");
  match run_cells [ int_cell "same" 1; int_cell "same" 2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "two cells sharing a digest must be rejected"

let test_manifest_guard () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  Store.set_manifest store ~experiment:"table2" ~fields:[ ("seed", "1") ] ~total:4;
  (* Idempotent when equal (field order canonicalized)... *)
  Store.set_manifest store ~experiment:"table2" ~fields:[ ("seed", "1") ] ~total:4;
  (* ...refused when different: one state dir, one sweep. *)
  (match Store.set_manifest store ~experiment:"fig3" ~fields:[] ~total:2 with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected a manifest mismatch to be refused");
  (* Same experiment and total, one field changed (a corpus fingerprint
     computed another way): the refusal names the field. *)
  (match
     Store.set_manifest store ~experiment:"table2"
       ~fields:[ ("seed", "1"); ("dataset", "0123") ]
       ~total:4
   with
  | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "message names the field: %s" msg) true
        (Re.execp (Re.compile (Re.str "differs: dataset")) msg)
  | () -> Alcotest.fail "expected a changed dataset field to be refused");
  Store.close store;
  let store = Store.open_ dir in
  (match Store.manifest store with
  | Some m ->
      Alcotest.(check string) "manifest survives reopen" "table2" m.Store.experiment;
      Alcotest.(check int) "total survives reopen" 4 m.Store.total
  | None -> Alcotest.fail "manifest lost on reopen");
  Store.close store

(* --- the journaled Fig 3 sweep end to end --------------------------------- *)

module Fig3 = Stob_experiments.Fig3

let fig3_config alphas =
  { Fig3.default_config with Fig3.alphas; warmup = 0.02; measure = 0.04 }

let run_fig3 ?pool ?retries ?inject ?store ?(alphas = [ 0; 12; 24; 36 ]) () =
  let config = fig3_config alphas in
  let report = ref None in
  let points =
    Fig3.run ~config ?pool ?retries ?inject ?store ~on_report:(fun r -> report := Some r) ()
  in
  (points, Option.get !report)

let fig3_reference = lazy (fst (run_fig3 ()))

let with_store dir f =
  let store = Store.open_ dir in
  Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f store)

(* End offset of every complete frame in a journal image, in order. *)
let frame_ends bytes =
  let n = String.length bytes in
  let rec go off acc =
    if off + 8 > n then List.rev acc
    else
      let next = off + 8 + Int32.to_int (String.get_int32_be bytes off) in
      if next > n then List.rev acc else go next (next :: acc)
  in
  go (String.length Journal.magic) []

let test_fig3_resume () =
  let reference = Lazy.force fig3_reference in
  let dir = fresh_dir () in
  let cold, rep = with_store dir (fun store -> run_fig3 ~store ()) in
  Alcotest.(check bool) "journaled run matches plain run" true (cold = reference);
  Alcotest.(check bool) "cold run computes every cell" true
    (rep.Sv.cached = 0 && rep.Sv.computed = rep.Sv.total);
  let warm, rep = with_store dir (fun store -> run_fig3 ~store ()) in
  Alcotest.(check bool) "warm rerun matches" true (warm = reference);
  Alcotest.(check bool) "warm rerun is fully cached" true (rep.Sv.cached = rep.Sv.total);
  (* Cut a copy of the journal after the manifest and the first cell, add
     half a frame header as a torn tail, and resume on one and on four
     domains: both must recover the tear, reuse the surviving cell and
     produce bit-identical points. *)
  let journal = read_file (Store.journal_file dir) in
  let ends = frame_ends journal in
  Alcotest.(check int) "one frame per cell + manifest" (rep.Sv.total + 1) (List.length ends);
  let keep = List.nth ends 1 in
  List.iter
    (fun jobs ->
      let dir' = fresh_dir () in
      write_file (Store.journal_file dir') (String.sub journal 0 keep ^ String.sub journal keep 5);
      let resumed, rep =
        with_store dir' (fun store ->
            if jobs = 1 then run_fig3 ~store ()
            else Pool.with_pool ~domains:jobs (fun pool -> run_fig3 ~pool ~store ()))
      in
      Alcotest.(check bool)
        (Printf.sprintf "torn resume matches (--jobs %d)" jobs)
        true (resumed = reference);
      Alcotest.(check bool)
        (Printf.sprintf "torn resume reuses the journal (--jobs %d)" jobs)
        true
        (rep.Sv.cached >= 1 && rep.Sv.computed = rep.Sv.total - rep.Sv.cached))
    [ 1; 4 ]

(* An always-raising cell is poisoned, and the sweep still completes with
   that one series rendered nan and every other value the reference's to
   the bit; a first-attempt-only fault heals under one retry. *)
let test_fig3_poison_and_heal () =
  let reference = Lazy.force fig3_reference in
  let inject ~label ~attempt =
    if label = "fig3/alpha=24/tso" && attempt = 0 then failwith "injected fault"
  in
  let poisoned, rep = run_fig3 ~inject () in
  Alcotest.(check int) "poisoned sweep completes" (List.length reference) (List.length poisoned);
  List.iter2
    (fun (p : Fig3.point) (r : Fig3.point) ->
      List.iter
        (fun (series, v, expected) ->
          let what = Printf.sprintf "alpha=%d %s" p.Fig3.alpha series in
          if p.Fig3.alpha = 24 && series = "tso" then
            Alcotest.(check bool) (what ^ " is nan") true (Float.is_nan v)
          else
            Alcotest.(check int64) (what ^ " bitwise") (Int64.bits_of_float expected)
              (Int64.bits_of_float v))
        [ ("baseline", p.Fig3.baseline_gbps, r.Fig3.baseline_gbps);
          ("packet", p.Fig3.packet_gbps, r.Fig3.packet_gbps);
          ("tso", p.Fig3.tso_gbps, r.Fig3.tso_gbps);
          ("combined", p.Fig3.combined_gbps, r.Fig3.combined_gbps) ])
    poisoned reference;
  Alcotest.(check (list (pair string string)))
    "poisoned cell reported"
    [ ("fig3/alpha=24/tso", "Failure(\"injected fault\")") ]
    rep.Sv.poisoned;
  let healed, rep = run_fig3 ~inject ~retries:1 () in
  Alcotest.(check bool) "one retry heals a transient fault" true
    (healed = reference && rep.Sv.retried = 1 && rep.Sv.poisoned = [])

(* One cell per simulation: the journal of alphas {0,12,24,36} holds the
   manifest plus ten cell frames (the baseline, then three series per
   nonzero alpha), byte for byte the same at 1 and 3 domains. *)
let test_fig3_cell_layout () =
  let journal_at jobs =
    let dir = fresh_dir () in
    let _, rep =
      with_store dir (fun store ->
          if jobs = 1 then run_fig3 ~store ()
          else Pool.with_pool ~domains:jobs (fun pool -> run_fig3 ~pool ~store ()))
    in
    Alcotest.(check int) (Printf.sprintf "ten cells (--jobs %d)" jobs) 10 rep.Sv.total;
    (read_file (Store.journal_file dir), List.map (fun (_, label, _) -> label) (snd (Store.peek dir)))
  in
  let journal, labels = journal_at 1 in
  Alcotest.(check int) "manifest + ten cell frames" 11 (List.length (frame_ends journal));
  Alcotest.(check (list string))
    "one cell per simulation, in sweep order"
    ("fig3/baseline"
    :: List.concat_map
         (fun a ->
           List.map (Printf.sprintf "fig3/alpha=%d/%s" a) [ "packet"; "tso"; "combined" ])
         [ 12; 24; 36 ])
    labels;
  Alcotest.(check bool) "journal bytes identical at 1 and 3 domains" true
    (journal = fst (journal_at 3))

(* A state dir written when Fig 3 had one cell per alpha, holding its
   three series in one record beside a bits/s baseline record. *)
type old_fig3_result =
  | Baseline of float
  | Point of { packet : float; tso : float; combined : float }

let old_fig3_state_dir alphas records =
  let config = fig3_config alphas in
  let shared =
    [ ("link_gbps", Printf.sprintf "%.17g" config.Fig3.link_gbps);
      ("rtt", Printf.sprintf "%.17g" config.Fig3.rtt);
      ("warmup", Printf.sprintf "%.17g" config.Fig3.warmup);
      ("measure", Printf.sprintf "%.17g" config.Fig3.measure);
      ("cc", config.Fig3.cc_name) ]
  in
  let dir = fresh_dir () in
  with_store dir (fun store ->
      Store.set_manifest store ~experiment:"fig3"
        ~fields:(("alphas", String.concat "," (List.map string_of_int alphas)) :: shared)
        ~total:(List.length records);
      List.iter
        (fun (point, label, result) ->
          Store.record store
            ~key:(Cell.digest ~experiment:"fig3" ~config:(("point", point) :: shared) ~seed:0)
            ~label
            (Store.Done (Marshal.to_string result [])))
        records);
  dir

(* At alphas = {0} the old manifest equals today's (one cell either way),
   so the guard lets it through: the old baseline record must be
   recomputed, never decoded as a float.  Any other alpha set is refused by
   the guard (4 cells then, 10 now). *)
let test_fig3_old_state_dir () =
  let reference = Lazy.force fig3_reference in
  let baseline = (List.hd reference).Fig3.baseline_gbps in
  let dir =
    old_fig3_state_dir [ 0 ] [ ("baseline", "fig3/baseline", Baseline (baseline *. 1e9)) ]
  in
  let points, rep = with_store dir (fun store -> run_fig3 ~alphas:[ 0 ] ~store ()) in
  Alcotest.(check int) "old baseline record recomputed, not cached" 0 rep.Sv.cached;
  Alcotest.(check int64) "recomputed baseline equals the reference"
    (Int64.bits_of_float baseline)
    (Int64.bits_of_float (List.hd points).Fig3.baseline_gbps);
  let dir =
    old_fig3_state_dir [ 0; 12; 24; 36 ]
      (("baseline", "fig3/baseline", Baseline (baseline *. 1e9))
      :: List.map
           (fun a ->
             ( string_of_int a,
               Printf.sprintf "fig3/alpha=%d" a,
               Point { packet = 1.0; tso = 1.0; combined = 1.0 } ))
           [ 12; 24; 36 ])
  in
  match with_store dir (fun store -> run_fig3 ~store ()) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a four-cell Fig 3 state dir must be refused by the manifest guard"

(* --- jobs-invariant completion order ------------------------------------ *)

(* Later-indexed tasks finish first (reverse sleeps), yet on_done must fire
   in strictly increasing index order with identical results — that is what
   makes the journal bytes jobs-invariant. *)
let test_on_done_order () =
  let n = 12 in
  let input = Array.init n Fun.id in
  let f i =
    Unix.sleepf (0.001 *. float_of_int (n - i));
    i * 10
  in
  List.iter
    (fun domains ->
      let order = ref [] in
      let mu = Mutex.create () in
      let on_done i r = Mutex.protect mu (fun () -> order := (i, r) :: !order) in
      let results =
        if domains = 1 then Pool.map ~on_done Pool.sequential f input
        else Pool.with_pool ~domains (fun pool -> Pool.map ~on_done pool f input)
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "callbacks in index order at %d domain(s)" domains)
        (List.init n (fun i -> (i, i * 10)))
        (List.rev !order);
      Alcotest.(check bool)
        (Printf.sprintf "results correct at %d domain(s)" domains)
        true
        (results = Array.init n (fun i -> i * 10)))
    [ 1; 4 ]

let test_journal_bytes_jobs_invariant () =
  let cells =
    List.init 9 (fun i ->
        {
          Sv.label = Printf.sprintf "cell%d" i;
          config = [ ("i", string_of_int i) ];
          seed = 3;
          run =
            (fun ~attempt:_ ->
              (* Reverse-staggered finish times to stress the ordering. *)
              Unix.sleepf (0.002 *. float_of_int (9 - i));
              i * 7);
        })
  in
  let journal_of ~pool =
    let dir = fresh_dir () in
    let store = Store.open_ dir in
    ignore (run_cells ?pool ~store cells);
    Store.close store;
    read_file (Store.journal_file dir)
  in
  let seq = journal_of ~pool:None in
  let par = Pool.with_pool ~domains:4 (fun pool -> journal_of ~pool:(Some pool)) in
  Alcotest.(check bool) "journal bytes identical at --jobs 1 and --jobs 4" true (seq = par)

(* --- kill-and-resume integration ---------------------------------------- *)

(* The victim sweep: a small journaled Table 2 run, reconstructed
   identically by the parent test and the sacrificial child process. *)
let kr_dataset () =
  let profiles =
    [
      Stob_web.Sites.find "bing.com";
      Stob_web.Sites.find "youtube.com";
      Stob_web.Sites.find "whatsapp.net";
    ]
  in
  Dataset.generate ~samples_per_site:6 ~seed:5 ~profiles ()

let kr_config =
  { Table2.default_config with samples_per_site = 6; folds = 2; forest_trees = 8; quiet = true }

(* Entry point for the sacrificial child (dispatched from test_main before
   alcotest takes over): journal the sweep into [dir], slowed a little per
   cell so the parent reliably catches it mid-run, and wait to be killed. *)
let child_main dir =
  (try
     let store = Store.open_ dir in
     ignore
       (Table2.run_on ~config:kr_config ~store
          ~inject:(fun ~label:_ ~attempt:_ -> Unix.sleepf 0.05)
          (kr_dataset ()))
   with _ -> ());
  exit 0

(* A child process runs a journaled Table 2 sweep and is SIGKILLed as soon
   as the journal shows two finished cells; the parent resumes the sweep —
   sequentially and on four domains — and must reproduce the uninterrupted
   result bit-for-bit while reusing the dead child's journal.  The child is
   a re-exec of this test binary in [child_main] mode: [Unix.fork] is off
   the table once earlier suites have spawned pool domains, while
   [create_process] spawns without forking the runtime. *)
let test_kill_and_resume () =
  let dataset = kr_dataset () in
  let config = kr_config in
  let reference = Table2.run_on ~config dataset in
  let dir = fresh_dir () in
  let journal = Store.journal_file dir in
  flush stdout;
  flush stderr;
  let child =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--store-child"; dir |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let kill_and_reap () =
    Unix.kill child Sys.sigkill;
    ignore (Unix.waitpid [] child)
  in
  (* Poll read-only (never truncates the child's in-flight tail) until the
     manifest plus two cell records are durable, then kill. *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    if Unix.gettimeofday () > deadline then (
      kill_and_reap ();
      Alcotest.fail "child sweep never journaled two cells")
    else if List.length (try Journal.read journal with Sys_error _ -> []) < 3 then (
      Unix.sleepf 0.005;
      wait ())
  in
  wait ();
  kill_and_reap ();
  let killed_journal = read_file journal in
  let killed_records = List.length (Journal.read journal) in
  Alcotest.(check bool) "child was killed mid-sweep" true (killed_records < 17);
      (* Resume twice from copies of the dead child's state — sequentially
         and on four domains — so both resumes start from the same crash. *)
      List.iter
        (fun domains ->
          let dir' = fresh_dir () in
          write_file (Store.journal_file dir') killed_journal;
          let store = Store.open_ dir' in
          let report = ref None in
          let resumed =
            let run pool =
              Table2.run_on ~config ?pool ~store
                ~on_report:(fun r -> report := Some r)
                dataset
            in
            if domains = 1 then run None
            else Pool.with_pool ~domains (fun pool -> run (Some pool))
          in
          Store.close store;
          Alcotest.(check bool)
            (Printf.sprintf "resumed result bit-identical (--jobs %d)" domains)
            true (resumed = reference);
          let r = Option.get !report in
          Alcotest.(check int)
            (Printf.sprintf "every journaled cell was reused (--jobs %d)" domains)
            (killed_records - 1) r.Sv.cached;
          Alcotest.(check bool)
            (Printf.sprintf "missing cells were recomputed (--jobs %d)" domains)
            true
            (r.Sv.computed = r.Sv.total - r.Sv.cached && r.Sv.computed >= 1))
        [ 1; 4 ]

let suite =
  [
    ( "store.journal",
      [
        Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
        Alcotest.test_case "torn tail truncation" `Quick test_journal_torn_tail;
        Alcotest.test_case "crc corruption cuts replay" `Quick test_journal_crc;
        Alcotest.test_case "bad magic refused" `Quick test_journal_bad_magic;
        Alcotest.test_case "open recovery edge cases" `Quick test_journal_open_edges;
        Alcotest.test_case "no resync past a tear" `Quick test_journal_no_resync_past_tear;
        Alcotest.test_case "verify scrub walk" `Quick test_journal_verify;
        QCheck_alcotest.to_alcotest prop_walker_agrees;
      ] );
    ( "store.crc32",
      [
        Alcotest.test_case "standard vectors and slice bounds" `Quick test_crc_vectors;
        QCheck_alcotest.to_alcotest prop_crc_oracle;
        Alcotest.test_case "no allocation per byte" `Quick test_crc_allocation;
      ] );
    ( "store.fault",
      [
        Alcotest.test_case "short writes are invisible" `Quick test_short_writes_identical;
        Alcotest.test_case "transient errors retried" `Quick test_transient_retry;
        Alcotest.test_case "persistent error surfaces" `Quick test_retry_exhaustion;
        Alcotest.test_case "crash is not a retryable error" `Quick test_crash_semantics;
        Alcotest.test_case "ENOSPC degrades, sweep completes" `Quick test_store_degradation;
        Alcotest.test_case "orphan tmp sweep" `Quick test_orphan_sweep;
      ] );
    ( "store.checkpoint",
      [
        Alcotest.test_case "replay digest agreement" `Quick test_checkpoint_digest_agreement;
      ] );
    ( "store.cell",
      [ Alcotest.test_case "digest canonicalization" `Quick test_digest_stability ] );
    ( "store.atomic",
      [ Alcotest.test_case "atomic write" `Quick test_atomic_file ] );
    ( "store.supervisor",
      [
        Alcotest.test_case "cache and resume" `Quick test_supervisor_cache;
        Alcotest.test_case "poison and retry" `Quick test_supervisor_poison_and_retry;
        Alcotest.test_case "inject hook, duplicate digests" `Quick
          test_supervisor_inject_and_duplicates;
        Alcotest.test_case "manifest guard" `Quick test_manifest_guard;
        Alcotest.test_case "fig3 journal: cold, warm, torn-tail resume at 1 and 4 domains" `Quick
          test_fig3_resume;
        Alcotest.test_case "fig3 poisoned point, one-retry heal" `Quick test_fig3_poison_and_heal;
        Alcotest.test_case "fig3 journal: one cell per simulation, jobs-invariant bytes" `Quick
          test_fig3_cell_layout;
        Alcotest.test_case "fig3 state dir from per-alpha cells: recomputed or refused" `Quick
          test_fig3_old_state_dir;
      ] );
    ( "store.parallel",
      [
        Alcotest.test_case "on_done fires in index order" `Quick test_on_done_order;
        Alcotest.test_case "journal bytes jobs-invariant" `Quick
          test_journal_bytes_jobs_invariant;
      ] );
    ( "store.resume",
      [ Alcotest.test_case "SIGKILL and resume (table2)" `Quick test_kill_and_resume ] );
  ]
