type status = Done of string | Poisoned of string

type manifest = { experiment : string; fields : (string * string) list; total : int }

(* The journal's record payloads: marshaled values of this (stable) type.
   Framing integrity is the journal's job (length+CRC); this type only has
   to stay in sync within one build of the binary — the digest rules
   (Cell.digest) are what survive across builds. *)
type record = Manifest of manifest | Cell of { key : string; label : string; status : status }

type t = {
  dir : string;
  vfs : Vfs.t;
  retry : Journal.retry;
  mutable journal : Journal.t;  (* swapped on checkpoint *)
  cells : (string, string * status) Hashtbl.t; (* key -> (label, status) *)
  mutable order : string list; (* keys, newest first *)
  mutable manifest : manifest option;
  mutable degraded : string option;  (* journaling-off reason *)
  mutable dropped : int;  (* records not journaled since degrading *)
  mutable retried_past : int;  (* retries from journal handles closed by checkpoints *)
  orphans_swept : int;
  mu : Mutex.t;
}

let journal_file dir = Filename.concat dir "journal.stob"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Fold replayed payloads into (manifest, cells, keys newest-first). *)
let replay ~file payloads =
  let manifest = ref None in
  let cells = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun p ->
      let r =
        try (Marshal.from_string p 0 : record)
        with e ->
          raise
            (Journal.Corrupt
               (Printf.sprintf "%s: record does not deserialize (%s) — stale state dir from \
                                another build? remove it and rerun"
                  file (Printexc.to_string e)))
      in
      match r with
      | Manifest m -> manifest := Some m
      | Cell { key; label; status } ->
          if not (Hashtbl.mem cells key) then order := key :: !order;
          Hashtbl.replace cells key (label, status))
    payloads;
  (!manifest, cells, !order)

let contains_tmp name =
  let pat = ".tmp." in
  let n = String.length name and pn = String.length pat in
  let rec go i = i + pn <= n && (String.sub name i pn = pat || go (i + 1)) in
  go 0

(* A crash between an atomic tmp-write and its rename strands the tmp
   forever (the dying process cannot run its cleanup handler).  Nobody
   else will ever reference it — tmp names embed pid and a counter — so
   opening the directory is the safe moment to reclaim them. *)
let sweep_orphans vfs dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc name ->
          if contains_tmp name then (
            match vfs.Vfs.remove (Filename.concat dir name) with
            | () -> acc + 1
            | exception (Unix.Unix_error _ | Sys_error _) -> acc)
          else acc)
        0 names

let open_ ?(vfs = Vfs.unix) ?(retry = Journal.default_retry) dir =
  mkdir_p dir;
  let orphans_swept = sweep_orphans vfs dir in
  let journal, payloads = Journal.open_ ~vfs ~retry (journal_file dir) in
  let manifest, cells, order = replay ~file:(journal_file dir) payloads in
  { dir; vfs; retry; journal; cells; order; manifest; degraded = None; dropped = 0;
    retried_past = 0; orphans_swept; mu = Mutex.create () }

let peek dir =
  let file = journal_file dir in
  let manifest, cells, order = replay ~file (Journal.read file) in
  let entries =
    List.rev_map
      (fun key ->
        let label, status = Hashtbl.find cells key in
        (key, label, status))
      order
  in
  (manifest, entries)

let close t = Journal.close t.journal
let manifest t = t.manifest
let degraded t = Mutex.protect t.mu (fun () -> t.degraded)
let orphans_swept t = t.orphans_swept

(* Completion over durability: a sweep whose journal hits a persistent
   error (disk full, dying media) finishes on the in-memory index instead
   of aborting hours of compute.  The cost is honest and reported — the
   dropped records will be recomputed on a resume — and the journal file
   itself stays a valid replayable prefix (a torn trailing frame is
   truncated by the next open). *)
let journal_append_locked t ~what payload =
  match t.degraded with
  | Some _ -> t.dropped <- t.dropped + 1
  | None -> (
      try Journal.append t.journal payload
      with Unix.Unix_error (e, fn, _) ->
        t.degraded <-
          Some
            (Printf.sprintf "%s failed persistently (%s in %s) — journaling off, completing \
                             without durability"
               what (Unix.error_message e) fn);
        t.dropped <- t.dropped + 1)

(* Typed stand-ins for the polymorphic [compare], [=] and [List.assoc_opt]
   on manifest fields, with the same results. *)
let compare_field (k, v) (k', v') =
  match String.compare k k' with 0 -> String.compare v v' | c -> c

let field_is fields k v =
  match List.find_opt (fun (k', _) -> String.equal k k') fields with
  | Some (_, v') -> String.equal v v'
  | None -> false

let manifest_equal a b =
  String.equal a.experiment b.experiment
  && Int.equal a.total b.total
  && List.equal (fun f f' -> compare_field f f' = 0) a.fields b.fields

let set_manifest t ~experiment ~fields ~total =
  let m = { experiment; fields = List.sort compare_field fields; total } in
  Mutex.protect t.mu (fun () ->
      match t.manifest with
      | Some m' when manifest_equal m' m -> ()
      | Some m' ->
          let differ =
            List.concat
              [
                (if m'.experiment <> experiment then [ "experiment" ] else []);
                (if m'.total <> total then [ "total" ] else []);
                List.sort_uniq String.compare
                  (List.filter_map
                     (fun (k, v) -> if field_is m.fields k v && field_is m'.fields k v then None else Some k)
                     (m.fields @ m'.fields));
              ]
          in
          failwith
            (Printf.sprintf
               "Stob_store: state dir %s belongs to run %s (%d cells), refusing to reuse it for \
                %s (%d cells): %s %s — use a fresh --state-dir per sweep"
               t.dir m'.experiment m'.total experiment total
               (if List.length differ = 1 then "field differs:" else "fields differ:")
               (String.concat ", " differ))
      | None ->
          t.manifest <- Some m;
          journal_append_locked t ~what:"manifest write" (Marshal.to_string (Manifest m) []))

let find t key =
  Mutex.protect t.mu (fun () -> Option.map snd (Hashtbl.find_opt t.cells key))

let record t ~key ~label status =
  Mutex.protect t.mu (fun () ->
      if not (Hashtbl.mem t.cells key) then t.order <- key :: t.order;
      Hashtbl.replace t.cells key (label, status);
      journal_append_locked t ~what:"cell record" (Marshal.to_string (Cell { key; label; status }) []))

let entries_locked t =
  List.rev_map
    (fun key ->
      let label, status = Hashtbl.find t.cells key in
      (key, label, status))
    t.order

let entries t = Mutex.protect t.mu (fun () -> entries_locked t)

(* --- durability report --------------------------------------------------- *)

type report = {
  journal_bytes : int;
  journal_frames : int;
  stale_frames : int;  (* frames superseded by a newer record for the same key *)
  r_orphans_swept : int;
  retried : int;
  dropped : int;
  degraded_reason : string option;
}

let stale_locked t =
  let live = Hashtbl.length t.cells + match t.manifest with Some _ -> 1 | None -> 0 in
  Int.max 0 (Journal.frames t.journal - live)

let report t =
  Mutex.protect t.mu (fun () ->
      { journal_bytes = Option.value ~default:0 (t.vfs.Vfs.file_size (journal_file t.dir));
        journal_frames = Journal.frames t.journal;
        stale_frames = stale_locked t;
        r_orphans_swept = t.orphans_swept;
        retried = t.retried_past + Journal.retried t.journal;
        dropped = t.dropped;
        degraded_reason = t.degraded })

let pp_report ppf r =
  Format.fprintf ppf "journal %d frames (%d stale), %d bytes; %d orphan tmp swept; %d retried"
    r.journal_frames r.stale_frames r.journal_bytes r.r_orphans_swept r.retried;
  match r.degraded_reason with
  | None -> ()
  | Some reason ->
      Format.fprintf ppf "@.  DURABILITY DEGRADED: %s (%d records not journaled)" reason
        r.dropped

(* --- checkpoint / compaction --------------------------------------------- *)

type compaction = {
  frames_before : int;
  frames_after : int;
  bytes_before : int;
  bytes_after : int;
}

let state_digest manifest entries =
  Digest.to_hex (Digest.string (Marshal.to_string (manifest, entries) []))

let replay_digest dir =
  let manifest, entries = peek dir in
  state_digest manifest entries

let digest t = Mutex.protect t.mu (fun () -> state_digest t.manifest (entries_locked t))

let checkpoint_locked t =
  (match t.degraded with
  | Some reason ->
      failwith ("Stob_store: refusing to checkpoint a durability-degraded store: " ^ reason)
  | None -> ());
  let file = journal_file t.dir in
  let bytes_before = Option.value ~default:0 (t.vfs.Vfs.file_size file) in
  let frames_before = Journal.frames t.journal in
  let payloads =
    (match t.manifest with Some m -> [ Marshal.to_string (Manifest m) [] ] | None -> [])
    @ List.rev_map
        (fun key ->
          let label, status = Hashtbl.find t.cells key in
          Marshal.to_string (Cell { key; label; status }) [])
        t.order
  in
  let before = state_digest t.manifest (entries_locked t) in
  (* Close before rename: appending through a descriptor that still
     points at the renamed-away inode would silently lose records. *)
  t.retried_past <- t.retried_past + Journal.retried t.journal;
  Journal.close t.journal;
  t.retried_past <- t.retried_past + Journal.rewrite ~vfs:t.vfs ~retry:t.retry file payloads;
  let journal, replayed = Journal.open_ ~vfs:t.vfs ~retry:t.retry file in
  t.journal <- journal;
  (* Replay-digest agreement: the compacted journal must replay to the
     exact state it was written from.  Journal.rewrite already verified
     the bytes before renaming; this closes the loop at the semantic
     (deserialized) level. *)
  let manifest', cells', order' = replay ~file replayed in
  let entries' =
    List.rev_map
      (fun key ->
        let label, status = Hashtbl.find cells' key in
        (key, label, status))
      order'
  in
  if state_digest manifest' entries' <> before then
    failwith
      (Printf.sprintf "Stob_store: post-compaction replay digest disagrees with pre-compaction \
                       state in %s" t.dir);
  { frames_before; frames_after = Journal.frames journal; bytes_before;
    bytes_after = Option.value ~default:0 (t.vfs.Vfs.file_size file) }

let checkpoint t = Mutex.protect t.mu (fun () -> checkpoint_locked t)

let auto_checkpoint_bytes = 1 lsl 20

let maybe_checkpoint ?(threshold_bytes = auto_checkpoint_bytes) t =
  Mutex.protect t.mu (fun () ->
      let bytes = Option.value ~default:0 (t.vfs.Vfs.file_size (journal_file t.dir)) in
      let frames = Journal.frames t.journal in
      (* Compaction only reclaims superseded frames, so rewriting is worth
         the I/O only once the journal is both big and at least a quarter
         garbage — otherwise a long sweep would re-copy its whole history
         at every shard boundary. *)
      if Option.is_none t.degraded && bytes > threshold_bytes && stale_locked t * 4 > frames then
        Some (checkpoint_locked t)
      else None)

let compact dir =
  let t = open_ dir in
  Fun.protect ~finally:(fun () -> close t) (fun () -> checkpoint t)
