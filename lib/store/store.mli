(** Durable run state: a state directory holding one write-ahead journal
    that doubles as a content-addressed result cache.

    The journal records a {e manifest} (which sweep this directory belongs
    to) followed by one record per finished cell — either its serialized
    result ([Done]) or the exception that poisoned it ([Poisoned]).  A
    killed sweep resumes by replaying the journal: cells already recorded
    are served from the cache, only missing cells are recomputed, and the
    merged output is bit-identical to an uninterrupted run (the payloads
    round-trip results exactly).

    Poisoned cells are cached like results: a resume reports them again
    rather than silently retrying — deterministic failures stay failed
    until the operator removes the state directory.

    {b Durability degradation.}  Journal writes ride a bounded
    retry-with-backoff envelope ({!Journal.retry}); when an error
    persists past it (disk full, dying media), the store switches to
    {e completion over durability}: the in-memory index keeps the sweep
    running to its final artifact, newly finished cells are simply no
    longer journaled, and the condition is surfaced through {!degraded},
    {!report} and the [store-durability-degraded] monitor edge rather
    than by aborting hours of compute.  The journal on disk remains a
    valid replayable prefix; a later resume recomputes the dropped
    cells. *)

type status =
  | Done of string  (** Serialized cell result. *)
  | Poisoned of string  (** [Printexc.to_string] of the final attempt's exception. *)

type manifest = { experiment : string; fields : (string * string) list; total : int }
(** Which run owns this state dir: experiment id, the run-level parameters
    (canonical string fields, sorted), and the expected cell count. *)

type t

val open_ : ?vfs:Vfs.t -> ?retry:Journal.retry -> string -> t
(** Open (creating the directory and journal as needed) and replay.  Torn
    journal tails are truncated; raises {!Journal.Corrupt} if the file is
    not a journal.  Orphan [*.tmp] files stranded by crashed atomic
    writes or compactions are swept away first ({!orphans_swept}).
    [vfs]/[retry] select the syscall plane and the transient-error retry
    budget for every write this handle performs. *)

val close : t -> unit

val journal_file : string -> string
(** The journal's path inside a state directory (for polling/tests). *)

val manifest : t -> manifest option

val set_manifest : t -> experiment:string -> fields:(string * string) list -> total:int -> unit
(** Record the run identity.  Idempotent when it matches the replayed
    manifest; raises [Failure] when the directory already belongs to a
    different run — resuming with changed parameters must not silently mix
    two sweeps' cells.  The message names what differs: [experiment],
    [total], or the keys of the fields whose values differ. *)

val find : t -> string -> status option
(** Cached status of a cell digest, if any. *)

val record : t -> key:string -> label:string -> status -> unit
(** Append one cell record (journal write + in-memory index).  Thread-safe;
    callers serialize ordering via {!Stob_par.Pool.map}[ ~on_done].  Never
    raises on I/O trouble: persistent journal errors degrade the store
    (see module doc) instead of losing the in-memory result. *)

val entries : t -> (string * string * status) list
(** All cell records as [(key, label, status)], in first-recorded order. *)

val peek : string -> manifest option * (string * string * status) list
(** Read-only replay of a state directory — same result as {!open_} +
    {!manifest}/{!entries} but never truncates, creates or locks anything,
    so it is safe against a journal another process is appending to
    (status/progress inspection).  A missing directory reads as
    [(None, [])]. *)

(** {1 Durability report} *)

val degraded : t -> string option
(** Why journaling is off, if it is ([None] = fully durable). *)

val orphans_swept : t -> int
(** Orphan [*.tmp] files removed by {!open_}'s sweep. *)

type report = {
  journal_bytes : int;  (** Journal size on disk. *)
  journal_frames : int;  (** Frames replayed + appended through this handle. *)
  stale_frames : int;  (** Frames superseded by a newer record for the same key. *)
  r_orphans_swept : int;
  retried : int;  (** Transient syscall errors absorbed by retries. *)
  dropped : int;  (** Records not journaled since degrading. *)
  degraded_reason : string option;
}

val report : t -> report
val pp_report : Format.formatter -> report -> unit
(** One line of durability counters, plus a DEGRADED line when journaling
    is off. *)

(** {1 Checkpoint / compaction}

    A long sweep's journal accumulates superseded frames (a re-recorded
    key keeps its latest status on replay).  A {e checkpoint} atomically
    rewrites the journal down to the manifest plus the latest record per
    cell digest — tmp + verify + rename, via {!Journal.rewrite} — and
    proves the {e replay-digest-agreement} invariant: the compacted
    journal replays to exactly the pre-compaction state, or the rewrite
    is refused. *)

type compaction = {
  frames_before : int;
  frames_after : int;
  bytes_before : int;
  bytes_after : int;
}

val checkpoint : t -> compaction
(** Compact now.  Raises [Failure] on a degraded store (there is nothing
    durable to compact) or if the replay-digest agreement fails. *)

val maybe_checkpoint : ?threshold_bytes:int -> t -> compaction option
(** Size-bounded auto-compaction for shard boundaries (Soak/Population):
    checkpoints only when the journal exceeds [threshold_bytes]
    (default 1 MiB) {e and} at least a quarter of its
    frames are stale — so journals stop growing monotonically without
    long sweeps re-copying their history at every boundary. *)

val compact : ?vfs:Vfs.t -> ?retry:Journal.retry -> string -> compaction
(** Offline compaction of a state directory ([stobctl compact]): open,
    checkpoint, close. *)

val replay_digest : string -> string
(** Digest of a state directory's replayed state (manifest + entries in
    first-recorded order) — read-only, via {!peek}.  Two directories with
    equal digests resume identically; the chaos battery and [stobctl
    compact] use it to state the replay-agreement invariant across
    compactions and crashes. *)

val digest : t -> string
(** {!replay_digest} of this handle's in-memory state. *)
