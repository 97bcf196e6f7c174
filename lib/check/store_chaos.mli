(** Crash-point fuzzer for the durable store.

    Runs a small supervised sweep through the {!Stob_store.Io_fault}
    syscall plane and hammers every durability promise the store makes:

    {ul
    {- {b Crash enumeration.}  Count the syscall boundaries of an
       uninterrupted run, then for every boundary [k] run a fresh sweep
       that dies at exactly [k] (possibly mid-frame, with a seeded
       partial write) and resume it with a clean plane.  The resumed
       results {e and the final journal bytes} must be bit-identical to
       the uninterrupted run — torn tails truncate away, cached cells
       are not re-journaled, and the supervisor's index-ordered [on_done]
       makes journal bytes jobs- and crash-invariant.}
    {- {b Short writes.}  Seeded split of every [write]: the sweep must
       produce byte-identical journals.}
    {- {b Transient errors.}  Periodic EIO bursts under the bounded
       retry envelope: the sweep heals invisibly and the store reports
       the retries.}
    {- {b Persistent ENOSPC.}  From a mid-run boundary on, every
       write/flush fails: the sweep must {e complete} in journaling-off
       degraded mode with an accurate {!Stob_store.Store.report}, the
       [store-durability-degraded] monitor edge must fire, and a later
       clean resume must reconverge to the reference journal bytes.}
    {- {b Compaction.}  Superseded records, [Store.checkpoint], the
       post-compaction replay-digest-agreement invariant, shrinkage, and
       crash enumeration {e inside} the checkpoint itself — replay
       digest must be unchanged by a crash at any checkpoint boundary
       (tmp+rename atomicity), and stranded tmps must be swept on the
       next open.}}

    The battery is deterministic in [seed] and runs sequentially (the
    supervisor's sequential pool) — crash points, not schedules, are the
    variable under test. *)

type report = {
  sweep_boundaries : int;  (** I/O boundaries in the uninterrupted sweep. *)
  sweep_crashes_passed : int;  (** Crash points whose resume was bit-identical. *)
  ckpt_boundaries : int;  (** Boundaries in open+checkpoint. *)
  ckpt_crashes_passed : int;  (** Checkpoint crash points with unchanged replay digest. *)
  orphans_reclaimed : int;  (** Stranded [*.tmp] files swept across all resumes. *)
  frames_scrubbed : int;  (** Frames walked by {!Stob_store.Journal.verify} calls. *)
  torn_tails_seen : int;  (** Scrubs that found a torn/partial tail. *)
  short_write_runs : int;
  short_writes_injected : int;
  transient_runs : int;
  transient_retried : int;  (** Transient errors absorbed by retries. *)
  enospc_degraded : bool;  (** The ENOSPC sweep completed in degraded mode. *)
  enospc_dropped : int;  (** Records the degraded sweep did not journal. *)
  degraded_edge_fired : bool;  (** [store-durability-degraded] recorded exactly once. *)
  compaction : Stob_store.Store.compaction option;
  failures : string list;  (** Human-readable assertion failures; empty = pass. *)
}

val run : ?smoke:bool -> ?seed:int -> unit -> report
(** Run the battery.  [smoke] (default false) shrinks the synthetic sweep
    for the [runtest] gate; the full battery uses more cells, more
    short-write seeds, and additionally crash-enumerates a journaled quick
    Fig 3 sweep, so at least one enumeration covers real experiment
    payloads. *)

val print_report : report -> unit
